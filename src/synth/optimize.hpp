#pragma once
// The synthesis script: interleaved balance / rewrite / refactor rounds,
// mirroring the paper's ABC script of "multiple refactor, rewrite and
// balance commands".
//
// The NPN table and the rewrite structures it indexes are process-wide and
// immutable once built (logic/npn.hpp, synth/rewrite.hpp), so optimize()
// keeps no state between calls and parallel calls share nothing mutable.

#include "net/aig.hpp"

namespace mvf::synth {

enum class Effort {
    kFast,     ///< balance + rewrite rounds only (GA fitness evaluations)
    kDefault,  ///< adds refactoring rounds
    kHigh,     ///< more rounds plus zero-gain perturbation
};

/// Optimizes the AIG in place and returns the final live AND count.
int optimize(net::Aig* aig, Effort effort = Effort::kDefault);

/// Stateless.  The overload below accepts one for existing callers; new
/// code calls optimize(aig, effort).
struct SynthContext {};

inline int optimize(net::Aig* aig, SynthContext& /*unused*/,
                    Effort effort = Effort::kDefault) {
    return optimize(aig, effort);
}

}  // namespace mvf::synth
