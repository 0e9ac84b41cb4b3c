#pragma once
// The synthesis script: interleaved balance / rewrite / refactor rounds,
// mirroring the paper's ABC script of "multiple refactor, rewrite and
// balance commands".
//
// SynthContext owns the memoized NPN table and rewrite library; one context
// is shared by an entire experiment so the thousands of genetic-algorithm
// fitness evaluations amortize canonization and structure synthesis.  Both
// tables are safe for concurrent use, so parallel optimize() calls may share
// one context.

#include "logic/npn.hpp"
#include "net/aig.hpp"
#include "synth/rewrite.hpp"

namespace mvf::synth {

struct SynthContext {
    logic::NpnManager npn;
    RewriteLibrary rewrite_lib;
};

enum class Effort {
    kFast,     ///< balance + rewrite rounds only (GA fitness evaluations)
    kDefault,  ///< adds refactoring rounds
    kHigh,     ///< more rounds plus zero-gain perturbation
};

/// Optimizes the AIG in place and returns the final live AND count.
int optimize(net::Aig* aig, SynthContext& ctx, Effort effort = Effort::kDefault);

}  // namespace mvf::synth
