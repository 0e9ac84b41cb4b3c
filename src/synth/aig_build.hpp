#pragma once
// AIG construction helpers: factored forms, truth tables, and mux trees.
//
// Phase I of the flow builds the merged multi-function circuit from these
// primitives: each viable function's outputs become factored-ISOP cones over
// the shared inputs, and per-output multiplexer trees select among them
// (Fig. 2 of the paper).

#include <span>

#include "logic/factor.hpp"
#include "logic/truth_table.hpp"
#include "net/aig.hpp"

namespace mvf::synth {

/// Instantiates a factored form over the given input literals.
net::Lit build_factored(const logic::FactorTree& tree,
                        std::span<const net::Lit> inputs, net::Aig* aig);

/// A function's best-polarity ISOP, factored: derived once, then
/// instantiated on any input literals.
struct FactoredCone {
    logic::FactorTree tree;
    bool complemented = false;  ///< the tree computes the complement
};

/// Best-polarity ISOP plus algebraic factoring of `function`.
FactoredCone derive_cone(const logic::TruthTable& function);

/// Instantiates a cone over the given input literals (one per variable of
/// the function it was derived from).
net::Lit instantiate_cone(const FactoredCone& cone, std::span<const net::Lit> inputs,
                          net::Aig* aig);

/// derive_cone, then instantiate_cone.  inputs.size() must equal
/// function.num_vars().
net::Lit build_from_tt(const logic::TruthTable& function,
                       std::span<const net::Lit> inputs, net::Aig* aig);

/// Balanced multiplexer tree: returns data[value(selects)], where selects
/// are read LSB-first.  data.size() must equal 1 << selects.size().
net::Lit build_mux_tree(std::span<const net::Lit> selects,
                        std::span<const net::Lit> data, net::Aig* aig);

}  // namespace mvf::synth
