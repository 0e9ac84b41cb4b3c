#pragma once
// Shared machinery for DAG-aware resynthesis passes (rewrite / refactor):
// MFFC computation, dry-run gain estimation, and rebuild-with-substitution.
//
// A pass records, per AIG node, an optional Replacement: a small structure
// AIG whose inputs wire to existing nodes.  apply_replacements() then
// reconstructs the graph from the primary outputs, instantiating decided
// structures through structural hashing so shared logic is discovered and
// dead cones vanish.
//
// The per-cut kernels (mffc_size, count_new_nodes) touch only the cone and
// the structure, never an array sized by the AIG: the pass owns the scratch
// buffers they fill and reuses them from cut to cut.  Concurrent passes on
// different AIGs share nothing.

#include <span>
#include <unordered_map>
#include <vector>

#include "net/aig.hpp"

namespace mvf::synth {

/// A candidate resynthesis of one node's function over chosen leaves.  The
/// structure and its order are views: the pass keeps what they point at
/// alive until apply_replacements() returns.
struct Replacement {
    /// structure PI index -> old-AIG node id feeding it (-1 if the structure
    /// does not read that input).
    std::vector<int> leaf_of_input;
    /// per structure PI: complement the leaf signal before feeding it
    std::vector<bool> input_negated;
    bool output_negated = false;
    const net::Aig* structure = nullptr;
    net::Lit structure_out = 0;
    /// reachable_nodes(*structure, structure_out)
    std::span<const int> structure_order;
};

/// Nodes of `structure` reachable from `out`, in topological (id) order.
std::vector<int> reachable_nodes(const net::Aig& structure, net::Lit out);

/// Computes the size of the maximum fanout-free cone of `root` down to
/// `leaves` using trial dereferencing on `refs` (restored before returning).
/// If `mffc_nodes` is non-null it receives the member node ids (root
/// included); pass the same buffer from cut to cut to reuse its storage.
int mffc_size(const net::Aig& aig, int root, std::span<const int> leaves,
              std::vector<int>& refs, std::vector<int>* mffc_nodes = nullptr);

/// Estimates how many new AND nodes instantiating `r` would create, by
/// replaying the structure against the old AIG's structural hash table.
/// Hits on nodes listed in `mffc_nodes` (which the replacement would free)
/// are counted as new.  `mapped` is scratch space, reused across calls.
int count_new_nodes(const net::Aig& aig, const Replacement& r,
                    std::span<const int> mffc_nodes,
                    std::vector<net::Lit>& mapped);

/// Rebuilds the AIG applying the decided replacements (keyed by old node id).
net::Aig apply_replacements(
    const net::Aig& aig,
    const std::unordered_map<int, Replacement>& decisions);

}  // namespace mvf::synth
