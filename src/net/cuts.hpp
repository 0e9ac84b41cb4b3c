#pragma once
// K-feasible cut enumeration with cut functions.
//
// Cuts drive both NPN rewriting (4-cuts classified by canonical form) and
// structural technology mapping (cut function matched against library
// cells).  Each cut stores its sorted leaf set and its function as a 16-bit
// truth table over the leaf positions (leaf i = variable i; unused
// variables are don't-cares).
//
// A cut is a fixed-capacity value (at most kMaxLeaves leaves inline plus a
// leaf signature), so enumeration and the mapper's choice table copy cuts
// without touching the heap.  All cuts live in one flat array.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/aig.hpp"

namespace mvf::net {

struct Cut {
    /// Leaf capacity: cut functions are 16-bit truth tables.
    static constexpr int kMaxLeaves = 4;

    std::array<int, kMaxLeaves> leaf_ids{};  ///< sorted node ids; size() used
    std::uint32_t signature = 0;  ///< OR of 1 << (leaf % 32): subset filter
    std::uint16_t function = 0;   ///< tt over leaf positions (4-var space)
    std::uint8_t num_leaves = 0;

    int size() const { return num_leaves; }
    std::span<const int> leaves() const {
        return {leaf_ids.data(), static_cast<std::size_t>(num_leaves)};
    }
};

struct CutParams {
    int max_leaves = 4;        ///< K, in [1, Cut::kMaxLeaves]
    int max_cuts_per_node = 8; ///< priority cuts kept per node, >= 1
    bool include_trivial = true;
};

/// All cuts per node, indexed by node id.  PIs get only their trivial cut.
class CutSet {
public:
    /// Throws std::invalid_argument when max_leaves is outside
    /// [1, Cut::kMaxLeaves] or max_cuts_per_node < 1.
    CutSet(const Aig& aig, const CutParams& params);

    std::span<const Cut> cuts_of(int node) const {
        const auto n = static_cast<std::size_t>(node);
        return std::span<const Cut>(cuts_).subspan(begin_[n], begin_[n + 1] - begin_[n]);
    }

private:
    std::vector<Cut> cuts_;             ///< every node's cuts, node by node
    std::vector<std::size_t> begin_;    ///< node n owns [begin_[n], begin_[n+1])
};

}  // namespace mvf::net
