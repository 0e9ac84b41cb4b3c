#include "net/cuts.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace mvf::net {
namespace {

// Truth tables of the four cut-leaf variables in the 4-var space.
constexpr std::uint16_t kVarTT[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

// The cut {node} with function "leaf 0".
Cut trivial_cut(int node) {
    Cut c;
    c.leaf_ids[0] = node;
    c.num_leaves = 1;
    c.signature = 1u << (static_cast<unsigned>(node) & 31u);
    c.function = kVarTT[0];
    return c;
}

// Swaps variables i < j of a 4-var truth table.
std::uint16_t swap_vars(std::uint16_t tt, int i, int j) {
    const int shift = (1 << j) - (1 << i);
    const std::uint32_t up = kVarTT[j] & static_cast<std::uint16_t>(~kVarTT[i]);
    const std::uint32_t down = up >> shift;  // var i set, var j clear
    return static_cast<std::uint16_t>((tt & ~(up | down)) | ((tt & down) << shift) |
                                      ((tt & up) >> shift));
}

// Re-expresses `tt` (over `from`'s leaves) in the variable space of `to`, a
// sorted superset.  Leaf i of `from` lands at position pos >= i of `to`;
// moving the leaves from the last one down, each swap targets a position
// the function does not yet depend on, so the swap is exact.
std::uint16_t expand_tt(std::uint16_t tt, const Cut& from, const Cut& to) {
    const std::span<const int> x = from.leaves();
    const std::span<const int> y = to.leaves();
    int pos = to.size();
    for (int i = from.size() - 1; i >= 0; --i) {
        do {
            --pos;
        } while (y[static_cast<std::size_t>(pos)] != x[static_cast<std::size_t>(i)]);
        if (pos != i) tt = swap_vars(tt, i, pos);
    }
    return tt;
}

// Merges two sorted leaf sets into `out`; returns false if the union
// exceeds max_leaves.
bool merge_leaves(const Cut& a, const Cut& b, int max_leaves, Cut* out) {
    const std::span<const int> x = a.leaves();
    const std::span<const int> y = b.leaves();
    std::size_t i = 0;
    std::size_t j = 0;
    int n = 0;
    while (i < x.size() || j < y.size()) {
        int next;
        if (j == y.size() || (i < x.size() && x[i] < y[j])) {
            next = x[i++];
        } else if (i == x.size() || y[j] < x[i]) {
            next = y[j++];
        } else {
            next = x[i++];
            ++j;
        }
        if (n == max_leaves) return false;
        out->leaf_ids[static_cast<std::size_t>(n++)] = next;
    }
    out->num_leaves = static_cast<std::uint8_t>(n);
    out->signature = a.signature | b.signature;
    return true;
}

bool is_subset(const Cut& small, const Cut& big) {
    return (small.signature & ~big.signature) == 0 &&
           std::ranges::includes(big.leaves(), small.leaves());
}

}  // namespace

CutSet::CutSet(const Aig& aig, const CutParams& params) {
    if (params.max_leaves < 1 || params.max_leaves > Cut::kMaxLeaves) {
        throw std::invalid_argument("CutParams.max_leaves must be in [1, " +
                                    std::to_string(Cut::kMaxLeaves) + "], got " +
                                    std::to_string(params.max_leaves));
    }
    if (params.max_cuts_per_node < 1) {
        throw std::invalid_argument("CutParams.max_cuts_per_node must be >= 1, got " +
                                    std::to_string(params.max_cuts_per_node));
    }
    const auto num_nodes = static_cast<std::size_t>(aig.num_nodes());
    begin_.assign(num_nodes + 1, 0);

    // Constant node: single empty-leaf cut with constant-0 function.
    cuts_.push_back(Cut{});
    begin_[1] = cuts_.size();

    for (int i = 0; i < aig.num_pis(); ++i) {
        const int node = i + 1;
        cuts_.push_back(trivial_cut(node));
        begin_[static_cast<std::size_t>(node) + 1] = cuts_.size();
    }

    std::vector<Cut> node_cuts;  // the node being enumerated
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        node_cuts.clear();
        const Lit f0 = aig.fanin0(n);
        const Lit f1 = aig.fanin1(n);
        // Views into cuts_, which grows only after this node is done.
        const std::span<const Cut> cuts0 = cuts_of(Aig::lit_node(f0));
        const std::span<const Cut> cuts1 = cuts_of(Aig::lit_node(f1));

        for (const Cut& c0 : cuts0) {
            for (const Cut& c1 : cuts1) {
                // Distinct signature bits are distinct leaves.
                if (std::popcount(c0.signature | c1.signature) > params.max_leaves) continue;
                Cut candidate;
                if (!merge_leaves(c0, c1, params.max_leaves, &candidate)) continue;
                std::uint16_t t0 = expand_tt(c0.function, c0, candidate);
                std::uint16_t t1 = expand_tt(c1.function, c1, candidate);
                if (Aig::lit_complemented(f0)) t0 = static_cast<std::uint16_t>(~t0);
                if (Aig::lit_complemented(f1)) t1 = static_cast<std::uint16_t>(~t1);
                candidate.function = static_cast<std::uint16_t>(t0 & t1);

                // Dominance filter: skip if an existing cut is a subset.
                const bool dominated =
                    std::any_of(node_cuts.begin(), node_cuts.end(),
                                [&candidate](const Cut& c) { return is_subset(c, candidate); });
                if (dominated) continue;
                std::erase_if(node_cuts, [&candidate](const Cut& c) {
                    return is_subset(candidate, c);
                });
                node_cuts.push_back(candidate);
            }
        }
        // Keep the smallest cuts when over budget (stable by size; an
        // insertion sort, since std::stable_sort may allocate).
        for (std::size_t i = 1; i < node_cuts.size(); ++i) {
            const Cut c = node_cuts[i];
            std::size_t j = i;
            for (; j > 0 && node_cuts[j - 1].size() > c.size(); --j) {
                node_cuts[j] = node_cuts[j - 1];
            }
            node_cuts[j] = c;
        }
        if (static_cast<int>(node_cuts.size()) > params.max_cuts_per_node) {
            node_cuts.resize(static_cast<std::size_t>(params.max_cuts_per_node));
        }
        if (params.include_trivial) node_cuts.push_back(trivial_cut(n));
        cuts_.insert(cuts_.end(), node_cuts.begin(), node_cuts.end());
        begin_[static_cast<std::size_t>(n) + 1] = cuts_.size();
    }
}

}  // namespace mvf::net
