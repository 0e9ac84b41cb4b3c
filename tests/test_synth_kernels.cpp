// Differential tests of the synthesis kernels against reference oracles.
//
// The reference implementations below are the straightforward forms of
// the kernels: cuts with heap leaf vectors, minterm-by-minterm function
// expansion and std::includes subset checks; MFFC membership through an
// AIG-sized leaf bitmap; gain estimation with an AIG-sized "freed" bitmap
// and a fresh reachability walk per call.  The library kernels
// (net::CutSet, synth::mffc_size, synth::count_new_nodes) must agree with
// them exactly -- same cuts in the same order, same MFFCs, same counts -- on
// seeded random AIGs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "logic/npn.hpp"
#include "logic/truth_table.hpp"
#include "net/aig.hpp"
#include "net/cuts.hpp"
#include "synth/aig_build.hpp"
#include "synth/refactor.hpp"
#include "synth/replace.hpp"
#include "synth/rewrite.hpp"
#include "util/rng.hpp"

namespace mvf::synth {
namespace {

using net::Aig;
using net::Lit;

// ----------------------------------------------------------- oracles --

namespace ref {

struct Cut {
    std::vector<int> leaves;  ///< sorted node ids
    std::uint16_t function = 0;
};

constexpr std::uint16_t kVarTT[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

std::uint16_t expand_tt(std::uint16_t tt, const std::vector<int>& from,
                        const std::vector<int>& to) {
    std::uint16_t out = 0;
    int pos[4];
    for (std::size_t i = 0; i < from.size(); ++i) {
        const auto it = std::lower_bound(to.begin(), to.end(), from[i]);
        assert(it != to.end() && *it == from[i]);
        pos[i] = static_cast<int>(it - to.begin());
    }
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t src = 0;
        for (std::size_t i = 0; i < from.size(); ++i) {
            if ((m >> pos[i]) & 1) src |= 1u << i;
        }
        if ((tt >> src) & 1) out |= static_cast<std::uint16_t>(1u << m);
    }
    return out;
}

bool merge_leaves(const std::vector<int>& a, const std::vector<int>& b,
                  int max_leaves, std::vector<int>* out) {
    out->clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        int next;
        if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
            next = a[i++];
        } else if (i >= a.size() || b[j] < a[i]) {
            next = b[j++];
        } else {
            next = a[i++];
            ++j;
        }
        out->push_back(next);
        if (static_cast<int>(out->size()) > max_leaves) return false;
    }
    return true;
}

bool is_subset(const std::vector<int>& small, const std::vector<int>& big) {
    return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

std::vector<std::vector<Cut>> enumerate_cuts(const Aig& aig, const net::CutParams& params) {
    std::vector<std::vector<Cut>> cuts(static_cast<std::size_t>(aig.num_nodes()));
    cuts[0].push_back(Cut{{}, 0});
    for (int i = 0; i < aig.num_pis(); ++i) {
        cuts[static_cast<std::size_t>(i + 1)].push_back(Cut{{i + 1}, kVarTT[0]});
    }
    std::vector<int> merged;
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        auto& node_cuts = cuts[static_cast<std::size_t>(n)];
        const Lit f0 = aig.fanin0(n);
        const Lit f1 = aig.fanin1(n);
        for (const Cut& c0 : cuts[static_cast<std::size_t>(Aig::lit_node(f0))]) {
            for (const Cut& c1 : cuts[static_cast<std::size_t>(Aig::lit_node(f1))]) {
                if (!merge_leaves(c0.leaves, c1.leaves, params.max_leaves, &merged)) continue;
                std::uint16_t t0 = expand_tt(c0.function, c0.leaves, merged);
                std::uint16_t t1 = expand_tt(c1.function, c1.leaves, merged);
                if (Aig::lit_complemented(f0)) t0 = static_cast<std::uint16_t>(~t0);
                if (Aig::lit_complemented(f1)) t1 = static_cast<std::uint16_t>(~t1);
                const Cut candidate{merged, static_cast<std::uint16_t>(t0 & t1)};
                bool dominated = false;
                for (const Cut& c : node_cuts) {
                    if (is_subset(c.leaves, candidate.leaves)) {
                        dominated = true;
                        break;
                    }
                }
                if (dominated) continue;
                std::erase_if(node_cuts, [&candidate](const Cut& c) {
                    return is_subset(candidate.leaves, c.leaves);
                });
                node_cuts.push_back(candidate);
            }
        }
        std::stable_sort(node_cuts.begin(), node_cuts.end(), [](const Cut& a, const Cut& b) {
            return a.leaves.size() < b.leaves.size();
        });
        if (static_cast<int>(node_cuts.size()) > params.max_cuts_per_node) {
            node_cuts.resize(static_cast<std::size_t>(params.max_cuts_per_node));
        }
        if (params.include_trivial) node_cuts.push_back(Cut{{n}, kVarTT[0]});
    }
    return cuts;
}

int mffc_size(const Aig& aig, int root, const std::vector<int>& leaves,
              std::vector<int>& refs, std::vector<int>* mffc_nodes) {
    std::vector<bool> is_leaf(static_cast<std::size_t>(aig.num_nodes()), false);
    for (const int l : leaves) is_leaf[static_cast<std::size_t>(l)] = true;
    std::vector<int> collected;
    const auto deref = [&](auto&& self, int node) -> int {
        collected.push_back(node);
        int count = 1;
        for (const Lit f : {aig.fanin0(node), aig.fanin1(node)}) {
            const int child = Aig::lit_node(f);
            if (!aig.is_and(child) || is_leaf[static_cast<std::size_t>(child)]) continue;
            if (--refs[static_cast<std::size_t>(child)] == 0) count += self(self, child);
        }
        return count;
    };
    const int size = deref(deref, root);
    for (const int node : collected) {
        for (const Lit f : {aig.fanin0(node), aig.fanin1(node)}) {
            const int child = Aig::lit_node(f);
            if (!aig.is_and(child) || is_leaf[static_cast<std::size_t>(child)]) continue;
            ++refs[static_cast<std::size_t>(child)];
        }
    }
    *mffc_nodes = std::move(collected);
    return size;
}

int count_new_nodes(const Aig& aig, const Replacement& r, const std::vector<int>& mffc_nodes) {
    const Aig& s = *r.structure;
    std::vector<bool> freed(static_cast<std::size_t>(aig.num_nodes()), false);
    for (const int n : mffc_nodes) freed[static_cast<std::size_t>(n)] = true;
    std::vector<Lit> mapped(static_cast<std::size_t>(s.num_nodes()), Aig::kNoLit);
    mapped[0] = Aig::kConst0;
    for (int i = 0; i < s.num_pis(); ++i) {
        const int leaf = r.leaf_of_input[static_cast<std::size_t>(i)];
        if (leaf < 0) continue;
        Lit l = Aig::make_lit(leaf, false);
        if (r.input_negated[static_cast<std::size_t>(i)]) l = Aig::lit_not(l);
        mapped[static_cast<std::size_t>(i + 1)] = l;
    }
    int new_count = 0;
    for (const int n : reachable_nodes(s, r.structure_out)) {
        if (!s.is_and(n)) continue;
        const auto resolve = [&](Lit f) {
            const Lit base = mapped[static_cast<std::size_t>(Aig::lit_node(f))];
            if (base == Aig::kNoLit) return Aig::kNoLit;
            return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
        };
        const Lit a = resolve(s.fanin0(n));
        const Lit b = resolve(s.fanin1(n));
        if (a == Aig::kNoLit || b == Aig::kNoLit) {
            ++new_count;
            continue;
        }
        const Lit hit = aig.lookup_and(a, b);
        if (hit == Aig::kNoLit || freed[static_cast<std::size_t>(Aig::lit_node(hit))]) {
            ++new_count;
        } else {
            mapped[static_cast<std::size_t>(n)] = hit;
        }
    }
    return new_count;
}

}  // namespace ref

// ------------------------------------------------------------- tests --

/// Random AIG with dead nodes (POs drawn at random from the pool).
Aig random_aig(int num_pis, int num_nodes, util::Rng& rng, int num_pos) {
    Aig aig(num_pis);
    std::vector<Lit> pool;
    for (int i = 0; i < num_pis; ++i) pool.push_back(aig.pi(i));
    for (int i = 0; i < num_nodes; ++i) {
        const Lit a = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        const Lit b = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        pool.push_back(aig.and2(rng.coin(0.5) ? Aig::lit_not(a) : a,
                                rng.coin(0.5) ? Aig::lit_not(b) : b));
    }
    for (int i = 0; i < num_pos; ++i) {
        const Lit po = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        aig.add_po(rng.coin(0.5) ? Aig::lit_not(po) : po);
    }
    return aig;
}

TEST(KernelOracle, CutSetMatchesTheReferenceEnumeration) {
    util::Rng rng(101);
    for (int t = 0; t < 40; ++t) {
        const Aig aig = random_aig(rng.uniform_int(2, 9), rng.uniform_int(5, 120), rng,
                                   rng.uniform_int(1, 4));
        const net::CutParams params{rng.uniform_int(1, net::Cut::kMaxLeaves),
                                    rng.uniform_int(1, 10), rng.coin(0.7)};
        const net::CutSet cuts(aig, params);
        const auto want = ref::enumerate_cuts(aig, params);
        for (int n = 0; n < aig.num_nodes(); ++n) {
            const auto got = cuts.cuts_of(n);
            const auto& exp = want[static_cast<std::size_t>(n)];
            ASSERT_EQ(got.size(), exp.size()) << "trial " << t << " node " << n;
            for (std::size_t i = 0; i < exp.size(); ++i) {
                EXPECT_TRUE(std::ranges::equal(got[i].leaves(), exp[i].leaves))
                    << "trial " << t << " node " << n << " cut " << i;
                EXPECT_EQ(got[i].function, exp[i].function)
                    << "trial " << t << " node " << n << " cut " << i;
            }
        }
    }
}

TEST(KernelOracle, MffcAndGainMatchTheReferenceOnRewriteCuts) {
    util::Rng rng(202);
    std::vector<int> mffc, want_mffc;
    std::vector<Lit> mapped;
    int checked = 0;
    for (int t = 0; t < 25; ++t) {
        const Aig aig = random_aig(rng.uniform_int(3, 8), rng.uniform_int(10, 90), rng,
                                   rng.uniform_int(1, 4));
        std::vector<int> refs = aig.reference_counts();
        const std::vector<int> refs_before = refs;
        const net::CutSet cuts(aig, net::CutParams{});
        for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
            if (refs[static_cast<std::size_t>(n)] == 0) continue;
            for (const net::Cut& cut : cuts.cuts_of(n)) {
                if (cut.size() == 1 && cut.leaves()[0] == n) continue;
                const std::vector<int> leaves(cut.leaves().begin(), cut.leaves().end());
                const int size = mffc_size(aig, n, cut.leaves(), refs, &mffc);
                EXPECT_EQ(refs, refs_before);
                EXPECT_EQ(size, ref::mffc_size(aig, n, leaves, refs, &want_mffc));
                EXPECT_EQ(mffc, want_mffc);

                const logic::NpnEntry canon = logic::npn_canonize(cut.function);
                const RewriteStructure& entry = rewrite_structure(canon.class_id);
                const logic::NpnRebuildWiring wiring =
                    logic::npn_rebuild_wiring(canon.transform);
                Replacement r;
                r.structure = &entry.structure;
                r.structure_out = entry.out;
                r.structure_order = entry.order;
                r.leaf_of_input.assign(4, -1);
                r.input_negated.assign(4, false);
                for (std::size_t i = 0; i < 4; ++i) {
                    if (wiring.leaf_of_input[i] < cut.size()) {
                        r.leaf_of_input[i] = cut.leaves()[wiring.leaf_of_input[i]];
                        r.input_negated[i] = wiring.leaf_negated[i];
                    }
                }
                EXPECT_EQ(count_new_nodes(aig, r, mffc, mapped),
                          ref::count_new_nodes(aig, r, want_mffc));
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 1000);
}

TEST(KernelOracle, MffcAndGainMatchTheReferenceOnRefactorCones) {
    util::Rng rng(303);
    std::vector<int> mffc, want_mffc;
    std::vector<Lit> mapped;
    int checked = 0;
    for (int t = 0; t < 25; ++t) {
        const Aig aig = random_aig(rng.uniform_int(4, 10), rng.uniform_int(20, 120), rng,
                                   rng.uniform_int(1, 4));
        std::vector<int> refs = aig.reference_counts();
        for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
            if (refs[static_cast<std::size_t>(n)] == 0) continue;
            const std::vector<int> leaves = reconvergence_cut(aig, n, rng.uniform_int(3, 10));
            const int size = mffc_size(aig, n, leaves, refs, &mffc);
            EXPECT_EQ(size, ref::mffc_size(aig, n, leaves, refs, &want_mffc));
            EXPECT_EQ(mffc, want_mffc);

            // A random function over the cone's leaves, wired with random
            // input polarities: hits and misses in the strash table both occur.
            const int k = static_cast<int>(leaves.size());
            logic::TruthTable f(k);
            for (std::uint32_t m = 0; m < f.num_bits(); ++m) f.set_bit(m, rng.coin(0.5));
            Aig structure(k);
            std::vector<Lit> inputs;
            for (int i = 0; i < k; ++i) inputs.push_back(structure.pi(i));
            const Lit out = build_from_tt(f, inputs, &structure);
            const std::vector<int> order = reachable_nodes(structure, out);
            Replacement r;
            r.structure = &structure;
            r.structure_out = out;
            r.structure_order = order;
            r.leaf_of_input = leaves;
            for (int i = 0; i < k; ++i) r.input_negated.push_back(rng.coin(0.3));
            EXPECT_EQ(count_new_nodes(aig, r, mffc, mapped),
                      ref::count_new_nodes(aig, r, want_mffc));
            ++checked;
        }
    }
    EXPECT_GT(checked, 500);
}

}  // namespace
}  // namespace mvf::synth
