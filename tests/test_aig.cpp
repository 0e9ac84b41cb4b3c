// Tests for the AIG manager, simulation, and cut enumeration.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "net/aig.hpp"
#include "net/aig_sim.hpp"
#include "net/cuts.hpp"
#include "util/rng.hpp"

namespace mvf::net {
namespace {

using logic::TruthTable;

TEST(Aig, ConstantFolding) {
    Aig aig(2);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    EXPECT_EQ(aig.and2(Aig::kConst0, a), Aig::kConst0);
    EXPECT_EQ(aig.and2(a, Aig::kConst0), Aig::kConst0);
    EXPECT_EQ(aig.and2(Aig::kConst1, b), b);
    EXPECT_EQ(aig.and2(a, a), a);
    EXPECT_EQ(aig.and2(a, Aig::lit_not(a)), Aig::kConst0);
    EXPECT_EQ(aig.num_ands(), 0);
}

TEST(Aig, StructuralHashingSharesNodes) {
    Aig aig(2);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    const Lit x = aig.and2(a, b);
    const Lit y = aig.and2(b, a);  // commuted
    EXPECT_EQ(x, y);
    EXPECT_EQ(aig.num_ands(), 1);
    const Lit z = aig.and2(Aig::lit_not(a), b);
    EXPECT_NE(x, z);
    EXPECT_EQ(aig.num_ands(), 2);
}

TEST(Aig, LookupAndDoesNotCreate) {
    Aig aig(2);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    EXPECT_EQ(aig.lookup_and(a, b), Aig::kNoLit);
    const Lit x = aig.and2(a, b);
    EXPECT_EQ(aig.lookup_and(a, b), x);
    EXPECT_EQ(aig.lookup_and(b, a), x);
    EXPECT_EQ(aig.num_ands(), 1);
}

TEST(Aig, XorMuxSemantics) {
    Aig aig(3);
    const Lit a = aig.pi(0);
    const Lit b = aig.pi(1);
    const Lit s = aig.pi(2);
    aig.add_po(aig.xor2(a, b));
    aig.add_po(aig.mux(s, a, b));
    const auto tts = simulate_full(aig);
    EXPECT_EQ(tts[0], TruthTable::var(0, 3) ^ TruthTable::var(1, 3));
    const TruthTable sel = TruthTable::var(2, 3);
    EXPECT_EQ(tts[1], (sel & TruthTable::var(0, 3)) | (~sel & TruthTable::var(1, 3)));
}

TEST(Aig, AndOrManyOverEmptyAndSingle) {
    Aig aig(1);
    EXPECT_EQ(aig.and_many({}), Aig::kConst1);
    EXPECT_EQ(aig.or_many({}), Aig::kConst0);
    const std::vector<Lit> one{aig.pi(0)};
    EXPECT_EQ(aig.and_many(one), aig.pi(0));
}

TEST(Aig, ReferenceCountsIncludePos) {
    Aig aig(2);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    aig.add_po(x);
    aig.add_po(x);
    const auto refs = aig.reference_counts();
    EXPECT_EQ(refs[static_cast<std::size_t>(Aig::lit_node(x))], 2);
    EXPECT_EQ(refs[1], 1);  // pi0 feeds one AND
}

TEST(Aig, LevelsAreDepths) {
    Aig aig(3);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    const Lit y = aig.and2(x, aig.pi(2));
    const auto lv = aig.levels();
    EXPECT_EQ(lv[static_cast<std::size_t>(Aig::lit_node(x))], 1);
    EXPECT_EQ(lv[static_cast<std::size_t>(Aig::lit_node(y))], 2);
}

TEST(Aig, CleanupDropsDeadNodes) {
    Aig aig(3);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    aig.and2(aig.pi(1), aig.pi(2));  // dead
    aig.add_po(Aig::lit_not(x));
    EXPECT_EQ(aig.num_ands(), 2);
    EXPECT_EQ(aig.count_live_ands(), 1);
    const Aig clean = aig.cleanup();
    EXPECT_EQ(clean.num_ands(), 1);
    const auto before = simulate_full(aig);
    const auto after = simulate_full(clean);
    EXPECT_EQ(before[0], after[0]);
}

// Random AIG generator shared by several test files via this pattern.
Aig random_aig(int num_pis, int num_nodes, util::Rng& rng, int num_pos = 2) {
    Aig aig(num_pis);
    std::vector<Lit> pool;
    for (int i = 0; i < num_pis; ++i) pool.push_back(aig.pi(i));
    for (int i = 0; i < num_nodes; ++i) {
        const Lit a = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        const Lit b = pool[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
        const Lit an = rng.coin(0.5) ? Aig::lit_not(a) : a;
        const Lit bn = rng.coin(0.5) ? Aig::lit_not(b) : b;
        pool.push_back(aig.and2(an, bn));
    }
    for (int i = 0; i < num_pos; ++i) {
        const Lit po = pool[pool.size() - 1 - static_cast<std::size_t>(i) % pool.size()];
        aig.add_po(rng.coin(0.5) ? Aig::lit_not(po) : po);
    }
    return aig;
}

TEST(Aig, CleanupPreservesFunctionOnRandomGraphs) {
    util::Rng rng(3);
    for (int t = 0; t < 20; ++t) {
        const Aig aig = random_aig(5, 40, rng);
        const Aig clean = aig.cleanup();
        EXPECT_EQ(simulate_full(aig), simulate_full(clean));
        EXPECT_LE(clean.num_ands(), aig.num_ands());
    }
}

TEST(AigSim, EvaluateConeMatchesProjection) {
    util::Rng rng(5);
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(4, 25, rng, 1);
        const Lit po = aig.po(0);
        if (!aig.is_and(Aig::lit_node(po))) continue;
        std::vector<int> leaves;
        for (int i = 0; i < 4; ++i) leaves.push_back(i + 1);  // all PIs
        const TruthTable cone = evaluate_cone(aig, po, leaves);
        EXPECT_EQ(cone, simulate_full(aig)[0]);
    }
}

TEST(AigSim, SimulateComposesPiFunctions) {
    Aig aig(2);
    aig.add_po(aig.and2(aig.pi(0), aig.pi(1)));
    // Bind PI0 = x0^x1, PI1 = x2 in a 3-var space.
    std::vector<TruthTable> pis{TruthTable::var(0, 3) ^ TruthTable::var(1, 3),
                                TruthTable::var(2, 3)};
    const auto out = simulate(aig, pis);
    EXPECT_EQ(out[0], (TruthTable::var(0, 3) ^ TruthTable::var(1, 3)) &
                          TruthTable::var(2, 3));
}

TEST(Cuts, TrivialAndBaseCutsExist) {
    Aig aig(2);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    aig.add_po(x);
    const CutSet cuts(aig, CutParams{});
    const auto& node_cuts = cuts.cuts_of(Aig::lit_node(x));
    ASSERT_GE(node_cuts.size(), 2u);
    bool has_base = false;
    bool has_trivial = false;
    for (const Cut& c : node_cuts) {
        if (std::ranges::equal(c.leaves(), std::vector<int>{1, 2})) has_base = true;
        if (std::ranges::equal(c.leaves(), std::vector<int>{Aig::lit_node(x)})) {
            has_trivial = true;
        }
    }
    EXPECT_TRUE(has_base);
    EXPECT_TRUE(has_trivial);
}

TEST(Cuts, CutFunctionsMatchConeEvaluation) {
    util::Rng rng(9);
    for (int t = 0; t < 15; ++t) {
        const Aig aig = random_aig(5, 30, rng, 1);
        const CutSet cuts(aig, CutParams{4, 8, true});
        for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
            for (const Cut& c : cuts.cuts_of(n)) {
                if (c.size() == 1 && c.leaves()[0] == n) continue;  // trivial
                const TruthTable cone =
                    evaluate_cone(aig, Aig::make_lit(n, false), c.leaves());
                // Compare against the 16-bit cut function restricted to the
                // cut arity.
                for (std::uint32_t m = 0; m < cone.num_bits(); ++m) {
                    EXPECT_EQ(cone.bit(m), ((c.function >> m) & 1) != 0)
                        << "node " << n << " cut size " << c.size();
                }
            }
        }
    }
}

TEST(Cuts, RejectsParametersOutsideTheKernelRange) {
    Aig aig(3);
    aig.add_po(aig.and2(aig.and2(aig.pi(0), aig.pi(1)), aig.pi(2)));
    EXPECT_THROW(CutSet(aig, CutParams{0, 8, true}), std::invalid_argument);
    EXPECT_THROW(CutSet(aig, CutParams{Cut::kMaxLeaves + 1, 8, true}),
                 std::invalid_argument);
    EXPECT_THROW(CutSet(aig, CutParams{4, 0, true}), std::invalid_argument);
    EXPECT_THROW(CutSet(aig, CutParams{4, -1, true}), std::invalid_argument);
    EXPECT_NO_THROW(CutSet(aig, CutParams{1, 1, true}));
    EXPECT_NO_THROW(CutSet(aig, CutParams{Cut::kMaxLeaves, 1, false}));
}

TEST(Cuts, RespectsLeafLimit) {
    util::Rng rng(11);
    const Aig aig = random_aig(8, 60, rng, 1);
    const CutParams params{3, 6, true};
    const CutSet cuts(aig, params);
    for (int n = 0; n < aig.num_nodes(); ++n) {
        for (const Cut& c : cuts.cuts_of(n)) {
            EXPECT_LE(c.size(), 3);
        }
    }
}

}  // namespace
}  // namespace mvf::net
