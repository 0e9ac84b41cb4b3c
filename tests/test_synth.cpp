// Equivalence and size properties of the synthesis passes.

#include <gtest/gtest.h>

#include "logic/npn.hpp"
#include "net/aig_sim.hpp"
#include "sbox/sbox_data.hpp"
#include "synth/aig_build.hpp"
#include "synth/balance.hpp"
#include "synth/optimize.hpp"
#include "synth/refactor.hpp"
#include "synth/replace.hpp"
#include "synth/rewrite.hpp"
#include "util/rng.hpp"

namespace mvf::synth {
namespace {

using logic::TruthTable;
using net::Aig;
using net::Lit;

Aig random_aig(int num_pis, int num_nodes, util::Rng& rng, int num_pos = 2) {
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

TEST(AigBuild, FromTruthTableIsExact) {
    util::Rng rng(2);
    for (int n = 1; n <= 8; ++n) {
        for (int t = 0; t < 10; ++t) {
            TruthTable f(n);
            for (std::uint32_t m = 0; m < f.num_bits(); ++m) {
                if (rng.coin(0.5)) f.set_bit(m, true);
            }
            Aig aig(n);
            std::vector<Lit> inputs;
            for (int i = 0; i < n; ++i) inputs.push_back(aig.pi(i));
            aig.add_po(build_from_tt(f, inputs, &aig));
            EXPECT_EQ(net::simulate_full(aig)[0], f) << "n=" << n;
        }
    }
}

TEST(AigBuild, MuxTreeSelectsCorrectInput) {
    Aig aig(6);  // 4 data + 2 selects
    std::vector<Lit> data{aig.pi(0), aig.pi(1), aig.pi(2), aig.pi(3)};
    std::vector<Lit> sel{aig.pi(4), aig.pi(5)};
    aig.add_po(build_mux_tree(sel, data, &aig));
    const TruthTable out = net::simulate_full(aig)[0];
    for (std::uint32_t m = 0; m < 64; ++m) {
        const int code = static_cast<int>((m >> 4) & 3);
        EXPECT_EQ(out.bit(m), ((m >> code) & 1) != 0);
    }
}

TEST(Balance, PreservesFunction) {
    util::Rng rng(3);
    for (int t = 0; t < 30; ++t) {
        const Aig aig = random_aig(6, 60, rng);
        const Aig balanced = balance(aig);
        EXPECT_EQ(net::simulate_full(aig), net::simulate_full(balanced));
    }
}

TEST(Balance, ReducesDepthOfChain) {
    // A long AND chain must become a log-depth tree.
    Aig aig(8);
    Lit acc = aig.pi(0);
    for (int i = 1; i < 8; ++i) acc = aig.and2(acc, aig.pi(i));
    aig.add_po(acc);
    const auto depth_of = [](const Aig& a) {
        int d = 0;
        const auto lv = a.levels();
        for (int i = 0; i < a.num_pos(); ++i) {
            d = std::max(d, lv[static_cast<std::size_t>(Aig::lit_node(a.po(i)))]);
        }
        return d;
    };
    EXPECT_EQ(depth_of(aig), 7);
    const Aig b = balance(aig);
    EXPECT_EQ(depth_of(b), 3);
    EXPECT_EQ(net::simulate_full(aig), net::simulate_full(b));
}

TEST(Replace, MffcOfPrivateConeIsWholeConeSize) {
    Aig aig(4);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    const Lit y = aig.and2(aig.pi(2), aig.pi(3));
    const Lit z = aig.and2(x, y);
    aig.add_po(z);
    std::vector<int> refs = aig.reference_counts();
    std::vector<int> leaves{1, 2, 3, 4};
    const int size = mffc_size(aig, Aig::lit_node(z), leaves, refs);
    EXPECT_EQ(size, 3);
    // Reference counts restored.
    EXPECT_EQ(refs, aig.reference_counts());
}

TEST(Replace, MffcStopsAtSharedNodes) {
    Aig aig(4);
    const Lit x = aig.and2(aig.pi(0), aig.pi(1));
    const Lit z = aig.and2(x, aig.pi(2));
    aig.add_po(z);
    aig.add_po(x);  // x shared with another output
    std::vector<int> refs = aig.reference_counts();
    std::vector<int> leaves{1, 2, 3};
    EXPECT_EQ(mffc_size(aig, Aig::lit_node(z), leaves, refs), 1);
}

TEST(Rewrite, PreservesFunctionOnRandomGraphs) {
    util::Rng rng(5);
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(6, 80, rng);
        const auto before = net::simulate_full(aig);
        rewrite(&aig);
        EXPECT_EQ(before, net::simulate_full(aig)) << "trial " << t;
    }
}

TEST(Rewrite, NeverIncreasesSize) {
    util::Rng rng(7);
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(6, 80, rng);
        const int before = aig.count_live_ands();
        rewrite(&aig);
        EXPECT_LE(aig.count_live_ands(), before);
    }
}

TEST(Rewrite, CollapsesRedundantStructure) {
    // f = (a & b) & (a & (b & c)) == a & b & c: rewriting should shrink it.
    Aig aig(3);
    const Lit ab = aig.and2(aig.pi(0), aig.pi(1));
    const Lit bc = aig.and2(aig.pi(1), aig.pi(2));
    const Lit abc = aig.and2(aig.pi(0), bc);
    aig.add_po(aig.and2(ab, abc));
    rewrite(&aig);
    EXPECT_LE(aig.count_live_ands(), 2);
    const TruthTable want = TruthTable::var(0, 3) & TruthTable::var(1, 3) &
                            TruthTable::var(2, 3);
    EXPECT_EQ(net::simulate_full(aig)[0], want);
}

TEST(Refactor, PreservesFunctionOnRandomGraphs) {
    util::Rng rng(11);
    for (int t = 0; t < 20; ++t) {
        Aig aig = random_aig(8, 100, rng);
        const auto before = net::simulate_full(aig);
        refactor(&aig);
        EXPECT_EQ(before, net::simulate_full(aig)) << "trial " << t;
    }
}

TEST(Refactor, ReconvergenceCutIsAValidCut) {
    util::Rng rng(13);
    const Aig aig = random_aig(6, 50, rng, 1);
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        const std::vector<int> leaves = reconvergence_cut(aig, n, 8);
        EXPECT_LE(static_cast<int>(leaves.size()), 8);
        // The cone must evaluate without escaping the leaves (would assert).
        const TruthTable t =
            net::evaluate_cone(aig, Aig::make_lit(n, false), leaves);
        EXPECT_EQ(t.num_vars(), static_cast<int>(leaves.size()));
    }
}

TEST(Optimize, SboxCircuitsShrinkAndStayCorrect) {
    for (int idx : {0, 5, 11}) {
        const sbox::Sbox& s = sbox::leander_poschmann_16()[static_cast<std::size_t>(idx)];
        Aig aig(4);
        std::vector<Lit> inputs;
        for (int i = 0; i < 4; ++i) inputs.push_back(aig.pi(i));
        for (int j = 0; j < 4; ++j) {
            aig.add_po(build_from_tt(s.output_tt(j), inputs, &aig));
        }
        const auto before = net::simulate_full(aig);
        const int size_before = aig.count_live_ands();
        optimize(&aig, Effort::kDefault);
        EXPECT_LE(aig.count_live_ands(), size_before);
        EXPECT_EQ(before, net::simulate_full(aig)) << s.name;
    }
}

TEST(Optimize, NeverReturnsWorseThanInput) {
    // optimize() keeps a best-seen snapshot, so even the perturbing kHigh
    // effort can never hand back a larger network than it was given.
    util::Rng rng(23);
    for (int t = 0; t < 10; ++t) {
        Aig aig = random_aig(6, 90, rng);
        const int before = aig.count_live_ands();
        for (const Effort e : {Effort::kFast, Effort::kDefault, Effort::kHigh}) {
            Aig copy = aig;
            optimize(&copy, e);
            EXPECT_LE(copy.num_ands(), before) << "effort " << static_cast<int>(e);
        }
    }
}

TEST(Optimize, EffortLevelsAllPreserveFunction) {
    util::Rng rng(17);
    for (const Effort e : {Effort::kFast, Effort::kDefault, Effort::kHigh}) {
        Aig aig = random_aig(7, 120, rng);
        const auto before = net::simulate_full(aig);
        optimize(&aig, e);
        EXPECT_EQ(before, net::simulate_full(aig));
    }
}

// Property sweep: rewriting all 4-var functions built from ISOP is exact.
class RewriteAllNpnClasses : public ::testing::TestWithParam<int> {};

TEST_P(RewriteAllNpnClasses, StructureLibraryIsExact) {
    // Sample the 16-bit function space in strides.
    for (std::uint32_t tt = static_cast<std::uint32_t>(GetParam()); tt < 0x10000;
         tt += 64) {
        const logic::NpnEntry npn = logic::npn_canonize(static_cast<std::uint16_t>(tt));
        const std::uint16_t canon = npn.canon;
        const RewriteStructure& e = rewrite_structure(npn.class_id);
        const auto outs = net::simulate_full(e.structure);
        for (std::uint32_t m = 0; m < 16; ++m) {
            EXPECT_EQ(outs[0].bit(m), ((canon >> m) & 1) != 0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Strided, RewriteAllNpnClasses, ::testing::Range(0, 64, 8));

}  // namespace
}  // namespace mvf::synth
