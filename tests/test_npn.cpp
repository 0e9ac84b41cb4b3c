// Tests for exact NPN canonization of 4-variable functions.

#include <gtest/gtest.h>

#include <set>

#include "logic/npn.hpp"
#include "util/rng.hpp"

namespace mvf::logic {
namespace {

TEST(Npn, PermutationTableComplete) {
    const auto& perms = npn_permutations();
    std::set<std::array<std::uint8_t, 4>> unique(perms.begin(), perms.end());
    EXPECT_EQ(unique.size(), 24u);
}

TEST(Npn, ApplyIdentityIsIdentity) {
    NpnTransform id;
    for (std::uint32_t tt = 0; tt < 0x10000; tt += 257) {
        EXPECT_EQ(npn_apply(static_cast<std::uint16_t>(tt), id), tt);
    }
}

TEST(Npn, ApplyOutputNegationComplements) {
    NpnTransform t;
    t.output_neg = true;
    EXPECT_EQ(npn_apply(0x8000, t), static_cast<std::uint16_t>(~0x8000));
}

TEST(Npn, ApplyInputNegationOnAnd2) {
    // f = x0 & x1 (tt 0x8888... over 4 vars: minterms with bits0,1 set).
    std::uint16_t and2 = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((m & 3) == 3) and2 |= static_cast<std::uint16_t>(1u << m);
    }
    NpnTransform t;
    t.input_neg = 1;  // negate input 0:  g(x) = f(!x0, x1) = !x0 & x1
    std::uint16_t expected = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if (((m & 1) == 0) && ((m & 2) != 0)) expected |= static_cast<std::uint16_t>(1u << m);
    }
    EXPECT_EQ(npn_apply(and2, t), expected);
}

TEST(Npn, CanonIsInvariantUnderRandomTransforms) {
    util::Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        NpnTransform t;
        t.perm = npn_permutations()[static_cast<std::size_t>(rng.uniform_int(0, 23))];
        t.input_neg = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
        t.output_neg = rng.coin(0.5);
        const std::uint16_t variant = npn_apply(tt, t);
        EXPECT_EQ(npn_canonize(tt).canon, npn_canonize(variant).canon)
            << "tt=" << tt;
    }
}

TEST(Npn, TransformReachesCanon) {
    util::Rng rng(11);
    for (int trial = 0; trial < 300; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        const NpnEntry e = npn_canonize(tt);
        EXPECT_EQ(npn_apply(tt, e.transform), e.canon);
    }
}

TEST(Npn, RebuildWiringInvertsTransform) {
    // original(z) = canon(x)^out_neg with x_i = z_{leaf_of_input[i]} ^ neg.
    util::Rng rng(13);
    for (int trial = 0; trial < 300; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        const NpnEntry e = npn_canonize(tt);
        const NpnRebuildWiring w = npn_rebuild_wiring(e.transform);

        std::uint16_t rebuilt = 0;
        for (std::uint32_t z = 0; z < 16; ++z) {
            std::uint32_t x = 0;
            for (int i = 0; i < 4; ++i) {
                std::uint32_t bit = (z >> w.leaf_of_input[static_cast<std::size_t>(i)]) & 1;
                if (w.leaf_negated[static_cast<std::size_t>(i)]) bit ^= 1;
                x |= bit << i;
            }
            std::uint32_t v = (e.canon >> x) & 1;
            if (w.output_neg) v ^= 1;
            rebuilt |= static_cast<std::uint16_t>(v << z);
        }
        EXPECT_EQ(rebuilt, tt);
    }
}

TEST(Npn, KnownClassCountForAllFourVarFunctions) {
    // The number of NPN equivalence classes of 4-variable Boolean functions
    // is a known constant: 222.
    std::set<std::uint16_t> classes;
    for (std::uint32_t tt = 0; tt < 0x10000; ++tt) {
        classes.insert(npn_canonize(static_cast<std::uint16_t>(tt)).canon);
    }
    EXPECT_EQ(classes.size(), 222u);
}

TEST(Npn, CanonIsMinimal) {
    util::Rng rng(17);
    for (int trial = 0; trial < 20; ++trial) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        const std::uint16_t canon = npn_canonize(tt).canon;
        EXPECT_LE(canon, tt);
        // Canon of canon is itself.
        EXPECT_EQ(npn_canonize(canon).canon, canon);
    }
}

TEST(Npn, ConstantsAndProjections) {
    EXPECT_EQ(npn_canonize(0x0000).canon, 0x0000);
    // Constant 1 negates to constant 0.
    EXPECT_EQ(npn_canonize(0xffff).canon, 0x0000);
    // All single-variable projections share one class.
    const std::uint16_t x0 = 0xaaaa;
    const std::uint16_t x3 = 0xff00;
    EXPECT_EQ(npn_canonize(x0).canon, npn_canonize(x3).canon);
    EXPECT_EQ(npn_canonize(static_cast<std::uint16_t>(~x0)).canon,
              npn_canonize(x3).canon);
}

}  // namespace
}  // namespace mvf::logic
