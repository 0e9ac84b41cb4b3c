// Reference oracles for the 4-input tables behind synthesis and mapping:
// the process-wide NPN table (logic/npn.hpp) with the rewrite structures it
// indexes (synth/rewrite.hpp), and the flat match table of a MatchCache
// (map/tech_map.hpp).  Each reference is the per-key algorithm the table
// replaced -- the brute-force canonization loop and the per-key match
// computation -- and every one of the 65 536 keys is diffed against it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "logic/npn.hpp"
#include "map/tech_map.hpp"
#include "net/aig_sim.hpp"
#include "synth/aig_build.hpp"
#include "synth/rewrite.hpp"
#include "util/rng.hpp"

namespace mvf {
namespace {

using logic::NpnEntry;
using logic::NpnTransform;
using tech::CellMatch;
using tech::GateCell;
using tech::GateLibrary;
using tech::MatchCache;

namespace ref {

/// npn_apply minterm by minterm:  result(x) = f(y) ^ out_neg,
/// y_j = x_{perm[j]} ^ neg_j.
std::uint16_t apply(std::uint16_t tt, const NpnTransform& t) {
    std::uint16_t out = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t y = 0;
        for (int j = 0; j < 4; ++j) {
            const std::uint32_t bit =
                ((m >> t.perm[static_cast<std::size_t>(j)]) & 1) ^ ((t.input_neg >> j) & 1);
            y |= bit << j;
        }
        std::uint32_t value = (tt >> y) & 1;
        value ^= t.output_neg ? 1u : 0u;
        out |= static_cast<std::uint16_t>(value << m);
    }
    return out;
}

/// Brute-force canonization: the first transform, in (permutation, input
/// negation, output negation) order, reaching the minimum table.  It
/// applies transforms with logic::npn_apply, which
/// ApplyMatchesTheMintermLoop diffs against ref::apply, so that all 65 536
/// keys take well under a second.
NpnEntry canonize(std::uint16_t tt) {
    NpnEntry best;
    best.canon = 0xffff;
    bool first = true;
    for (const auto& perm : logic::npn_permutations()) {
        for (std::uint8_t neg = 0; neg < 16; ++neg) {
            for (int out_neg = 0; out_neg < 2; ++out_neg) {
                const NpnTransform t{perm, neg, out_neg != 0};
                const std::uint16_t candidate = logic::npn_apply(tt, t);
                if (first || candidate < best.canon) {
                    best.canon = candidate;
                    best.transform = t;
                    first = false;
                }
            }
        }
    }
    return best;
}

/// Cell function with pin p on cut variable vars[p], negated per neg_mask.
std::uint16_t realize_tt(const logic::TruthTable& cell_fn, int num_pins,
                         const std::array<std::uint8_t, 4>& vars, std::uint32_t neg_mask) {
    std::uint16_t out = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t pins = 0;
        for (int p = 0; p < num_pins; ++p) {
            const std::uint32_t bit =
                ((m >> vars[static_cast<std::size_t>(p)]) & 1) ^ ((neg_mask >> p) & 1);
            pins |= bit << p;
        }
        if (cell_fn.bit(pins)) out |= static_cast<std::uint16_t>(1u << m);
    }
    return out;
}

/// Per-key match computation: for every cell with as many pins as `tt` has
/// support variables, every permutation of the support and every pin
/// negation mask.  A cell whose on-set is not as large as tt's (pin
/// permutations and negations are bijections) is skipped first, which
/// keeps the 65 536-key diff fast and changes no result.
std::vector<CellMatch> matches(const GateLibrary& lib, std::uint16_t tt) {
    std::vector<CellMatch> result;
    const std::vector<int> support = tech::tt16_support(tt, 4);
    const int k = static_cast<int>(support.size());
    for (int cell_id = 0; cell_id < lib.num_cells(); ++cell_id) {
        const GateCell& cell = lib.cell(cell_id);
        if (cell.num_inputs != k || k == 0) continue;
        int on_set = 0;
        for (std::uint32_t p = 0; p < (1u << k); ++p) on_set += cell.function.bit(p) ? 1 : 0;
        if (on_set << (4 - k) != std::popcount(tt)) continue;
        std::vector<int> perm(support.begin(), support.end());
        do {
            std::array<std::uint8_t, 4> vars{};
            for (int p = 0; p < k; ++p) {
                vars[static_cast<std::size_t>(p)] =
                    static_cast<std::uint8_t>(perm[static_cast<std::size_t>(p)]);
            }
            for (std::uint32_t neg = 0; neg < (1u << k); ++neg) {
                if (realize_tt(cell.function, k, vars, neg) == tt) {
                    CellMatch m;
                    m.cell_id = cell_id;
                    for (int p = 0; p < k; ++p) {
                        m.pin_leaf_pos[static_cast<std::size_t>(p)] =
                            vars[static_cast<std::size_t>(p)];
                        m.pin_neg[static_cast<std::size_t>(p)] = (neg >> p) & 1;
                    }
                    result.push_back(m);
                }
            }
        } while (std::next_permutation(perm.begin(), perm.end()));
    }
    return result;
}

/// The rewrite structure of a canonical function, built on its own.
synth::RewriteStructure structure(std::uint16_t canon) {
    logic::TruthTable f(4);
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((canon >> m) & 1) f.set_bit(m, true);
    }
    synth::RewriteStructure s;
    const std::array<net::Lit, 4> inputs{s.structure.pi(0), s.structure.pi(1),
                                         s.structure.pi(2), s.structure.pi(3)};
    s.out = synth::build_from_tt(f, inputs, &s.structure);
    s.structure.add_po(s.out);
    s.num_ands = s.structure.count_live_ands();
    return s;
}

}  // namespace ref

void expect_same_matches(std::span<const CellMatch> got, const std::vector<CellMatch>& want,
                         std::uint16_t tt) {
    ASSERT_EQ(got.size(), want.size()) << "tt " << tt;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].cell_id, want[i].cell_id) << "tt " << tt << " match " << i;
        EXPECT_EQ(got[i].pin_leaf_pos, want[i].pin_leaf_pos) << "tt " << tt << " match " << i;
        EXPECT_EQ(got[i].pin_neg, want[i].pin_neg) << "tt " << tt << " match " << i;
    }
}

logic::TruthTable table_of(int num_vars, std::uint32_t bits) {
    logic::TruthTable t(num_vars);
    for (std::uint32_t m = 0; m < (1u << num_vars); ++m) t.set_bit(m, (bits >> m) & 1);
    return t;
}

/// Cells the standard library lacks: XOR, a mux, AOI21, a 4-pin cell that
/// ignores its last pin (never a match), and a second NAND2 (ties).
GateLibrary unusual_library() {
    GateLibrary lib;
    lib.add_cell({"INV", 1, 0.67, table_of(1, 0b01)});
    lib.add_cell({"XOR2", 2, 2.0, table_of(2, 0b0110)});
    lib.add_cell({"NAND2", 2, 1.0, table_of(2, 0b0111)});
    lib.add_cell({"MUX2", 3, 2.3, table_of(3, 0xca)});        // p2 ? p1 : p0
    lib.add_cell({"AOI21", 3, 1.3, table_of(3, 0x07)});       // !((p0 & p1) | p2)
    lib.add_cell({"AND3X", 4, 1.7, table_of(4, 0x8080)});     // p0 & p1 & p2
    lib.add_cell({"NAND2B", 2, 1.1, table_of(2, 0b0111)});
    return lib;
}

TEST(TableOracle, ApplyMatchesTheMintermLoop) {
    util::Rng rng(3);
    std::vector<std::uint16_t> tables{0x0000, 0xffff, 0x8000, 0x6996, 0x8888, 0x1234};
    for (int i = 0; i < 400; ++i) tables.push_back(static_cast<std::uint16_t>(rng.next_u64()));
    for (const std::uint16_t tt : tables) {
        for (const auto& perm : logic::npn_permutations()) {
            for (std::uint8_t neg = 0; neg < 16; ++neg) {
                for (const bool out_neg : {false, true}) {
                    const NpnTransform t{perm, neg, out_neg};
                    ASSERT_EQ(logic::npn_apply(tt, t), ref::apply(tt, t))
                        << "tt " << tt << " neg " << int(neg) << " out " << out_neg;
                }
            }
        }
    }
}

TEST(TableOracle, NpnTableMatchesBruteForceOnEveryKey) {
    const std::span<const std::uint16_t> classes = logic::npn_classes();
    ASSERT_EQ(classes.size(), 222u);
    EXPECT_TRUE(std::is_sorted(classes.begin(), classes.end()));
    for (std::uint32_t key = 0; key < (1u << 16); ++key) {
        const auto tt = static_cast<std::uint16_t>(key);
        const NpnEntry got = logic::npn_canonize(tt);
        const NpnEntry want = ref::canonize(tt);
        ASSERT_EQ(got.canon, want.canon) << "tt " << key;
        ASSERT_EQ(got.transform.perm, want.transform.perm) << "tt " << key;
        ASSERT_EQ(got.transform.input_neg, want.transform.input_neg) << "tt " << key;
        ASSERT_EQ(got.transform.output_neg, want.transform.output_neg) << "tt " << key;
        ASSERT_EQ(classes[got.class_id], got.canon) << "tt " << key;
    }
}

TEST(TableOracle, MatchTableMatchesPerKeyComputationOnEveryKey) {
    for (const GateLibrary& lib : {GateLibrary::standard(), unusual_library()}) {
        MatchCache cache(lib);
        std::size_t total = 0;
        for (std::uint32_t key = 0; key < (1u << 16); ++key) {
            const auto tt = static_cast<std::uint16_t>(key);
            const std::vector<CellMatch> want = ref::matches(lib, tt);
            expect_same_matches(cache.matches(tt), want, tt);
            total += want.size();
            if (HasFatalFailure()) return;
        }
        EXPECT_EQ(cache.table().cells.size(), total);
    }
}

TEST(SharedCaches, ConcurrentLookupsMatchSerial) {
    // The NPN table and the rewrite structures are process-wide, and every
    // pin-search worker maps through one MatchCache.  Four threads race
    // their first use (each starting at a different key), and every answer
    // is checked against a serial computation.
    std::vector<std::uint16_t> keys;
    for (std::uint32_t tt = 0; tt < (1u << 16); tt += 97) {
        keys.push_back(static_cast<std::uint16_t>(tt));
    }
    MatchCache shared_match(GateLibrary::standard());
    constexpr int kThreads = 4;
    struct Seen {
        const synth::RewriteStructure* entry = nullptr;
        std::span<const CellMatch> matches;
        NpnEntry npn;
    };
    std::vector<std::vector<Seen>> seen(kThreads, std::vector<Seen>(keys.size()));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 2; ++round) {
                for (std::size_t j = 0; j < keys.size(); ++j) {
                    const std::size_t k = (j + t * keys.size() / kThreads) % keys.size();
                    Seen& s = seen[static_cast<std::size_t>(t)][k];
                    s.npn = logic::npn_canonize(keys[k]);
                    s.entry = &synth::rewrite_structure(s.npn.class_id);
                    s.matches = shared_match.matches(keys[k]);
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();

    MatchCache serial_match(GateLibrary::standard());
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const NpnEntry want = ref::canonize(keys[k]);
        const synth::RewriteStructure want_entry = ref::structure(want.canon);
        const std::span<const CellMatch> want_matches = serial_match.matches(keys[k]);
        for (int t = 0; t < kThreads; ++t) {
            const Seen& s = seen[static_cast<std::size_t>(t)][k];
            EXPECT_EQ(s.npn.canon, want.canon);
            EXPECT_EQ(s.npn.transform.perm, want.transform.perm);
            EXPECT_EQ(s.npn.transform.input_neg, want.transform.input_neg);
            EXPECT_EQ(s.npn.transform.output_neg, want.transform.output_neg);
            // One object per key, seen by every thread.
            EXPECT_EQ(s.entry, seen[0][k].entry);
            EXPECT_EQ(s.matches.data(), seen[0][k].matches.data());
            EXPECT_EQ(s.matches.size(), seen[0][k].matches.size());
            EXPECT_EQ(s.entry->num_ands, want_entry.num_ands);
            EXPECT_EQ(s.entry->out, want_entry.out);
            EXPECT_EQ(net::simulate_full(s.entry->structure),
                      net::simulate_full(want_entry.structure));
            expect_same_matches(s.matches,
                                std::vector<CellMatch>(want_matches.begin(),
                                                       want_matches.end()),
                                keys[k]);
        }
    }
}

}  // namespace
}  // namespace mvf
