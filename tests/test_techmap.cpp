// Tests for the gate library and the structural technology mapper.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "map/tech_map.hpp"
#include "net/aig_sim.hpp"
#include "util/stats.hpp"
#include "sbox/sbox_data.hpp"
#include "sim/netlist_sim.hpp"
#include "synth/aig_build.hpp"
#include "util/rng.hpp"

namespace mvf::tech {
namespace {

using logic::TruthTable;
using net::Aig;
using net::Lit;

TEST(GateLibrary, StandardContentsAndAreas) {
    const GateLibrary lib = GateLibrary::standard();
    EXPECT_EQ(lib.num_cells(), 14);
    EXPECT_DOUBLE_EQ(lib.cell(lib.find("NAND2")).area, 1.00);
    EXPECT_DOUBLE_EQ(lib.inv_area(), 0.67);
    EXPECT_EQ(lib.find("NAND5"), -1);
    // Functions: NAND3 is the complement of AND3.
    const GateCell& nand3 = lib.cell(lib.find("NAND3"));
    const GateCell& and3 = lib.cell(lib.find("AND3"));
    EXPECT_EQ(~nand3.function, and3.function);
    for (int i = 0; i < lib.num_cells(); ++i) {
        EXPECT_EQ(lib.cell(i).function.num_vars(), lib.cell(i).num_inputs);
        EXPECT_GT(lib.cell(i).area, 0.0);
    }
}

TEST(MatchCache, MatchesRealizeTheFunction) {
    MatchCache cache(GateLibrary::standard());
    util::Rng rng(3);
    for (int t = 0; t < 200; ++t) {
        const auto tt = static_cast<std::uint16_t>(rng.next_u64());
        for (const CellMatch& m : cache.matches(tt)) {
            const GateCell& cell = cache.library().cell(m.cell_id);
            // Re-evaluate the realization and compare to tt.
            std::uint16_t got = 0;
            for (std::uint32_t x = 0; x < 16; ++x) {
                std::uint32_t pins = 0;
                for (int p = 0; p < cell.num_inputs; ++p) {
                    std::uint32_t bit =
                        (x >> m.pin_leaf_pos[static_cast<std::size_t>(p)]) & 1;
                    if (m.pin_neg[static_cast<std::size_t>(p)]) bit ^= 1;
                    pins |= bit << p;
                }
                if (cell.function.bit(pins)) got |= static_cast<std::uint16_t>(1u << x);
            }
            EXPECT_EQ(got, tt);
        }
    }
}

TEST(MatchCache, SimpleFunctionsHaveExpectedMatches) {
    MatchCache cache(GateLibrary::standard());
    // x0 & x1 in the 4-var space.
    std::uint16_t and2 = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((m & 3) == 3) and2 |= static_cast<std::uint16_t>(1u << m);
    }
    bool found_and2 = false;
    bool found_nand_with_negs = false;
    for (const CellMatch& m : cache.matches(and2)) {
        const std::string& name = cache.library().cell(m.cell_id).name;
        if (name == "AND2") found_and2 = true;
        if (name == "NOR2") found_nand_with_negs = true;  // NOR(!a,!b) = a&b
    }
    EXPECT_TRUE(found_and2);
    EXPECT_TRUE(found_nand_with_negs);
    EXPECT_TRUE(cache.matches(0x0000).empty());  // constants: no cell
}

Aig sbox_aig(const sbox::Sbox& s) {
    Aig aig(s.num_inputs);
    std::vector<Lit> inputs;
    for (int i = 0; i < s.num_inputs; ++i) inputs.push_back(aig.pi(i));
    for (int j = 0; j < s.num_outputs; ++j) {
        aig.add_po(synth::build_from_tt(s.output_tt(j), inputs, &aig));
    }
    return aig;
}

TEST(TechMap, PreservesSboxFunctions) {
    MatchCache cache(GateLibrary::standard());
    for (int idx : {0, 3, 7, 15}) {
        const sbox::Sbox& s =
            sbox::leander_poschmann_16()[static_cast<std::size_t>(idx)];
        const Aig aig = sbox_aig(s);
        const Netlist nl = tech_map(aig, cache);
        EXPECT_TRUE(nl.validate());
        const auto aig_out = net::simulate_full(aig);
        const auto nl_out = sim::simulate_full(nl);
        ASSERT_EQ(aig_out.size(), nl_out.size());
        for (std::size_t q = 0; q < aig_out.size(); ++q) {
            EXPECT_EQ(aig_out[q], nl_out[q]) << s.name << " output " << q;
        }
    }
}

TEST(TechMap, PreservesRandomGraphFunctions) {
    MatchCache cache(GateLibrary::standard());
    util::Rng rng(7);
    for (int t = 0; t < 15; ++t) {
        Aig aig(5);
        std::vector<Lit> pool;
        for (int i = 0; i < 5; ++i) pool.push_back(aig.pi(i));
        for (int i = 0; i < 50; ++i) {
            const Lit a = pool[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
            const Lit b = pool[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<int>(pool.size()) - 1))];
            pool.push_back(aig.and2(rng.coin(0.5) ? Aig::lit_not(a) : a,
                                    rng.coin(0.5) ? Aig::lit_not(b) : b));
        }
        aig.add_po(pool.back());
        aig.add_po(Aig::lit_not(pool[pool.size() - 2]));
        const Netlist nl = tech_map(aig, cache);
        EXPECT_EQ(net::simulate_full(aig), sim::simulate_full(nl)) << "trial " << t;
    }
}

TEST(TechMap, AreaIsPlausibleForSboxes) {
    // Leander-Poschmann S-boxes need "around 30 GE" per the paper.
    MatchCache cache(GateLibrary::standard());
    util::RunningStats stats;
    for (const auto& s : sbox::leander_poschmann_16()) {
        const Netlist nl = tech_map(sbox_aig(s), cache);
        stats.add(nl.area());
    }
    EXPECT_GT(stats.mean(), 15.0);
    EXPECT_LT(stats.mean(), 60.0);
}

TEST(TechMap, SelectFlagsPropagate) {
    Aig aig(3);
    aig.add_po(aig.mux(aig.pi(2), aig.pi(0), aig.pi(1)));
    MatchCache cache(GateLibrary::standard());
    const Netlist nl = tech_map(aig, cache, {}, {"a", "b", "s"},
                                {false, false, true});
    EXPECT_EQ(nl.num_pis(), 3);
    EXPECT_EQ(nl.num_selects(), 1);
    EXPECT_EQ(nl.node(nl.pi(2)).name, "s");
    EXPECT_TRUE(nl.node(nl.pi(2)).is_select);
}

TEST(TechMap, ConstantOutputBecomesConstNode) {
    Aig aig(2);
    aig.add_po(Aig::kConst1);
    aig.add_po(Aig::kConst0);
    MatchCache cache(GateLibrary::standard());
    const Netlist nl = tech_map(aig, cache);
    EXPECT_EQ(nl.node(nl.po(0)).kind, Netlist::NodeKind::kConst1);
    EXPECT_EQ(nl.node(nl.po(1)).kind, Netlist::NodeKind::kConst0);
}

TEST(TechMap, PiPassThroughOutput) {
    Aig aig(2);
    aig.add_po(aig.pi(1));
    aig.add_po(Aig::lit_not(aig.pi(0)));
    MatchCache cache(GateLibrary::standard());
    const Netlist nl = tech_map(aig, cache);
    const auto out = sim::simulate_full(nl);
    EXPECT_EQ(out[0], TruthTable::var(1, 2));
    EXPECT_EQ(out[1], ~TruthTable::var(0, 2));
}

TEST(Netlist, FanoutAndAreaAccounting) {
    GateLibrary lib = GateLibrary::standard();
    Netlist nl(lib);
    const int a = nl.add_pi("a");
    const int b = nl.add_pi("b");
    const int g = nl.add_cell(lib.find("NAND2"), {a, b});
    const int h = nl.add_cell(lib.find("INV"), {g});
    nl.add_po(h, "o");
    nl.add_po(g, "o2");
    EXPECT_TRUE(nl.validate());
    EXPECT_DOUBLE_EQ(nl.area(), 1.67);
    EXPECT_EQ(nl.num_cells(), 2);
    const auto fan = nl.fanout_counts();
    EXPECT_EQ(fan[static_cast<std::size_t>(g)], 2);  // INV + PO
    EXPECT_EQ(fan[static_cast<std::size_t>(h)], 1);
}

TEST(Netlist, Tt16SupportHelper) {
    EXPECT_TRUE(tt16_support(0x0000, 4).empty());
    EXPECT_TRUE(tt16_support(0xffff, 4).empty());
    EXPECT_EQ(tt16_support(0xaaaa, 4), (std::vector<int>{0}));
    EXPECT_EQ(tt16_support(0xff00, 4), (std::vector<int>{3}));
    std::uint16_t and01 = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        if ((m & 3) == 3) and01 |= static_cast<std::uint16_t>(1u << m);
    }
    EXPECT_EQ(tt16_support(and01, 4), (std::vector<int>{0, 1}));
}

// ------------------------------------------------- incomplete libraries --

GateLibrary library_of(const std::vector<std::string>& names) {
    const GateLibrary standard = GateLibrary::standard();
    GateLibrary lib;
    for (const std::string& name : names) lib.add_cell(standard.cell(standard.find(name)));
    return lib;
}

Aig small_aig() {
    Aig aig(3);
    aig.add_po(aig.and2(aig.pi(0), Aig::lit_not(aig.and2(aig.pi(1), aig.pi(2)))));
    return aig;
}

void expect_rejected(const GateLibrary& lib, const std::string& reason) {
    MatchCache cache(lib);
    try {
        (void)tech_map(small_aig(), cache);
        ADD_FAILURE() << "library accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)cache.matches(0x8888), std::invalid_argument);
}

TEST(GateLibrary, AddCellRecordsTheInverterAndBuffer) {
    const GateLibrary lib = library_of({"NAND2", "BUF", "INV"});
    EXPECT_EQ(lib.inv_id(), 2);
    EXPECT_EQ(lib.buf_id(), 1);
    EXPECT_DOUBLE_EQ(lib.inv_area(), 0.67);
    EXPECT_EQ(library_of({"NAND2"}).inv_id(), -1);
}

TEST(MatchCache, LibraryBuiltFromScratchMapsCorrectly) {
    MatchCache cache(library_of({"NAND2", "INV"}));
    const Aig aig = small_aig();
    const Netlist nl = tech_map(aig, cache);
    EXPECT_TRUE(nl.validate());
    EXPECT_EQ(net::simulate_full(aig), sim::simulate_full(nl));
}

TEST(MatchCache, RejectsANand2OnlyLibrary) {
    expect_rejected(library_of({"NAND2"}), "no inverter");
}

TEST(MatchCache, RejectsALibraryWithoutAnInverter) {
    expect_rejected(library_of({"BUF", "NAND2", "NOR2", "AND2", "OR2", "NAND3", "AND4"}),
                    "no inverter");
}

TEST(MatchCache, RejectsALibraryThatCannotRealizeAnd2) {
    // AND3 and OR4 need three and four leaves; no cell covers an AND
    // node's two-leaf fanin cut in either phase.
    expect_rejected(library_of({"INV", "BUF", "AND3", "OR4"}), "AND2");
}

TEST(MatchCache, RejectsALibraryTooLargeForTheTable) {
    // 171 four-pin cells may have 171 x 384 matches, over 16-bit offsets.
    std::vector<std::string> names{"INV", "NAND2"};
    names.insert(names.end(), 171, "AND4");
    expect_rejected(library_of(names), "too many cells");
    names.resize(names.size() - 1);
    MatchCache fits(library_of(names));
    EXPECT_EQ(fits.matches(0x8000).size(), 170u * 24u);  // every pin order
}

TEST(TechMap, CutsTooNarrowToCoverANodeAreAnError) {
    // With one-leaf cuts no AND node has a cut a cell can realize.
    MatchCache cache(GateLibrary::standard());
    TechMapParams params;
    params.cuts.max_leaves = 1;
    EXPECT_THROW((void)tech_map(small_aig(), cache, params), std::invalid_argument);
}

}  // namespace
}  // namespace mvf::tech
