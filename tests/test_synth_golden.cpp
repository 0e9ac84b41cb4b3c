// Golden record of the synthesis kernels behind the pin-search fitness.
// Every "flow" row is one seeded pin assignment of a viable-function set
// (carrying factored cones derived once, as in a pin search) synthesized
// under one fitness effort and build style: the GA fitness
// (evaluate_area), the AND count after optimize, the mapped cell count and a
// hash of the whole mapped netlist.  Every "cuts" row hashes the complete
// CutSet (leaves, function and order of every cut of every node) of a seeded
// random AIG under one CutParams.  A change to cut enumeration, rewriting,
// refactoring or mapping that alters any decision shows up here as a named
// diff; kernels made faster must reproduce the file bit for bit.
//
// Run it directly (./build/test_synth_golden) to see each differing row.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "flow/obfuscation_flow.hpp"
#include "map/tech_map.hpp"
#include "net/cuts.hpp"
#include "sbox/sbox_data.hpp"
#include "synth/optimize.hpp"
#include "util/rng.hpp"

namespace mvf::flow {
namespace {

using net::Aig;
using net::Lit;

/// FNV-1a over 32-bit words.
class Fnv {
public:
    void mix(std::uint64_t v) {
        for (int b = 0; b < 4; ++b) {
            h_ ^= (v >> (8 * b)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    std::string hex() const {
        std::ostringstream s;
        s << std::hex << std::setw(16) << std::setfill('0') << h_;
        return s.str();
    }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hash_netlist(const tech::Netlist& nl) {
    Fnv h;
    for (int id = 0; id < nl.num_nodes(); ++id) {
        const tech::Netlist::Node& n = nl.node(id);
        h.mix(static_cast<std::uint64_t>(n.kind));
        h.mix(static_cast<std::uint64_t>(n.cell_id + 1));
        h.mix(n.is_select ? 1 : 0);
        h.mix(n.fanins.size());
        for (const int f : n.fanins) h.mix(static_cast<std::uint64_t>(f));
    }
    for (int i = 0; i < nl.num_pos(); ++i) h.mix(static_cast<std::uint64_t>(nl.po(i)));
    return h.hex();
}

std::string area_text(double area) {
    std::ostringstream s;
    s << std::setprecision(17) << area;
    return s.str();
}

struct Family {
    const char* name;
    std::vector<ViableFunction> functions;
};

std::vector<Family> families() {
    return {
        {"present:2", from_sboxes(sbox::present_viable_set(2))},
        {"present:4", from_sboxes(sbox::present_viable_set(4))},
        {"des:2", from_sboxes(sbox::des_viable_set(2))},
    };
}

/// The identity assignment, then seeded random ones.
std::vector<ga::PinAssignment> genomes(const Family& fam) {
    constexpr int kGenomes = 3;
    const int k = static_cast<int>(fam.functions.size());
    const int m = fam.functions.front().num_inputs;
    const int r = fam.functions.front().num_outputs;
    util::Rng rng(7);
    std::vector<ga::PinAssignment> all{ga::PinAssignment::identity(k, m, r)};
    while (static_cast<int>(all.size()) < kGenomes) {
        all.push_back(ga::PinAssignment::random(k, m, r, rng));
    }
    return all;
}

/// One row per family x genome x fitness effort x build style.  The
/// functions carry their factored cones, as in a pin search.
std::vector<std::string> flow_rows() {
    const std::pair<const char*, synth::Effort> efforts[] = {
        {"fast", synth::Effort::kFast}, {"default", synth::Effort::kDefault}};
    const std::pair<const char*, BuildStyle> styles[] = {
        {"factored", BuildStyle::kFactored},
        {"shared-extract", BuildStyle::kSharedExtract}};

    ObfuscationFlow flow;
    tech::MatchCache cache(flow.gate_library());
    std::vector<std::string> rows;
    for (const Family& plain : families()) {
        const std::vector<ViableFunction> functions = with_factored_cones(plain.functions);
        const std::vector<ga::PinAssignment> all = genomes(plain);
        for (std::size_t g = 0; g < all.size(); ++g) {
            const ga::PinAssignment& genome = all[g];
            const MergedSpec spec(functions, genome);
            for (const auto& [effort_name, effort] : efforts) {
                for (const auto& [style_name, style] : styles) {
                    const double area =
                        flow.evaluate_area(functions, genome, effort, style);
                    Aig aig = spec.build_aig(style);
                    synth::optimize(&aig, flow.synth_context(), effort);
                    const tech::Netlist nl = tech::tech_map(
                        aig, cache, {}, spec.pi_names(), spec.pi_select_flags());
                    std::ostringstream row;
                    row << "flow " << plain.name << " g" << g << ' ' << effort_name
                        << ' ' << style_name << '\t' << area_text(area) << '\t'
                        << aig.num_ands() << '\t' << nl.num_cells() << '\t'
                        << hash_netlist(nl);
                    rows.push_back(row.str());
                }
            }
        }
    }
    return rows;
}

std::string hash_aig(const Aig& aig) {
    Fnv h;
    h.mix(static_cast<std::uint64_t>(aig.num_pis()));
    for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
        h.mix(aig.fanin0(n));
        h.mix(aig.fanin1(n));
    }
    for (int i = 0; i < aig.num_pos(); ++i) h.mix(aig.po(i));
    return h.hex();
}

/// Random AIG over `num_pis` inputs with `num_nodes` AND attempts (the
/// generator of tests/test_aig.cpp).
Aig random_aig(int num_pis, int num_nodes, util::Rng& rng, int num_pos) {
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

/// One row per seeded random AIG x CutParams: cut count and a hash of
/// every cut's leaves and function in CutSet order.
std::vector<std::string> cut_rows() {
    const net::CutParams params[] = {{4, 8, true}, {4, 8, false}, {3, 6, true},
                                     {2, 4, true}, {4, 1, true},  {4, 3, false},
                                     {1, 2, true}};
    std::vector<std::string> rows;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(seed);
        const Aig aig = random_aig(4 + static_cast<int>(seed % 4),
                                   30 + 20 * static_cast<int>(seed), rng, 3);
        for (const net::CutParams& p : params) {
            const net::CutSet cuts(aig, p);
            Fnv h;
            std::size_t total = 0;
            for (int n = 0; n < aig.num_nodes(); ++n) {
                h.mix(0xffffffffu);  // node separator
                for (const net::Cut& c : cuts.cuts_of(n)) {
                    ++total;
                    h.mix(static_cast<std::uint64_t>(c.size()));
                    for (const int leaf : c.leaves()) {
                        h.mix(static_cast<std::uint64_t>(leaf));
                    }
                    h.mix(c.function);
                }
            }
            std::ostringstream row;
            row << "cuts s" << seed << " k=" << p.max_leaves
                << " c=" << p.max_cuts_per_node << " t=" << p.include_trivial
                << '\t' << aig.num_nodes() << '\t' << total << '\t' << h.hex();
            rows.push_back(row.str());
        }
    }
    return rows;
}

TEST(SynthGolden, CachedConesBuildTheSameAigAsTheTables) {
    // The record above goes through cones derived once; a merged build from
    // the bare truth tables must produce the very same graph.
    for (const Family& plain : families()) {
        const std::vector<ViableFunction> functions = with_factored_cones(plain.functions);
        for (const ga::PinAssignment& genome : genomes(plain)) {
            for (const BuildStyle style :
                 {BuildStyle::kFactored, BuildStyle::kSharedExtract}) {
                const Aig cached = MergedSpec(functions, genome).build_aig(style);
                const Aig derived = MergedSpec(plain.functions, genome).build_aig(style);
                EXPECT_EQ(cached.num_nodes(), derived.num_nodes()) << plain.name;
                EXPECT_EQ(hash_aig(cached), hash_aig(derived)) << plain.name;
            }
        }
    }
}

TEST(SynthGolden, KernelsMatchTheGoldenRecord) {
    std::vector<std::string> actual = flow_rows();
    for (std::string& row : cut_rows()) actual.push_back(std::move(row));

    std::ifstream in(MVF_SOURCE_DIR "/tests/data/synth_golden.tsv");
    ASSERT_TRUE(in) << "golden file missing";
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') expected.push_back(line);
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]);
    }
}

}  // namespace
}  // namespace mvf::flow
