// Golden record of the serial CEGAR attack.  Every row is one oracle_attack
// run on a seeded random_camo_netlist under one combination of the encoding,
// preprocessing and query-selection knobs, behind an optional query budget.
// The file pins the attack's whole deterministic trajectory -- query counts,
// SAT work, structure sharing, oracle block/scalar traffic, survivors and
// the distinguishing-input sequence -- so a refactor of the miter encoding
// or of the block-query path must reproduce it bit for bit.  Wall time is
// left out.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "attack/random_camo.hpp"
#include "util/rng.hpp"

namespace mvf::attack {
namespace {

using camo::CamoLibrary;
using camo::CamoNetlist;

struct NetlistShape {
    int pis, pos, cells;
    std::uint64_t seed;
};
constexpr NetlistShape kNetlists[] = {{4, 2, 6, 5}, {6, 2, 8, 3}};
constexpr int kWarmup = 20;
constexpr int kNeighbors = 3;
constexpr std::uint64_t kBudget = 14;

/// FNV-1a over the patterns, one separator byte between patterns.
std::string hash_patterns(const std::vector<std::vector<bool>>& patterns) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 0x100000001b3ull;
    };
    for (const std::vector<bool>& p : patterns) {
        for (const bool b : p) mix(b ? '1' : '0');
        mix('|');
    }
    std::ostringstream s;
    s << std::hex << h;
    return s.str();
}

/// One row per netlist x {shared_miter, preprocess, random_warmup,
/// neighborhood_queries, canonical_inputs, fixed_nominal, query budget}:
/// the label, then the recorded fields, tab-separated.
std::vector<std::string> golden_rows() {
    const CamoLibrary lib =
        CamoLibrary::from_gate_library(tech::GateLibrary::standard());
    std::vector<std::string> rows;
    for (int n = 0; n < static_cast<int>(std::size(kNetlists)); ++n) {
        const NetlistShape& shape = kNetlists[n];
        util::Rng rng(shape.seed);
        const CamoNetlist nl =
            random_camo_netlist(lib, shape.pis, shape.pos, shape.cells, rng);
        // Every third node known to be an ordinary cell.
        std::vector<bool> fixed(static_cast<std::size_t>(nl.num_nodes()), false);
        for (int id = 0; id < nl.num_nodes(); ++id) {
            fixed[static_cast<std::size_t>(id)] =
                nl.node(id).kind == CamoNetlist::NodeKind::kCell && id % 3 == 0;
        }
        for (int bits = 0; bits < 128; ++bits) {
            const bool shared = bits & 1, pre = bits & 2, warm = bits & 4,
                       nbr = bits & 8, canon = bits & 16, fix = bits & 32,
                       budget = bits & 64;
            OracleAttackParams params;
            params.shared_miter = shared;
            params.solver.preprocess = pre;
            params.random_warmup = warm ? kWarmup : 0;
            params.neighborhood_queries = nbr ? kNeighbors : 0;
            params.canonical_inputs = canon;
            params.fixed_nominal = fix ? &fixed : nullptr;

            SimOracle chip(nl, nl.configuration_for_code(0));
            OracleModelParams model;
            model.query_budget = budget ? kBudget : 0;
            OracleStack stack(&chip, model);
            const OracleAttackResult r = oracle_attack(nl, stack.top(), params);
            const OracleStats os = stack.stats();

            std::ostringstream row;
            row << 'n' << n << " sm=" << shared << " pre=" << pre
                << " warm=" << params.random_warmup
                << " nbr=" << params.neighborhood_queries << " canon=" << canon
                << " fixed=" << fix << " budget=" << model.query_budget;
            row << '\t' << attack_status_name(r.status) << '\t' << r.queries
                << '\t' << r.warmup_queries << '\t' << r.sat_stats.conflicts
                << '\t' << r.sat_stats.decisions << '\t'
                << r.sat_stats.propagations << '\t' << r.sat_stats.solves
                << '\t' << r.sat_stats.preprocess_runs << '\t'
                << r.shared_cells << '\t'
                << (r.counted ? r.survivors.to_string() : std::string("-"))
                << '\t' << os.block_queries << '\t' << os.scalar_queries
                << '\t' << hash_patterns(r.distinguishing_inputs);
            rows.push_back(row.str());
        }
    }
    return rows;
}

TEST(CegarGolden, SerialAttackMatchesTheGoldenRecord) {
    std::ifstream in(MVF_SOURCE_DIR "/tests/data/cegar_golden.tsv");
    ASSERT_TRUE(in) << "golden file missing";
    std::vector<std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') expected.push_back(line);
    }
    const std::vector<std::string> actual = golden_rows();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]);
    }
}

}  // namespace
}  // namespace mvf::attack
