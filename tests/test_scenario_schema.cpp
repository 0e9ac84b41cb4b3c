// The scenario schema (flow/scenario_schema.hpp): one table drives the spec
// parser, the CLI flags, validation and the stage-cache keys.  These tests
// walk the table itself, so a knob added without a sample value, without a
// consistent CLI spelling, or hashed into the wrong stage subset fails here
// -- and the golden file pins spec_hash / stage_cache_key byte for byte to
// the values the hand-written hash subsets produced before the table.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "flow/batch_runner.hpp"
#include "flow/scenario_schema.hpp"
#include "flow/spec_hash.hpp"
#include "report/json.hpp"

namespace mvf::flow {
namespace {

constexpr const char* kSboxBase = "present:2";
constexpr const char* kCircuitBase = "examples/benchmarks/c17.bench";

/// Circuit knobs hash the file's bytes, and the golden file names spec
/// files: resolve paths against the source tree.
class SchemaTest : public testing::Test {
protected:
    void SetUp() override { std::filesystem::current_path(MVF_SOURCE_DIR); }
};

/// A non-default valid value per knob id, and a knob=value it needs.
struct Sample {
    std::string value;
    std::string prereq_key = {};
    std::string prereq_value = {};
};

const std::map<std::string, Sample>& samples() {
    static const std::map<std::string, Sample> m = {
        {"name", {"x"}},
        {"funcs", {"des:3"}},
        {"circuit", {"examples/benchmarks/rca4.blif"}},
        {"seed", {"9"}},
        {"population", {"9"}},
        {"generations", {"7"}},
        {"ga.crossover_prob", {"0.5"}},
        {"ga.mutation_prob", {"0.5"}},
        {"ga.tournament_size", {"4"}},
        {"ga.elite", {"1"}},
        {"fitness_effort", {"high"}},
        {"fitness_build", {"shared-extract"}},
        {"map.cut_max_leaves", {"3"}},
        {"map.cut_max_cuts_per_node", {"6"}},
        {"map.cut_include_trivial", {"0"}},
        {"map.recovery_iterations", {"2"}},
        {"random_count", {"10"}},
        {"baseline", {"0"}},
        {"camo_density", {"0.4"}},
        {"camo_cells", {"3"}},
        {"camo_seed", {"7"}},
        {"camo_policy", {"fanout"}},
        {"final_effort", {"high"}},
        {"final_best", {"0"}},
        {"camo.subtree_max_depth", {"2"}},
        {"camo.subtree_max_signal_leaves", {"3"}},
        {"camo.subtree_max_candidates", {"64"}},
        {"camo", {"0"}},
        {"verify", {"0"}},
        {"attack", {"cegar,random-sampling"}},
        {"attack.run_oracle_attack", {"1"}},
        {"random_queries", {"64"}},
        {"replay_transcript", {"t.json"}},
        {"save_transcript", {"t.json"}},
        {"emit_proof", {"p.json", "attack", "cegar"}},
        {"count_mode", {"approx"}},
        {"max_survivors", {"99"}},
        {"count_cache_mb", {"16"}},
        {"count_max_decisions", {"5000"}},
        {"epsilon", {"0.5", "count_mode", "approx"}},
        {"delta", {"0.1", "count_mode", "approx"}},
        {"attack.oracle.count_seed", {"5"}},
        {"attack.oracle.max_iterations", {"5"}},
        {"enum_survivors", {"0"}},
        {"shared_miter", {"0"}},
        {"canonical_inputs", {"1"}},
        {"random_warmup", {"32"}},
        {"neighborhood_queries", {"4"}},
        {"attack.oracle.warmup_seed", {"5"}},
        {"metrics", {"1"}},
        {"attack_threads", {"4"}},
        {"portfolio", {"2"}},
        {"cube_vars", {"3"}},
        {"preprocess", {"0"}},
        {"elim_occ", {"16"}},
        {"elim_growth", {"4"}},
        {"attack.oracle.solver.elim_resolvent_limit", {"12"}},
        {"attack.oracle.solver.max_rounds", {"2"}},
        {"attack.oracle.solver.inprocess_growth", {"2.5"}},
        {"query_budget", {"8"}},
        {"oracle_noise", {"0.01"}},
        {"attack.oracle_model.noise_seed", {"5"}},
        {"oracle_cache", {"1"}},
    };
    return m;
}

/// The base scenario of one kind plus the sample's prerequisite, built on
/// `surface`.
ScenarioBuilder base_builder(const Sample& sample, bool circuit,
                             Surface surface) {
    ScenarioBuilder b(surface);
    if (circuit) {
        b.set("circuit", kCircuitBase);
    } else {
        b.set("funcs", kSboxBase);
    }
    if (!sample.prereq_key.empty()) b.set(sample.prereq_key, sample.prereq_value);
    return b;
}

/// The base scenario with `knob` set to `value`: through its spec key, its
/// CLI flag, or (API-only knobs) straight through the table.
Scenario with_knob(const Knob& knob, const std::string& value, bool circuit,
                   Surface surface) {
    const Sample& sample = samples().at(std::string(knob.id()));
    ScenarioBuilder b = base_builder(sample, circuit, surface);
    if (knob.key.empty()) {
        Scenario s = b.finish();
        knob.parse(s, value, std::string(knob.id()));
        return s;
    }
    if (surface == Surface::kCli) {
        std::vector<std::string> args{std::string(knob.flag)};
        if (knob.flag_sets.empty()) args.push_back(value);
        std::size_t i = 0;
        EXPECT_TRUE(b.take_flag(args, &i)) << knob.flag;
        EXPECT_EQ(i + 1, args.size()) << knob.flag;
    } else {
        b.set(knob.key, value);
    }
    return b.finish();
}

Scenario base_scenario(const Knob& knob, bool circuit) {
    return base_builder(samples().at(std::string(knob.id())), circuit,
                        Surface::kSpec)
        .finish();
}

std::string canonical(const Scenario& s) { return canonical_spec_json(s).dump(); }

/// Calls `body(knob, circuit)` for every knob and scenario kind it steers.
template <class Body>
void for_each_application(Body body) {
    for (const Knob& knob : scenario_knobs()) {
        for (const bool circuit : {false, true}) {
            if (!knob.applies_to(circuit)) continue;
            SCOPED_TRACE(std::string(knob.id()) + (circuit ? " (circuit)" : " (s-box)"));
            body(knob, circuit);
        }
    }
}

TEST_F(SchemaTest, EveryKnobHasASampleAndIdsAreUnique) {
    std::set<std::string> table_ids;
    for (const Knob& knob : scenario_knobs()) {
        EXPECT_TRUE(table_ids.insert(std::string(knob.id())).second) << knob.id();
        // Surface knobs document themselves; API-only ones have no usage.
        EXPECT_EQ(knob.key.empty(), knob.help.empty()) << knob.id();
        EXPECT_TRUE(knob.parse && knob.format) << knob.id();
        if (knob.hash != Hash::kNone) {
            EXPECT_TRUE(knob.emit) << knob.id();
        }
    }
    std::set<std::string> sample_ids;
    for (const auto& [id, sample] : samples()) sample_ids.insert(id);
    EXPECT_EQ(table_ids, sample_ids);
}

TEST_F(SchemaTest, CliFlagAndSpecKeyGiveTheSameCanonicalSpec) {
    for_each_application([](const Knob& knob, bool circuit) {
        if (knob.flag.empty()) return;
        const std::string& value = samples().at(std::string(knob.id())).value;
        if (!knob.flag_sets.empty()) {
            // A switch can only set its one value; the sample must be it.
            ASSERT_EQ(knob.flag_sets, value);
        }
        const Scenario spec = with_knob(knob, value, circuit, Surface::kSpec);
        const Scenario cli = with_knob(knob, value, circuit, Surface::kCli);
        EXPECT_EQ(canonical(spec), canonical(cli));
        EXPECT_EQ(spec.name, cli.name);
        EXPECT_EQ(spec.params.save_transcript, cli.params.save_transcript);
        EXPECT_EQ(spec.params.emit_proof, cli.params.emit_proof);
    });
}

/// The canonical-JSON value at a dotted path, as text the knob parses.
std::string json_text(const report::Json& root, std::string_view path) {
    const report::Json* j = &root;
    while (!path.empty()) {
        const std::size_t dot = path.find('.');
        j = &j->at(std::string(path.substr(0, dot)));
        path = dot == std::string_view::npos ? "" : path.substr(dot + 1);
    }
    if (j->is_string()) return j->as_string();
    if (j->is_bool()) return j->as_bool() ? "1" : "0";
    if (j->is_array()) {
        std::string out;
        for (const report::Json& item : j->items()) {
            out += (out.empty() ? "" : ",") + item.as_string();
        }
        return out;
    }
    return j->dump();
}

TEST_F(SchemaTest, ValuesRoundTripThroughTheCanonicalSpec) {
    for_each_application([](const Knob& knob, bool circuit) {
        const std::string& value = samples().at(std::string(knob.id())).value;
        const Scenario s = with_knob(knob, value, circuit, Surface::kSpec);
        // Every knob reads back through its own text form ...
        const Scenario again =
            with_knob(knob, knob.format(s), circuit, Surface::kSpec);
        EXPECT_EQ(canonical(again), canonical(s));
        if (knob.hash == Hash::kNone) return;
        EXPECT_NE(canonical(s), canonical(base_scenario(knob, circuit)));
        if (knob.path.empty()) return;  // custom JSON form (funcs, circuit)
        // ... and hashed ones through the canonical JSON as well.
        const std::string text = json_text(canonical_spec_json(s), knob.path);
        const Scenario parsed = with_knob(knob, text, circuit, Surface::kSpec);
        EXPECT_EQ(canonical(parsed), canonical(s)) << text;
    });
}

struct ChainStage {
    const char* stage;
    Phase phase;
};

const std::vector<ChainStage>& chain(bool circuit) {
    static const std::vector<ChainStage> sbox = {
        {"pin-search", Phase::kSearch},
        {"synthesize", Phase::kSynth},
        {"camo-cover", Phase::kCover},
        {"validate", Phase::kCover},
        {"attack", Phase::kAttack}};
    static const std::vector<ChainStage> circ = {{"import", Phase::kSearch},
                                                 {"camo-inject", Phase::kSynth},
                                                 {"attack", Phase::kAttack}};
    return circuit ? circ : sbox;
}

TEST_F(SchemaTest, AKnobChangesTheKeysOfItsStageAndLaterOnly) {
    for_each_application([](const Knob& knob, bool circuit) {
        const std::string& value = samples().at(std::string(knob.id())).value;
        const Scenario base = base_scenario(knob, circuit);
        const Scenario changed = with_knob(knob, value, circuit, Surface::kSpec);
        for (const ChainStage& st : chain(circuit)) {
            SCOPED_TRACE(st.stage);
            const std::string before = stage_cache_key(base, st.stage);
            const std::string after = stage_cache_key(changed, st.stage);
            ASSERT_FALSE(before.empty());
            if (knob.uncacheable) {
                EXPECT_EQ(after, "");
            } else if (knob.hash == Hash::kNone) {
                EXPECT_EQ(after, before);
            } else if (knob.hash == Hash::kSeed || st.phase >= knob.phase) {
                EXPECT_NE(after, before);
            } else {
                EXPECT_EQ(after, before);
            }
        }
        EXPECT_EQ(spec_hash(changed) != spec_hash(base),
                  knob.hash != Hash::kNone);
    });
}

/// Rebuilds a golden-file label: "file:PATH#I", a spec line, or a spec
/// line followed by " | ID=VALUE" for a knob set through the table.
Scenario golden_scenario(const std::string& label) {
    if (label.rfind("file:", 0) == 0) {
        const std::size_t hash = label.find('#');
        return load_scenario_spec(label.substr(5, hash - 5))
            .at(std::stoul(label.substr(hash + 1)));
    }
    const std::size_t bar = label.find(" | ");
    Scenario s = parse_scenario_spec(label.substr(0, bar)).at(0);
    if (bar != std::string::npos) {
        const std::string assignment = label.substr(bar + 3);
        const std::size_t eq = assignment.find('=');
        const std::string id = assignment.substr(0, eq);
        for (const Knob& knob : scenario_knobs()) {
            if (knob.id() == id) knob.parse(s, assignment.substr(eq + 1), id);
        }
    }
    return s;
}

TEST_F(SchemaTest, HashesAndStageKeysMatchTheGoldenFile) {
    std::ifstream in("tests/data/scenario_schema_golden.tsv");
    ASSERT_TRUE(in) << "golden file missing";
    const char* const stages[] = {"pin-search", "synthesize", "camo-cover",
                                  "validate",   "attack",     "import",
                                  "camo-inject"};
    std::string line;
    int checked = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::vector<std::string> fields;
        std::istringstream cells(line);
        std::string cell;
        while (std::getline(cells, cell, '\t')) fields.push_back(cell);
        ASSERT_EQ(fields.size(), 9u) << line;
        SCOPED_TRACE(fields[0]);
        const Scenario s = golden_scenario(fields[0]);
        EXPECT_EQ(spec_hash(s), fields[1]);
        for (int k = 0; k < 7; ++k) {
            const std::string key = stage_cache_key(s, stages[k]);
            EXPECT_EQ(key.empty() ? "-" : key, fields[2 + k]) << stages[k];
        }
        ++checked;
    }
    EXPECT_GT(checked, 100);
}

// ------------------------------------------------- validation at parse time --

std::string spec_error(const std::string& text) {
    try {
        parse_scenario_spec(text);
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

std::string cli_error(const std::vector<std::string>& args) {
    try {
        ScenarioBuilder b(Surface::kCli);
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (!b.take_flag(args, &i)) return "not a knob flag: " + args[i];
        }
        b.finish();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST_F(SchemaTest, AdversaryPanelIsCheckedBeforeAnyStageRuns) {
    EXPECT_NE(spec_error("# panel\nfuncs=present:2 attack=cegar,bogus\n")
                  .find("line 2: attack: unknown adversary \"bogus\""),
              std::string::npos);
    EXPECT_NE(cli_error({"--adversaries", "bogus"})
                  .find("--adversaries: unknown adversary \"bogus\""),
              std::string::npos);
    EXPECT_NE(spec_error("funcs=present:2 attack=plausibility emit_proof=p.json\n")
                  .find("line 1: emit_proof requires the cegar adversary"),
              std::string::npos);
    EXPECT_NE(cli_error({"--emit-proof", "p.json"})
                  .find("--emit-proof requires the cegar adversary"),
              std::string::npos);
    EXPECT_EQ(spec_error("funcs=present:2 attack=cegar emit_proof=p.json\n"), "");
}

TEST_F(SchemaTest, NeighborhoodQueriesRequireASerialAttack) {
    EXPECT_NE(cli_error({"--attack-threads", "2", "--neighborhood-queries", "4"})
                  .find("--neighborhood-queries requires a serial CEGAR attack "
                        "(set --portfolio 1 or --attack-threads 1)"),
              std::string::npos);
    EXPECT_NE(spec_error("funcs=present:2 portfolio=3 neighborhood_queries=4\n")
                  .find("line 1: neighborhood_queries requires a serial CEGAR "
                        "attack (set portfolio=1 or attack_threads=1)"),
              std::string::npos);
    // portfolio=1 forces the serial loop whatever attack_threads says.
    EXPECT_EQ(spec_error("funcs=present:2 attack_threads=4 portfolio=1 "
                         "neighborhood_queries=4\n"),
              "");
    // The attack stage runs the same value rules on API-built params.
    FlowParams p;
    p.oracle.neighborhood_queries = 4;
    EXPECT_NO_THROW(validate_values(p, {"cegar"}));
    p.oracle.attack_threads = 2;
    EXPECT_THROW(validate_values(p, {"cegar"}), std::invalid_argument);
}

TEST_F(SchemaTest, CutParametersOutsideTheKernelRangeAreRejected) {
    // Cut functions are 16-bit truth tables (at most 4 leaves) and a node
    // needs at least one cut; both API-only knobs carry that range.
    FlowParams p;
    p.map.cuts.max_leaves = 4;
    p.map.cuts.max_cuts_per_node = 1;
    EXPECT_NO_THROW(validate_values(p, {}));
    for (const int leaves : {0, 5, 6}) {
        p.map.cuts.max_leaves = leaves;
        try {
            validate_values(p, {});
            ADD_FAILURE() << "max_leaves " << leaves << " accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), "map.cut_max_leaves must be in [1, 4]");
        }
    }
    p.map.cuts.max_leaves = 4;
    p.map.cuts.max_cuts_per_node = 0;
    try {
        validate_values(p, {});
        ADD_FAILURE() << "max_cuts_per_node 0 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_STREQ(e.what(), "map.cut_max_cuts_per_node must be >= 1");
    }
}

TEST_F(SchemaTest, ErrorsSpellKnobsTheWayTheirSurfaceDoes) {
    EXPECT_NE(spec_error("funcs=present:2 count_mode=approx enum_survivors=0\n")
                  .find("enum_survivors=0 skips survivor counting; it "
                        "contradicts count_mode"),
              std::string::npos);
    EXPECT_NE(cli_error({"--count-mode", "approx", "--no-enumerate"})
                  .find("--no-enumerate skips survivor counting; it "
                        "contradicts --count-mode"),
              std::string::npos);
    EXPECT_NE(cli_error({"--epsilon", "0.5"})
                  .find("--epsilon only applies to --count-mode approx"),
              std::string::npos);
    EXPECT_NE(cli_error({"--circuit", "a.blif", "--no-final-best"})
                  .find("--no-final-best steers the S-box synthesis flow"),
              std::string::npos);
}

TEST_F(SchemaTest, LooseNumbersAreRejected) {
    for (const std::vector<std::string>& args :
         std::vector<std::vector<std::string>>{{"--funcs", "present:2abc"},
                                               {"--elim-occ", "-7"},
                                               {"--elim-growth", "-100"},
                                               {"--seed", "-1"},
                                               {"--population", "8x"},
                                               {"--oracle-noise", "nan"}}) {
        EXPECT_NE(cli_error(args), "") << args[0] << " " << args[1];
    }
    EXPECT_NE(spec_error("funcs=present:2 elim_occ=-7\n").find("line 1: elim_occ"),
              std::string::npos);
}

TEST_F(SchemaTest, QuickFillsOnlyTheKnobsNotGiven) {
    ScenarioBuilder b(Surface::kCli);
    const std::vector<std::string> args{"--population", "12", "--count-mode",
                                        "approx"};
    for (std::size_t i = 0; i < args.size(); ++i) ASSERT_TRUE(b.take_flag(args, &i));
    b.apply_quick_defaults();
    const Scenario s = b.finish();
    EXPECT_EQ(s.params.ga.population, 12);
    EXPECT_EQ(s.params.ga.generations, 4);
    // The quick survivor cap is a default, not a request for enumeration,
    // and the quick decision budget does not contradict approx counting.
    EXPECT_EQ(s.params.oracle.max_survivors, 256u);
    EXPECT_EQ(s.params.oracle.count_mode, attack::CountMode::kApprox);
    EXPECT_EQ(s.params.oracle.count_max_decisions, 20'000u);
}

}  // namespace
}  // namespace mvf::flow
