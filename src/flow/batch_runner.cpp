#include "flow/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "camo/inject.hpp"
#include "flow/spec_hash.hpp"
#include "obs/trace.hpp"
#include "sbox/sbox_data.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace mvf::flow {

namespace {

[[noreturn]] void spec_error(int line, const std::string& what) {
    throw std::invalid_argument("scenario spec line " + std::to_string(line) +
                                ": " + what);
}

bool parse_flag(const std::string& value, int line, const std::string& key) {
    if (value == "1" || value == "true") return true;
    if (value == "0" || value == "false") return false;
    spec_error(line, "flag " + key + " must be 0/1/true/false, got \"" + value +
                         "\"");
}

int parse_int(const std::string& value, int line, const std::string& key) {
    try {
        std::size_t used = 0;
        const int parsed = std::stoi(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        spec_error(line, key + " is not a number: \"" + value + "\"");
    }
}

std::uint64_t parse_u64(const std::string& value, int line,
                        const std::string& key) {
    try {
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        spec_error(line, key + " is not a number: \"" + value + "\"");
    }
}

double parse_double(const std::string& value, int line,
                    const std::string& key) {
    try {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        return parsed;
    } catch (const std::exception&) {
        spec_error(line, key + " is not a number: \"" + value + "\"");
    }
}

std::vector<std::string> split_csv(const std::string& value) {
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(value);
    while (std::getline(in, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

std::string file_stem(const std::string& path) {
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find_last_of('.');
    const std::size_t end =
        (dot == std::string::npos || dot <= start) ? path.size() : dot;
    return path.substr(start, end - start);
}

}  // namespace

ScenarioRecord run_scenario(const Scenario& scenario, int index,
                            const ScenarioRunHooks& hooks) {
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("scenario", scenario.name);
        span_args.set("index", index);
    }
    obs::Span span("scenario", "batch", std::move(span_args));
    ScenarioRecord record;
    record.index = index;
    record.name = scenario.name;
    record.family = scenario.family;
    record.n = scenario.n;
    record.seed = scenario.params.seed;
    record.spec_hash = spec_hash(scenario);

    util::Stopwatch sw;
    try {
        const std::vector<ViableFunction> functions =
            scenario_functions(scenario);
        // Private engine => private synthesis/matching caches: scenario
        // results cannot depend on what ran before or concurrently.
        ObfuscationFlow engine;
        FlowContext ctx(engine, functions, scenario.params);
        if (hooks.cancel) ctx.cancel = *hooks.cancel;
        if (hooks.deadline) ctx.deadline = hooks.deadline;
        ctx.progress = hooks.progress;
        ctx.pool = hooks.pool;
        if (hooks.stage_store) {
            ctx.stage_store = hooks.stage_store;
            ctx.stage_key = [&scenario](std::string_view stage) {
                return stage_cache_key(scenario, stage);
            };
        }
        const PipelineStatus ps = Pipeline::standard(scenario.params).run(ctx);
        record.cache_hits = ps.stages_cached;

        const FlowResult& r = ctx.result;
        record.random_avg = r.random_avg;
        record.random_best = r.random_best;
        record.ga_area = r.ga_area;
        record.ga_tm_area = r.ga_tm_area;
        record.improvement_percent = r.improvement_percent();
        record.verified = r.verified;
        record.camo_cells = r.camo_stats.num_cells;
        record.config_space_bits = r.camo_stats.config_space_bits;
        record.attacks = r.attack_reports;
        if (!scenario.params.emit_proof.empty() && r.attack_proof) {
            // The attack stage leaves the proof's spec_hash blank because
            // only the scenario runner knows it; stamp it before the
            // artifact reaches disk so the claim names its experiment.
            report::Json proof = *r.attack_proof;
            proof.set("spec_hash", record.spec_hash);
            const report::JsonWriter writer(scenario.params.emit_proof);
            if (!writer.write(proof)) {
                throw std::runtime_error("cannot write attack proof: " +
                                         scenario.params.emit_proof);
            }
        }
        if (ps.completed) {
            record.ok = true;
            record.status = "ok";
        } else {
            record.ok = false;
            record.status = "cancelled";
            record.error = "cancelled before stage " + ps.stopped_before;
        }
    } catch (const std::exception& e) {
        record.ok = false;
        record.status = "error";
        record.error = e.what();
    } catch (...) {
        // A non-std exception still may not sink the batch (or the serve
        // scheduler's worker); the record carries what little we know.
        record.ok = false;
        record.status = "error";
        record.error = "unknown exception (not derived from std::exception)";
    }
    record.seconds = sw.elapsed_seconds();
    for (attack::AdversaryReport& a : record.attacks) {
        a.spec_hash = record.spec_hash;
    }
    if (span) {
        report::Json ea = report::Json::object();
        ea.set("ok", record.ok);
        ea.set("status", record.status);
        if (!record.ok) ea.set("error", record.error);
        if (record.cache_hits > 0) ea.set("cache_hits", record.cache_hits);
        span.set_end_args(std::move(ea));
    }
    return record;
}

std::vector<ViableFunction> scenario_functions(const Scenario& scenario) {
    // Circuit scenarios have no viable-function set: the subject is the
    // imported benchmark file (FlowParams::circuit).
    if (!scenario.params.circuit.path.empty()) return {};
    if (scenario.family == "present") {
        if (scenario.n < 1 || scenario.n > 16) {
            throw std::invalid_argument(
                "scenario \"" + scenario.name +
                "\": present merge width must be 1..16");
        }
        return from_sboxes(sbox::present_viable_set(scenario.n));
    }
    if (scenario.family == "des") {
        if (scenario.n < 1 || scenario.n > 8) {
            throw std::invalid_argument("scenario \"" + scenario.name +
                                        "\": des merge width must be 1..8");
        }
        return from_sboxes(sbox::des_viable_set(scenario.n));
    }
    throw std::invalid_argument("scenario \"" + scenario.name +
                                "\": unknown function family \"" +
                                scenario.family + "\" (present, des)");
}

std::vector<Scenario> parse_scenario_spec(const std::string& text) {
    std::vector<Scenario> scenarios;
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos) raw.resize(hash);
        std::istringstream tokens(raw);
        std::string token;
        Scenario s;
        bool any = false;
        // Counting-key bookkeeping for the contradiction checks below.
        bool explicit_mode = false;
        bool has_eps_delta = false;
        bool has_cache_mb = false;
        bool has_max_survivors = false;
        bool counting_disabled = false;  // explicit enum_survivors=0
        bool has_noise = false;
        // Circuit-vs-funcs bookkeeping: circuit scenarios reject keys that
        // only steer the S-box synthesis flow.
        bool has_funcs = false;
        bool has_camo_density = false;
        bool has_camo_cells = false;
        bool has_camo_key = false;  // any camo_* knob
        bool has_sbox_only_key = false;
        std::string sbox_only_key;
        const auto note_sbox_only = [&](const std::string& key) {
            if (!has_sbox_only_key) sbox_only_key = key;
            has_sbox_only_key = true;
        };
        while (tokens >> token) {
            any = true;
            const std::size_t eq = token.find('=');
            if (eq == std::string::npos) {
                spec_error(line_no, "expected key=value, got \"" + token + "\"");
            }
            const std::string key = token.substr(0, eq);
            const std::string value = token.substr(eq + 1);
            if (key == "name") {
                s.name = value;
            } else if (key == "funcs") {
                const std::size_t colon = value.find(':');
                if (colon == std::string::npos) {
                    spec_error(line_no, "funcs must be family:n, got \"" +
                                            value + "\"");
                }
                s.family = value.substr(0, colon);
                s.n = parse_int(value.substr(colon + 1), line_no, "funcs width");
                has_funcs = true;
            } else if (key == "circuit") {
                if (value.empty()) {
                    spec_error(line_no, "circuit needs a file path");
                }
                s.params.circuit.path = value;
            } else if (key == "camo_density") {
                s.params.circuit.camo_density =
                    parse_double(value, line_no, key);
                if (!(s.params.circuit.camo_density > 0.0 &&
                      s.params.circuit.camo_density <= 1.0)) {
                    spec_error(line_no, "camo_density must be in (0, 1]");
                }
                has_camo_density = true;
                has_camo_key = true;
            } else if (key == "camo_cells") {
                s.params.circuit.camo_cells = parse_int(value, line_no, key);
                if (s.params.circuit.camo_cells < 1) {
                    spec_error(line_no, "camo_cells must be >= 1");
                }
                has_camo_cells = true;
                has_camo_key = true;
            } else if (key == "camo_seed") {
                s.params.circuit.camo_seed = parse_u64(value, line_no, key);
                has_camo_key = true;
            } else if (key == "camo_policy") {
                camo::InjectPolicy policy;
                if (!camo::inject_policy_from_name(value, &policy)) {
                    spec_error(line_no,
                               "camo_policy must be random, fanout or depth, "
                               "got \"" + value + "\"");
                }
                s.params.circuit.camo_policy = value;
                has_camo_key = true;
            } else if (key == "seed") {
                s.params.seed = parse_u64(value, line_no, key);
            } else if (key == "population" || key == "pop") {
                s.params.ga.population = parse_int(value, line_no, key);
                if (s.params.ga.population < 1) {
                    spec_error(line_no, "population must be >= 1");
                }
                note_sbox_only(key);
            } else if (key == "generations" || key == "gens") {
                s.params.ga.generations = parse_int(value, line_no, key);
                if (s.params.ga.generations < 0) {
                    spec_error(line_no, "generations must be >= 0");
                }
                note_sbox_only(key);
            } else if (key == "attack") {
                if (value == "none") {
                    s.params.adversaries.clear();
                    s.params.run_oracle_attack = false;
                } else {
                    s.params.adversaries = split_csv(value);
                }
            } else if (key == "baseline") {
                s.params.run_random_baseline = parse_flag(value, line_no, key);
                note_sbox_only(key);
            } else if (key == "camo") {
                s.params.run_camo_mapping = parse_flag(value, line_no, key);
            } else if (key == "verify") {
                s.params.verify = parse_flag(value, line_no, key);
                note_sbox_only(key);
            } else if (key == "final_best") {
                s.params.final_best_of_builds = parse_flag(value, line_no, key);
                note_sbox_only(key);
            } else if (key == "max_survivors") {
                // Cap on the CEGAR survivor enumeration; small values keep
                // attack scenarios fast on huge configuration spaces.
                // Only meaningful for count_mode=enumerate (and implies it
                // when no count_mode is given -- see below).
                s.params.oracle.max_survivors = parse_u64(value, line_no, key);
                has_max_survivors = true;
            } else if (key == "count_mode") {
                if (!attack::count_mode_from_name(
                        value, &s.params.oracle.count_mode)) {
                    spec_error(line_no, "count_mode must be exact, approx or "
                                        "enumerate, got \"" + value + "\"");
                }
                explicit_mode = true;
            } else if (key == "count_cache_mb") {
                s.params.oracle.count_cache_mb = parse_int(value, line_no, key);
                has_cache_mb = true;
            } else if (key == "count_max_decisions") {
                s.params.oracle.count_max_decisions =
                    parse_u64(value, line_no, key);
                has_cache_mb = true;  // same exact-only applicability rule
            } else if (key == "epsilon") {
                s.params.oracle.epsilon = parse_double(value, line_no, key);
                has_eps_delta = true;
            } else if (key == "delta") {
                s.params.oracle.delta = parse_double(value, line_no, key);
                has_eps_delta = true;
            } else if (key == "enum_survivors") {
                s.params.oracle.enumerate_survivors =
                    parse_flag(value, line_no, key);
                counting_disabled = !s.params.oracle.enumerate_survivors;
            } else if (key == "preprocess") {
                s.params.oracle.solver.preprocess =
                    parse_flag(value, line_no, key);
            } else if (key == "shared_miter") {
                s.params.oracle.shared_miter = parse_flag(value, line_no, key);
            } else if (key == "canonical_inputs") {
                s.params.oracle.canonical_inputs =
                    parse_flag(value, line_no, key);
            } else if (key == "query_budget") {
                s.params.oracle_model.query_budget =
                    parse_u64(value, line_no, key);
                if (s.params.oracle_model.query_budget == 0) {
                    spec_error(line_no, "query_budget must be > 0 (omit the "
                                        "key for an unlimited oracle)");
                }
            } else if (key == "oracle_noise") {
                s.params.oracle_model.noise = parse_double(value, line_no, key);
                if (!(s.params.oracle_model.noise >= 0.0 &&
                      s.params.oracle_model.noise < 1.0)) {
                    spec_error(line_no, "oracle_noise must be in [0, 1)");
                }
                has_noise = true;
            } else if (key == "oracle_cache") {
                s.params.oracle_model.cache = parse_flag(value, line_no, key);
            } else if (key == "save_transcript") {
                s.params.save_transcript = value;
            } else if (key == "replay_transcript") {
                s.params.replay_transcript = value;
            } else if (key == "emit_proof") {
                s.params.emit_proof = value;
            } else if (key == "neighborhood_queries") {
                s.params.oracle.neighborhood_queries =
                    parse_int(value, line_no, key);
                if (s.params.oracle.neighborhood_queries < 0) {
                    spec_error(line_no, "neighborhood_queries must be >= 0");
                }
            } else if (key == "random_warmup") {
                s.params.oracle.random_warmup = parse_int(value, line_no, key);
                if (s.params.oracle.random_warmup < 0) {
                    spec_error(line_no, "random_warmup must be >= 0");
                }
            } else if (key == "random_queries") {
                s.params.random_queries = parse_int(value, line_no, key);
                if (s.params.random_queries <= 0) {
                    spec_error(line_no, "random_queries must be > 0");
                }
            } else if (key == "metrics") {
                s.params.oracle.collect_metrics =
                    parse_flag(value, line_no, key);
            } else if (key == "attack_threads") {
                s.params.oracle.attack_threads = parse_int(value, line_no, key);
                if (s.params.oracle.attack_threads < 1) {
                    spec_error(line_no, "attack_threads must be >= 1");
                }
            } else if (key == "portfolio") {
                // 0 = follow attack_threads, 1 = force serial CEGAR.
                s.params.oracle.portfolio = parse_int(value, line_no, key);
                if (s.params.oracle.portfolio < 0) {
                    spec_error(line_no, "portfolio must be >= 0");
                }
            } else if (key == "cube_vars") {
                s.params.oracle.cube_vars = parse_int(value, line_no, key);
                if (s.params.oracle.cube_vars < 0 ||
                    s.params.oracle.cube_vars > 16) {
                    spec_error(line_no, "cube_vars must be in 0..16");
                }
            } else {
                spec_error(line_no,
                           "unknown key \"" + key +
                               "\" (name funcs circuit camo_density "
                               "camo_cells camo_seed camo_policy "
                               "seed population generations "
                               "attack baseline camo verify final_best "
                               "count_mode count_cache_mb "
                               "count_max_decisions epsilon delta "
                               "max_survivors enum_survivors preprocess "
                               "shared_miter canonical_inputs query_budget "
                               "oracle_noise oracle_cache save_transcript "
                               "replay_transcript emit_proof "
                               "neighborhood_queries random_warmup "
                               "random_queries metrics attack_threads "
                               "portfolio cube_vars)");
            }
        }
        if (!any) continue;  // blank/comment line
        // Circuit scenarios are file-based: the subject comes from the
        // benchmark, so the viable-function and synthesis-flow keys are
        // contradictions, and the camo_* knobs require a circuit.
        const bool is_circuit = !s.params.circuit.path.empty();
        if (is_circuit && has_funcs) {
            spec_error(line_no,
                       "circuit and funcs name two different subjects; "
                       "pick one");
        }
        if (!is_circuit && has_camo_key) {
            spec_error(line_no,
                       "camo_density/camo_cells/camo_seed/camo_policy "
                       "require circuit=PATH (the S-box flow camouflages "
                       "via Phase III covering)");
        }
        if (is_circuit && has_sbox_only_key) {
            spec_error(line_no,
                       "key \"" + sbox_only_key +
                           "\" steers the S-box synthesis flow, which "
                           "circuit scenarios skip");
        }
        if (has_camo_density && has_camo_cells) {
            spec_error(line_no,
                       "camo_density and camo_cells both size the "
                       "camouflage budget; pick one");
        }
        if (is_circuit) {
            // The plausibility attacker needs the viable-function targets,
            // which only the S-box flow has.
            for (const std::string& adv : s.params.adversaries) {
                if (adv == "plausibility") {
                    spec_error(line_no,
                               "adversary \"" + adv +
                                   "\" needs the viable-function set; "
                                   "circuit scenarios support oracle-"
                                   "granted adversaries (cegar, "
                                   "random-sampling)");
                }
            }
        }
        // Reject contradictory counting keys instead of silently ignoring
        // them (each key only applies to one CountMode, and none applies
        // when counting is switched off entirely).
        using attack::CountMode;
        if (counting_disabled &&
            (explicit_mode || has_eps_delta || has_cache_mb ||
             has_max_survivors)) {
            spec_error(line_no,
                       "enum_survivors=0 skips survivor counting; it "
                       "contradicts count_mode/epsilon/delta/"
                       "count_cache_mb/max_survivors");
        }
        if (has_eps_delta && (!(s.params.oracle.epsilon > 0.0) ||
                              !(s.params.oracle.delta > 0.0 &&
                                s.params.oracle.delta < 1.0))) {
            spec_error(line_no,
                       "epsilon must be > 0 and delta in (0, 1)");
        }
        if (has_cache_mb && s.params.oracle.count_cache_mb <= 0) {
            spec_error(line_no, "count_cache_mb must be > 0");
        }
        if (has_max_survivors) {
            if (explicit_mode &&
                s.params.oracle.count_mode != CountMode::kEnumerate) {
                spec_error(line_no,
                           "max_survivors only applies to "
                           "count_mode=enumerate");
            }
            // Legacy specs cap enumeration without naming a mode.
            s.params.oracle.count_mode = CountMode::kEnumerate;
        }
        if (has_eps_delta &&
            (!explicit_mode ||
             s.params.oracle.count_mode != CountMode::kApprox)) {
            spec_error(line_no,
                       "epsilon/delta require count_mode=approx");
        }
        if (has_cache_mb &&
            s.params.oracle.count_mode != CountMode::kExact) {
            spec_error(line_no,
                       "count_cache_mb/count_max_decisions only apply to "
                       "count_mode=exact");
        }
        // Replay serves recorded answers; fresh measurement noise on top
        // would corrupt a transcript that already embeds the noise it was
        // recorded under.  Usage error, matching the counting-key rule.
        if (has_noise && !s.params.replay_transcript.empty()) {
            spec_error(line_no,
                       "replay_transcript replays recorded answers; it "
                       "contradicts oracle_noise");
        }
        // A cache above a replaying transcript desynchronizes the replay
        // cursor on duplicate patterns.
        if (s.params.oracle_model.cache &&
            !s.params.replay_transcript.empty()) {
            spec_error(line_no, "replay_transcript contradicts oracle_cache");
        }
        // A transcript is one member's ordered view; racing N members over
        // a replay is contradictory (the attack would silently fall back
        // to the serial path anyway -- reject it loudly instead).
        if (s.params.oracle.portfolio > 1 &&
            !s.params.replay_transcript.empty()) {
            spec_error(line_no, "replay_transcript contradicts portfolio");
        }
        // A proof certifies a fresh serial CEGAR run: replaying a
        // transcript proves nothing new, and portfolio members interleave
        // queries into a non-replayable sequence.
        if (!s.params.emit_proof.empty()) {
            if (!s.params.replay_transcript.empty()) {
                spec_error(line_no, "emit_proof contradicts replay_transcript");
            }
            const int members =
                s.params.oracle.portfolio > 0
                    ? s.params.oracle.portfolio
                    : std::max(1, s.params.oracle.attack_threads);
            if (members > 1) {
                spec_error(line_no,
                           "emit_proof requires a serial CEGAR attack "
                           "(set portfolio=1 or attack_threads=1)");
            }
        }
        if (is_circuit) {
            s.family = "circuit";
            s.n = 0;
        }
        if (s.name.empty()) {
            s.name = is_circuit
                         ? file_stem(s.params.circuit.path) + "-s" +
                               std::to_string(s.params.seed)
                         : s.family + std::to_string(s.n) + "-s" +
                               std::to_string(s.params.seed);
        }
        scenarios.push_back(std::move(s));
    }
    return scenarios;
}

std::vector<Scenario> load_scenario_spec(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::invalid_argument("cannot open scenario spec: " + path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse_scenario_spec(text.str());
}

report::Json ScenarioRecord::to_json() const {
    report::Json j = report::Json::object();
    j.set("index", index);
    j.set("name", name);
    j.set("family", family);
    j.set("n", n);
    j.set("seed", seed);
    j.set("ok", ok);
    j.set("status", status.empty() ? std::string(ok ? "ok" : "error")
                                   : status);
    if (!ok) j.set("error", error);
    if (!spec_hash.empty()) j.set("spec_hash", spec_hash);
    if (cache_hits > 0) j.set("cache_hits", cache_hits);
    j.set("seconds", seconds);
    j.set("random_avg", random_avg);
    j.set("random_best", random_best);
    j.set("ga_area", ga_area);
    j.set("ga_tm_area", ga_tm_area);
    j.set("improvement_percent", improvement_percent);
    j.set("verified", verified);
    j.set("camo_cells", camo_cells);
    j.set("config_space_bits", config_space_bits);
    report::Json attacks_json = report::Json::array();
    for (const attack::AdversaryReport& a : attacks) {
        attacks_json.push_back(a.to_json());
    }
    j.set("attacks", std::move(attacks_json));
    return j;
}

std::vector<ScenarioRecord> BatchRunner::run(
    const std::vector<Scenario>& scenarios) const {
    std::vector<ScenarioRecord> records(scenarios.size());
    const int count = static_cast<int>(scenarios.size());
    const auto report_progress = [this](const ScenarioRecord& r, int total) {
        if (!params_.verbose) return;
        std::fprintf(stderr, "[%d/%d] %s: %s (%.1fs)\n", r.index + 1, total,
                     r.name.c_str(), r.ok ? "ok" : r.error.c_str(), r.seconds);
    };

    // Heartbeat: while scenarios run, a side thread streams completed/total
    // counts as "batch-progress" counter samples into the trace -- the
    // progress records a monitoring consumer tails instead of waiting for
    // the final report.  Active only when a trace sink is installed.
    std::atomic<int> completed{0};
    obs::TraceSink* const sink = obs::tracing();
    const bool heartbeat_active =
        sink != nullptr && params_.heartbeat_ms > 0 && count > 0;
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    bool hb_done = false;
    std::thread heartbeat;
    if (heartbeat_active) {
        heartbeat = std::thread([&] {
            const auto sample = [&] {
                report::Json v = report::Json::object();
                v.set("completed", completed.load(std::memory_order_relaxed));
                v.set("total", count);
                sink->counter("batch-progress", std::move(v));
                sink->flush();  // tailing consumers see the sample now
            };
            std::unique_lock<std::mutex> lock(hb_mu);
            while (!hb_done) {
                sample();
                hb_cv.wait_for(lock,
                               std::chrono::milliseconds(params_.heartbeat_ms),
                               [&] { return hb_done; });
            }
            sample();  // final completed == total record
        });
    }
    const auto stop_heartbeat = [&] {
        if (!heartbeat_active) return;
        {
            std::lock_guard<std::mutex> lock(hb_mu);
            hb_done = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    if (params_.jobs <= 1 || count <= 1) {
        for (int i = 0; i < count; ++i) {
            records[static_cast<std::size_t>(i)] =
                run_scenario(scenarios[static_cast<std::size_t>(i)], i);
            completed.fetch_add(1, std::memory_order_relaxed);
            report_progress(records[static_cast<std::size_t>(i)], count);
        }
        stop_heartbeat();
        return records;
    }

    util::ThreadPool pool(std::min(params_.jobs, count));
    std::vector<std::future<void>> futures;
    futures.reserve(scenarios.size());
    for (int i = 0; i < count; ++i) {
        // Sharded submission spreads the batch round-robin across the
        // workers' deques; idle workers steal from the back, so a shard
        // stuck behind one long scenario drains via its neighbours.
        futures.push_back(pool.submit_sharded(
            i, [&scenarios, &records, &completed, &pool, i] {
                // Pin-search batches and parallel attacks inside a parallel
                // batch share THIS pool instead of spawning their own: the
                // scenario worker helping-waits (ThreadPool::run_one) on its
                // subtasks, so fitness workers, portfolio members and cube
                // workers cannot deadlock or oversubscribe even with every
                // worker busy.
                Scenario scenario = scenarios[static_cast<std::size_t>(i)];
                if (scenario.params.oracle.attack_threads > 1 ||
                    scenario.params.oracle.portfolio > 1) {
                    scenario.params.oracle.pool = &pool;
                }
                ScenarioRunHooks hooks;
                hooks.pool = &pool;
                records[static_cast<std::size_t>(i)] =
                    run_scenario(scenario, i, hooks);
                completed.fetch_add(1, std::memory_order_relaxed);
            }));
    }
    for (int i = 0; i < count; ++i) {
        futures[static_cast<std::size_t>(i)].get();
        report_progress(records[static_cast<std::size_t>(i)], count);
    }
    stop_heartbeat();
    return records;
}

report::Json batch_report(const std::vector<ScenarioRecord>& records,
                          double total_seconds) {
    report::Json j = report::Json::object();
    int failures = 0;
    report::Json arr = report::Json::array();
    for (const ScenarioRecord& r : records) {
        if (!r.ok) ++failures;
        arr.push_back(r.to_json());
    }
    j.set("scenario_count", static_cast<int>(records.size()));
    j.set("failures", failures);
    j.set("total_seconds", total_seconds);
    j.set("scenarios", std::move(arr));
    return j;
}

}  // namespace mvf::flow
