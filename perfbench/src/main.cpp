// Scenario benchmark for the MVF design flow and its red-team attack stack.
//
//   mvf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR]
//
// Workloads (see BENCHMARK.json for why each was chosen):
//   flow-present4    the paper's S-box flow, present:4, default GA budget,
//                    random baseline, camo-cover and validate; no attack
//   attack-present2  present:2 at small GA and counting budgets, the default
//                    adversary panel (plausibility, cegar, random-sampling);
//                    bound by survivor counting
//   cegar-mult6      an imported 6x6 array multiplier with 3% of its cells
//                    camouflaged, attacked by CEGAR; bound by SAT solving
//
// --seconds sizes the run: it measures seconds x the workload's nominal
// rate of scenarios (at least two), scenario k using seed sub_seed(N, k), so
// every build measures the same inputs for the same arguments.  Scenario
// times are reported as the mean over the run's inputs: their cost differs
// from input to input, and on attack-present2 it has two modes, between
// which the median of a run's few inputs jumps.
//
// --trace 0 runs scenarios through flow::Pipeline::standard on a private
// ObfuscationFlow (the body of flow::run_scenario, which `mvf run`, `mvf
// attack` and `mvf batch` use) and prints the end-to-end metrics.  --trace 1
// runs every input twice, untraced and through the traced pipeline of
// traced.cpp, and prints the per-layer metrics.  Every scenario's output is
// checked by check.cpp; its work counters must repeat exactly between the
// untraced and traced runs and between runs at the same seed.  The last
// line of stdout is one JSON object; the exit code is nonzero when any
// check failed.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "check.hpp"
#include "flow/batch_runner.hpp"
#include "flow/pipeline.hpp"
#include "inputs.hpp"
#include "sbox/sbox_data.hpp"
#include "spans.hpp"
#include "traced.hpp"

namespace {

using perfbench::Clock;
namespace flow = mvf::flow;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------- workloads --

constexpr int kMultWidth = 6;
constexpr double kMultCamoDensity = 0.03;
// Set-up takes ~0.2 ms.  Over ten processes the median of 101 passes
// spread 0.24 (interquartile range over median), that of 2001 passes 0.05.
constexpr int kSetupRepeats = 2001;

struct Workload {
    std::string name;
    std::string family;  ///< "present" or "circuit"
    int n = 0;           ///< merge width (S-box workloads)
    /// The layer group the traced run should find dominant.
    std::string predicted_dominant;
    /// Scenarios a run measures per second of --seconds.  A run measures a
    /// fixed number of inputs, so two builds are compared on the same
    /// inputs; the rates make a run last about --seconds on a 4-vCPU
    /// 2.1 GHz Xeon host.
    double scenarios_per_s = 0.0;
};

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> all = {
        {"flow-present4", "present", 4, "ga-fitness", 2.0 / 30.0},
        {"attack-present2", "present", 2, "count", 24.0 / 30.0},
        {"cegar-mult6", "circuit", 0, "sat", 44.0 / 30.0},
    };
    return all;
}

/// Inputs shared by every scenario of one run.
struct RunInputs {
    std::string work_dir;  ///< where generated circuit files go
    std::vector<mvf::sbox::Sbox> sboxes;  ///< S-box workloads (reference)
};

/// Scenario `index` of a run.  Circuit workloads get a multiplier BLIF of
/// their own (gate order and net names from the scenario's seed), written
/// by write_inputs() before the scenario is timed.
flow::Scenario make_scenario(const Workload& w, const RunInputs& in,
                             std::uint64_t seed, int index) {
    flow::Scenario s;
    const std::uint64_t sub = perfbench::sub_seed(seed, index);
    s.name = w.name + "-" + std::to_string(index);
    s.params.seed = sub;
    if (w.name == "flow-present4") {
        s.family = "present";
        s.n = w.n;
    } else if (w.name == "attack-present2") {
        s.family = "present";
        s.n = w.n;
        // `mvf attack --quick` GA budget; the random-sampling budget and
        // the count budgets are scaled down from the defaults and --quick's
        // so that a run holds enough scenarios for a steady mean (see
        // benchmark_record.json).  Both counts still exhaust their budget.
        s.params.ga.population = 8;
        s.params.ga.generations = 4;
        s.params.random_queries = 16;
        s.params.oracle.max_survivors = 16;
        s.params.oracle.count_max_decisions = 500;
        s.params.adversaries = mvf::attack::AdversaryRegistry::instance().names();
    } else {
        s.family = "circuit";
        s.params.circuit.path = in.work_dir + "/mult" + std::to_string(kMultWidth) + "-s" +
                                std::to_string(seed) + ".blif";
        s.params.circuit.camo_density = kMultCamoDensity;
        s.params.circuit.camo_seed = sub;
        s.params.circuit.camo_policy = "random";
        s.params.adversaries = {"cegar"};
    }
    return s;
}

/// The scenario's input file, if it has one.
std::string circuit_text(const flow::Scenario& s) {
    return s.family == "circuit" ? perfbench::multiplier_blif(kMultWidth, s.params.seed) : "";
}

void write_inputs(const flow::Scenario& s) {
    if (s.family != "circuit") return;
    std::ofstream out(s.params.circuit.path);
    out << circuit_text(s);
    if (!out) throw std::runtime_error("cannot write " + s.params.circuit.path);
}

/// One set-up pass: generate the first scenario's inputs (in memory; files
/// are written outside the timed region), build the gate and camo
/// libraries (an ObfuscationFlow) and instantiate every registered
/// adversary.
RunInputs setup(const Workload& w, std::uint64_t seed, const std::string& work_dir) {
    RunInputs in;
    in.work_dir = work_dir;
    if (w.family != "circuit") in.sboxes = mvf::sbox::present_viable_set(w.n);
    const flow::Scenario first = make_scenario(w, in, seed, 0);
    (void)flow::scenario_functions(first);
    (void)circuit_text(first);
    const flow::ObfuscationFlow engine;
    mvf::attack::AdversaryRegistry& registry = mvf::attack::AdversaryRegistry::instance();
    for (const std::string& name : registry.names()) {
        (void)registry.create(name, mvf::attack::AdversaryOptions{});
    }
    return in;
}

// ------------------------------------------------------------- scenarios --

struct Outcome {
    bool ok = false;
    std::string error;
    double seconds = 0.0;
    std::map<std::string, double> stage_s;  ///< from the ProgressFn events
    flow::FlowResult result;
};

Outcome run_scenario(const flow::Scenario& s, perfbench::TraceScope* scope) {
    Outcome out;
    const Clock::time_point t0 = Clock::now();
    try {
        const std::vector<flow::ViableFunction> functions = flow::scenario_functions(s);
        flow::ObfuscationFlow engine;
        flow::FlowContext ctx(engine, functions, s.params);
        ctx.progress = [&out](const flow::StageEvent& e) {
            if (e.completed && !e.cached) out.stage_s[std::string(e.stage)] += e.seconds;
        };
        const flow::Pipeline pipeline = scope ? perfbench::traced_pipeline(s.params, scope)
                                              : flow::Pipeline::standard(s.params);
        const flow::PipelineStatus status = pipeline.run(ctx);
        out.seconds = seconds_since(t0);
        out.ok = status.completed;
        if (!out.ok) out.error = "stopped before " + status.stopped_before;
        out.result = std::move(ctx.result);
    } catch (const std::exception& e) {
        out.seconds = seconds_since(t0);
        out.error = e.what();
    }
    return out;
}

/// Work counters that must repeat exactly for the same input.
std::string work_counters(const flow::FlowResult& r) {
    std::uint64_t queries = 0, conflicts = 0, decisions = 0, props = 0, count_dec = 0;
    std::string survivors;
    for (const mvf::attack::AdversaryReport& a : r.attack_reports) {
        queries += static_cast<std::uint64_t>(a.queries);
        conflicts += a.sat.conflicts;
        decisions += a.sat.decisions;
        props += a.sat.propagations;
        count_dec += a.count.decisions;
        survivors += " " + a.adversary + "=" +
                     (a.survivors_str.empty() ? std::to_string(a.survivors) : a.survivors_str);
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "area_ge=%.17g ga.evals=%zu attack.queries=%llu sat.conflicts=%llu "
                  "sat.decisions=%llu sat.propagations=%llu count.decisions=%llu",
                  r.ga_tm_area,
                  static_cast<std::size_t>(r.ga.history.evaluations) + r.random_areas.size(),
                  static_cast<unsigned long long>(queries),
                  static_cast<unsigned long long>(conflicts),
                  static_cast<unsigned long long>(decisions),
                  static_cast<unsigned long long>(props),
                  static_cast<unsigned long long>(count_dec));
    return buf + survivors;
}

/// What a scenario's netlist must compute: the S-box tables through the
/// flow's chosen pin assignment, or the product of the operands.
perfbench::Reference reference_for(const Workload& w, const RunInputs& in,
                                   const flow::FlowResult& r) {
    perfbench::Reference ref;
    if (w.family == "circuit") {
        ref.kind = perfbench::Reference::Kind::kProduct;
        ref.width = kMultWidth;
    } else {
        ref.sboxes = in.sboxes;
        ref.assignment = r.ga.best;
    }
    return ref;
}

/// The independent output checks; returns the failures.
std::vector<std::string> check_outcome(const Workload& w, const RunInputs& in,
                                       const Outcome& o) {
    if (!o.ok) return {"scenario failed: " + o.error};
    const flow::FlowResult& r = o.result;
    if (!r.camouflaged) return {"no camouflaged netlist"};
    const mvf::camo::CamoNetlist& netlist = *r.camouflaged;
    const perfbench::Reference ref = reference_for(w, in, r);
    const int codes = w.family == "circuit" ? 1 : w.n;
    std::vector<std::string> failures;
    const auto expect = [&failures](const std::string& what, const std::string& why) {
        if (!why.empty()) failures.push_back(what + ": " + why);
    };
    for (int code = 0; code < codes; ++code) {
        try {
            expect("select code " + std::to_string(code),
                   perfbench::compare(netlist, perfbench::recorded_config(netlist, code),
                                      ref, code));
        } catch (const std::exception& e) {
            expect("select code " + std::to_string(code), e.what());
        }
    }
    for (const mvf::attack::AdversaryReport& a : r.attack_reports) {
        if (a.adversary == "plausibility" && a.survivors != static_cast<std::uint64_t>(w.n)) {
            expect("plausibility", std::to_string(a.survivors) + " of " +
                                       std::to_string(w.n) + " viable functions plausible");
        }
        if (a.adversary == "cegar" || a.adversary == "random-sampling") {
            if (a.survivors == 0) expect(a.adversary, "no surviving configuration");
        }
        if (a.adversary == "cegar") {
            if (!r.oracle_attack || r.oracle_attack->witness_config.empty()) {
                expect("cegar", "no surviving configuration to check");
            } else {
                expect("cegar survivor",
                       perfbench::compare(netlist, r.oracle_attack->witness_config, ref, 0));
            }
        }
    }
    if (w.family != "circuit" && !r.verified) {
        expect("flow validation", "the flow's own replay did not verify");
    }
    return failures;
}

// ----------------------------------------------------- counter history --

/// Identifies the benchmark binary, so counters recorded by another build
/// are not compared.
std::string build_id() {
    struct stat st {};
    if (stat("/proc/self/exe", &st) != 0) return "unknown";
    return std::to_string(static_cast<long long>(st.st_mtime)) + "-" +
           std::to_string(static_cast<long long>(st.st_size));
}

/// Compares this run's counters with those an earlier run of the same
/// build, workload and seed recorded, then records the union.  Returns the
/// scenario indices whose counters differ.
std::vector<int> compare_history(const std::string& path,
                                 const std::map<int, std::string>& now) {
    std::map<int, std::string> seen;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t tab = line.find('\t');
            if (tab == std::string::npos) continue;
            seen[std::atoi(line.substr(0, tab).c_str())] = line.substr(tab + 1);
        }
    }
    std::vector<int> differ;
    for (const auto& [k, counters] : now) {
        const auto it = seen.find(k);
        if (it != seen.end() && it->second != counters) differ.push_back(k);
        seen[k] = counters;
    }
    std::ofstream out(path);
    for (const auto& [k, counters] : seen) out << k << '\t' << counters << '\n';
    return differ;
}

// ------------------------------------------------------------- reporting --

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Prints `name` as a mean with its sample count.
Metric report_mean(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit) {
    double sum = 0.0;
    for (const double v : samples) sum += v;
    const double mean = samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    std::printf("  %-28s %14.6f %-6s mean of n=%zu\n", name.c_str(), mean, unit.c_str(),
                samples.size());
    return {name, mean, unit};
}

/// Prints `name` as a median with its sample count and, when at least ten
/// samples lie beyond it, the highest such percentile.
Metric report_median(const std::string& name, const std::vector<double>& samples,
                     const std::string& unit) {
    const double med = median(samples);
    const std::size_t n = samples.size();
    std::printf("  %-28s %14.6f %-6s median of n=%zu", name.c_str(), med, unit.c_str(), n);
    if (n >= 20) {
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const double pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
        std::printf(", p%.0f=%.6f", std::floor(pct), sorted[n - 11]);
    }
    std::printf("\n");
    return {name, med, unit};
}

std::string json_result(bool correct, int attempted, int failed,
                        const std::vector<Metric>& metrics) {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << value
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

double peak_rss_mb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-layer figures of one traced scenario.
std::map<std::string, double> layer_metrics(const perfbench::SpanRecorder& rec, int scenario,
                                            const perfbench::TracedCounters& c,
                                            const Outcome& traced) {
    std::map<std::string, double> m;
    std::map<std::string, double> inclusive;
    double ga_self = 0.0;
    for (const perfbench::SpanRecord& s : rec.spans()) {
        if (s.scenario != scenario) continue;
        const double d = s.end_s - s.start_s;
        inclusive[s.name] += d;
        if (s.name == "ga.search" || s.name == "ga.random") ga_self += d - s.child_s;
    }
    const flow::FlowResult& r = traced.result;
    m["ga.evals"] = c.fitness_calls;
    m["ga.eval_s"] = inclusive["ga.eval"];
    m["ga.eval_us_p50"] = median(c.eval_us);
    m["ga.self_s"] = ga_self;
    m["synth.calls"] = c.synth_calls;
    m["synth.build_s"] = inclusive["synth.build"];
    m["synth.optimize_s"] = inclusive["synth.optimize"];
    m["synth.ands_out"] = static_cast<double>(c.synth_ands_out);
    m["map.calls"] = c.map_calls;
    m["map.s"] = inclusive["map"];
    m["map.cells_out"] = static_cast<double>(c.map_cells_out);
    m["camo.cover_s"] = inclusive["camo.cover"];
    m["camo.inject_s"] = inclusive["camo.inject"];
    m["camo.cells"] = r.camo_stats.num_cells;
    m["camo.config_bits"] = r.camo_stats.config_space_bits;
    m["io.load_s"] = inclusive["io.load"];
    m["io.map_s"] = inclusive["io.map"];
    m["io.aig_ands"] = static_cast<double>(c.io_aig_ands);
    m["attack.cegar_s"] = inclusive["attack.cegar"];
    m["attack.plausibility_s"] = inclusive["attack.plausibility"];
    m["attack.random_sampling_s"] = inclusive["attack.random_sampling"];
    const double oracle_s = inclusive["oracle.query"] + inclusive["oracle.block"];
    m["oracle.s"] = oracle_s;
    m["oracle.scalar_queries"] = static_cast<double>(c.oracle_scalar);
    m["oracle.block_calls"] = static_cast<double>(c.oracle_blocks);
    m["oracle.patterns"] = static_cast<double>(c.oracle_patterns);
    m["oracle.patterns_per_s"] = oracle_s > 0 ? c.oracle_patterns / oracle_s : 0.0;
    double queries = 0, solves = 0, solve_s = 0, conflicts = 0, decisions = 0, props = 0,
           learned = 0, eliminated = 0, exact = 0, cdec = 0, cprops = 0, comps = 0, hits = 0,
           stores = 0, peak = 0, evictions = 0;
    for (const mvf::attack::AdversaryReport& a : r.attack_reports) {
        queries += a.queries;
        solves += static_cast<double>(a.sat.solves);
        solve_s += a.sat.solve_seconds;
        conflicts += static_cast<double>(a.sat.conflicts);
        decisions += static_cast<double>(a.sat.decisions);
        props += static_cast<double>(a.sat.propagations);
        learned += static_cast<double>(a.sat.learned);
        eliminated += static_cast<double>(a.sat.eliminated_vars);
        if (a.count_mode == "exact") ++exact;
        cdec += static_cast<double>(a.count.decisions);
        cprops += static_cast<double>(a.count.propagations);
        comps += static_cast<double>(a.count.components);
        hits += static_cast<double>(a.count.cache_hits);
        stores += static_cast<double>(a.count.cache_stores);
        evictions += static_cast<double>(a.count.cache_evictions);
        peak = std::max(peak, static_cast<double>(a.count.cache_peak_bytes));
    }
    m["attack.queries"] = queries;
    m["sat.solves"] = solves;
    m["sat.solve_s"] = solve_s;
    m["sat.conflicts"] = conflicts;
    m["sat.decisions"] = decisions;
    m["sat.propagations"] = props;
    m["sat.props_per_s"] = solve_s > 0 ? props / solve_s : 0.0;
    m["sat.learned"] = learned;
    m["sat.eliminated_vars"] = eliminated;
    m["count.calls"] = c.count_calls;
    m["count.s"] = inclusive["count"];
    m["count.exact"] = exact;
    m["count.exact_ratio"] = c.count_calls > 0 ? exact / c.count_calls : 0.0;
    m["count.decisions"] = cdec;
    m["count.propagations"] = cprops;
    m["count.components"] = comps;
    m["count.cache_hit_ratio"] = hits + stores > 0 ? hits / (hits + stores) : 0.0;
    m["count.cache_peak_mb"] = peak / (1024.0 * 1024.0);
    m["count.cache_evictions"] = evictions;
    return m;
}

struct PerLayerDef {
    const char* name;
    const char* unit;
};

constexpr PerLayerDef kPerLayer[] = {
    {"stage.pin-search_s", "s"}, {"stage.synthesize_s", "s"}, {"stage.camo-cover_s", "s"},
    {"stage.validate_s", "s"}, {"stage.import_s", "s"}, {"stage.camo-inject_s", "s"},
    {"stage.attack_s", "s"},
    {"ga.evals", "count"}, {"ga.eval_s", "s"}, {"ga.eval_us_p50", "us"}, {"ga.self_s", "s"},
    {"synth.calls", "count"}, {"synth.build_s", "s"}, {"synth.optimize_s", "s"},
    {"synth.ands_out", "count"},
    {"map.calls", "count"}, {"map.s", "s"}, {"map.cells_out", "count"},
    {"camo.cover_s", "s"}, {"camo.inject_s", "s"}, {"camo.cells", "count"},
    {"camo.config_bits", "bits"},
    {"io.load_s", "s"}, {"io.map_s", "s"}, {"io.aig_ands", "count"},
    {"attack.cegar_s", "s"}, {"attack.queries", "count"}, {"attack.plausibility_s", "s"},
    {"attack.random_sampling_s", "s"},
    {"oracle.s", "s"}, {"oracle.scalar_queries", "count"}, {"oracle.block_calls", "count"},
    {"oracle.patterns", "count"}, {"oracle.patterns_per_s", "1/s"},
    {"sat.solves", "count"}, {"sat.solve_s", "s"}, {"sat.conflicts", "count"},
    {"sat.decisions", "count"}, {"sat.propagations", "count"}, {"sat.props_per_s", "1/s"},
    {"sat.learned", "count"}, {"sat.eliminated_vars", "count"},
    {"count.calls", "count"}, {"count.s", "s"}, {"count.exact", "count"},
    {"count.exact_ratio", "ratio"}, {"count.decisions", "count"},
    {"count.propagations", "count"}, {"count.components", "count"},
    {"count.cache_hit_ratio", "ratio"}, {"count.cache_peak_mb", "MB"},
    {"count.cache_evictions", "count"},
    {"trace.other_s", "s"}, {"trace.overhead_pct", "%"},
};

/// Layer-group self time of one traced scenario: "ga-fitness" is the whole
/// fitness-evaluation subtree; every other span counts toward its own
/// layer; what no span covers is "other".
std::map<std::string, double> coverage(const perfbench::SpanRecorder& rec, int scenario,
                                       double wall) {
    const std::vector<perfbench::SpanRecord>& spans = rec.spans();
    std::map<std::string, double> groups;
    double top = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::SpanRecord& s = spans[i];
        if (s.scenario != scenario) continue;
        if (s.parent < 0) top += s.end_s - s.start_s;
        bool in_fitness = false;
        for (int p = static_cast<int>(i); p >= 0; p = spans[static_cast<std::size_t>(p)].parent) {
            if (spans[static_cast<std::size_t>(p)].name == "ga.eval") in_fitness = true;
        }
        double self = s.end_s - s.start_s - s.child_s;
        if (!s.external_layer.empty()) {
            self -= s.external_s;
            groups[in_fitness ? "ga-fitness" : s.external_layer] += s.external_s;
        }
        groups[in_fitness ? "ga-fitness" : perfbench::SpanRecorder::layer_of(s.name)] += self;
    }
    groups["other"] = wall - top;
    return groups;
}

// ----------------------------------------------------------------- main --

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string work_dir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args* a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            a->workload = value;
        } else if (key == "--seed") {
            a->seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            a->seconds = std::atof(value.c_str());
        } else if (key == "--trace") {
            a->trace = std::atoi(value.c_str());
        } else if (key == "--work-dir") {
            a->work_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
           (a->trace == 0 || a->trace == 1);
}

int run(const Args& args) {
    const auto it = std::find_if(workloads().begin(), workloads().end(),
                                 [&](const Workload& w) { return w.name == args.workload; });
    if (it == workloads().end()) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
        return 2;
    }
    const Workload& w = *it;
    const bool traced = args.trace == 1;
    std::printf("workload %s seed %llu seconds %.0f trace %d\n", w.name.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace);

    // Set-up, repeated; its median is setup_s.
    std::vector<double> setup_s;
    RunInputs inputs;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const Clock::time_point t0 = Clock::now();
        inputs = setup(w, args.seed, args.work_dir);
        setup_s.push_back(seconds_since(t0));
    }

    perfbench::SpanRecorder recorder;
    std::vector<double> scenario_s, flow_s, attack_s, area;
    std::map<std::string, std::vector<double>> stage_s, layer;
    std::vector<double> traced_s;
    std::map<std::string, double> group_total;
    double traced_total = 0.0;
    std::map<int, std::string> counters;
    int attempted = 0, failed = 0, exact_counts = 0, counts = 0;
    std::vector<std::string> problems;

    // A traced iteration runs its input twice (untraced, then traced).
    const int iterations = std::max(
        2, static_cast<int>(std::lround(args.seconds * w.scenarios_per_s / (traced ? 2 : 1))));
    for (int k = 0; k < iterations; ++k) {
        const flow::Scenario scenario = make_scenario(w, inputs, args.seed, k);
        write_inputs(scenario);
        const Outcome plain = run_scenario(scenario, nullptr);
        ++attempted;
        std::vector<std::string> fails = check_outcome(w, inputs, plain);
        if (k == 0 && plain.ok && plain.result.camouflaged) {
            // The checker must reject a corrupted configuration.
            const mvf::camo::CamoNetlist& nl = *plain.result.camouflaged;
            const std::string why = perfbench::self_test(
                nl, perfbench::recorded_config(nl, 0), reference_for(w, inputs, plain.result));
            if (!why.empty()) problems.push_back("check self-test: " + why);
        }
        if (!fails.empty()) ++failed;
        for (const std::string& f : fails) problems.push_back(scenario.name + ": " + f);

        scenario_s.push_back(plain.seconds);
        double fs = 0.0;
        for (const auto& [stage, sec] : plain.stage_s) {
            if (stage != "attack") fs += sec;
        }
        flow_s.push_back(fs);
        attack_s.push_back(plain.stage_s.count("attack") ? plain.stage_s.at("attack") : 0.0);
        area.push_back(plain.result.ga_tm_area);
        for (const mvf::attack::AdversaryReport& a : plain.result.attack_reports) {
            if (a.count_mode.empty()) continue;
            ++counts;
            if (a.count_mode == "exact") ++exact_counts;
        }
        const std::string plain_counters = work_counters(plain.result);
        counters[k] = plain_counters;
        std::printf("  %s: %.3f s (flow %.3f s, attack %.3f s, area %.1f GE)%s\n",
                    scenario.name.c_str(), plain.seconds, fs, attack_s.back(),
                    area.back(), fails.empty() ? "" : " CHECK FAILED");

        if (traced) {
            for (const PerLayerDef& d : kPerLayer) {
                const std::string name = d.name;
                if (name.rfind("stage.", 0) == 0) {
                    const std::string stage = name.substr(6, name.size() - 8);
                    stage_s[name].push_back(plain.stage_s.count(stage) ? plain.stage_s.at(stage)
                                                                       : 0.0);
                }
            }
            perfbench::TraceScope scope;
            scope.recorder = &recorder;
            scope.scenario = k;
            const Outcome t = run_scenario(scenario, &scope);
            ++attempted;
            std::vector<std::string> tfails = check_outcome(w, inputs, t);
            if (t.ok && work_counters(t.result) != plain_counters) {
                tfails.push_back("traced work counters differ: " + work_counters(t.result) +
                                 " vs " + plain_counters);
            }
            if (t.ok && scope.counters.fitness_calls !=
                            t.result.ga.history.evaluations +
                                static_cast<int>(t.result.random_areas.size())) {
                tfails.push_back("traced fitness calls differ from the GA's evaluations");
            }
            if (!tfails.empty()) ++failed;
            for (const std::string& f : tfails) problems.push_back(scenario.name + " traced: " + f);
            traced_s.push_back(t.seconds);
            std::map<std::string, double> m = layer_metrics(recorder, k, scope.counters, t);
            const std::map<std::string, double> groups = coverage(recorder, k, t.seconds);
            m["trace.other_s"] = groups.at("other");
            for (const auto& [name, v] : m) layer[name].push_back(v);
            for (const auto& [g, v] : groups) group_total[g] += v;
            traced_total += t.seconds;
        }
    }

    const std::string history = args.work_dir + "/counters-" + w.name + "-s" +
                                std::to_string(args.seed) + "-" + build_id() + ".tsv";
    for (const int k : compare_history(history, counters)) {
        ++failed;
        problems.push_back(w.name + "-" + std::to_string(k) +
                           ": work counters differ from an earlier run at this seed");
    }

    std::printf("scenarios: %d attempted, %d failed\n", attempted, failed);
    std::printf("counters of scenario 0: %s\n", counters[0].c_str());
    for (const std::string& p : problems) std::printf("CHECK FAILED %s\n", p.c_str());

    std::vector<Metric> metrics;
    if (!traced) {
        std::printf("end-to-end metrics:\n");
        metrics.push_back(report_median("setup_s", setup_s, "s"));
        metrics.push_back(report_mean("scenario_s", scenario_s, "s"));
        report_median("scenario_s", scenario_s, "s");
        metrics.push_back(report_median("area_ge", area, "GE"));
        metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
        std::printf("  %-28s %14.6f %-6s\n", "peak_rss_mb", metrics.back().value, "MB");
        // Not in the JSON: attack_s and exact_count_share are 0 on some
        // workload, failed_share is the JSON's failed / attempted, and the
        // short flow stages of cegar-mult6 swing with the host's speed more
        // than any bound allows (see benchmark_record.json).
        report_mean("flow_s", flow_s, "s");
        report_mean("attack_s", attack_s, "s");
        std::printf("  %-28s %14.6f %-6s (%d exact of %d counts)\n",
                    "exact_count_share", counts ? static_cast<double>(exact_counts) / counts : 0.0,
                    "ratio", exact_counts, counts);
        std::printf("  %-28s %14.6f %-6s (%d of %d scenarios)\n",
                    "failed_share", static_cast<double>(failed) / attempted, "ratio", failed,
                    attempted);
    } else {
        std::printf("per-layer metrics (medians over %zu traced scenarios):\n", traced_s.size());
        for (const PerLayerDef& d : kPerLayer) {
            const std::string name = d.name;
            std::vector<double> samples;
            if (name == "trace.overhead_pct") {
                samples = {100.0 * (median(traced_s) / median(scenario_s) - 1.0)};
            } else if (name.rfind("stage.", 0) == 0) {
                samples = stage_s[name];
            } else {
                samples = layer[name];
            }
            metrics.push_back(report_median(name, samples, d.unit));
        }
        std::printf("traced-run coverage (self time share of %.3f s traced):\n", traced_total);
        std::string dominant;
        double best = -1.0;
        for (const auto& [g, v] : group_total) {
            std::printf("  %-12s %6.1f%%  %.3f s\n", g.c_str(), 100.0 * v / traced_total, v);
            if (g != "other" && v > best) {
                best = v;
                dominant = g;
            }
        }
        std::printf("dominant layer: %s (predicted %s) -- %s\n", dominant.c_str(),
                    w.predicted_dominant.c_str(),
                    dominant == w.predicted_dominant ? "prediction holds"
                                                     : "PREDICTION DOES NOT HOLD");
        const std::string trace_path = args.work_dir + "/trace-" + w.name + "-s" +
                                       std::to_string(args.seed) + ".json";
        if (!recorder.write_json(trace_path)) {
            problems.push_back("cannot write " + trace_path);
        } else {
            std::printf("spans written to %s\n", trace_path.c_str());
        }
    }
    const bool correct = failed == 0 && problems.empty();
    std::printf("%s\n", json_result(correct, attempted, failed, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: mvf_perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--work-dir DIR]\n");
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
