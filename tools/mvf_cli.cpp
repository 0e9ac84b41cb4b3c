// mvf -- experiment driver for the multiple-viable-function flow.
//
// New workloads need zero C++: scenarios are described by flags or a plain
// text spec file and executed through the same flow::Pipeline /
// flow::BatchRunner API the library exposes.  `mvf help` lists the
// commands and options; the scenario flags (run/attack) and spec-file keys
// (batch/submit) come from one table, flow/scenario_schema.hpp.
//
// Exit codes: 0 success; 1 scenario/validation failure; 2 usage error.

#include <charconv>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "audit/attack_proof.hpp"
#include "camo/camo_cell.hpp"
#include "flow/batch_runner.hpp"
#include "flow/scenario_schema.hpp"
#include "flow/stage_io.hpp"
#include "map/gate_library.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/json.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/socket.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace mvf;

int usage() {
    std::string text =
        "usage: mvf <command> [options]\n"
        "\n"
        "commands:\n"
        "  run          run one scenario end to end\n"
        "  attack       run one scenario and red-team it (default: every\n"
        "               registered adversary; with --circuit only the\n"
        "               oracle-granted ones: cegar, random-sampling)\n"
        "  batch        run a scenario spec file, optionally in parallel\n"
        "  serve        start the persistent experiment server\n"
        "  submit       submit a spec file to a running server\n"
        "  watch        attach to a running server job's progress stream\n"
        "  status       show a server's jobs and stage-cache stats\n"
        "  cancel       cancel a server job\n"
        "  shutdown     stop a running server\n"
        "  adversaries  list the registered adversaries\n"
        "  check-report validate a batch JSON report\n"
        "  check-trace  validate a trace file written by --trace\n"
        "  verify-proof verify an attack-proof artifact written by\n"
        "               --emit-proof (chip-free replay + commitment check)\n"
        "\n"
        "run/attack options:\n"
        "  --json FILE        also write the JSON record(s) to FILE\n"
        "\n"
        "scenario knobs, as a run/attack flag and as the key of a spec file\n"
        "(batch/submit: one scenario per line of key=value tokens, '#'\n"
        "starts a comment); contradictory knobs are usage errors:\n";
    text += flow::knob_usage();
    text +=
        "\n"
        "observability options (run/attack/batch):\n"
        "  --trace FILE       stream structured span/counter events to FILE\n"
        "                     (per CEGAR iteration, pipeline stage, scenario)\n"
        "  --trace-format F   ndjson (default; one JSON record per line) or\n"
        "                     chrome (load in Perfetto / chrome://tracing)\n"
        "  --metrics          collect latency histograms and counters; the\n"
        "                     registry snapshot is printed (and embedded in\n"
        "                     the --json report as \"metrics\")\n"
        "\n"
        "batch options (scenario knobs go in the spec, not on the command line):\n"
        "  --spec FILE        scenario spec (required)\n"
        "  --jobs N           worker threads (default 1)\n"
        "  --json FILE        write the batch report to FILE\n"
        "  --verbose          per-scenario progress on stderr\n"
        "\n"
        "serve options:\n"
        "  --listen ADDR      unix:/path.sock or tcp:host:port (port 0 =\n"
        "                     kernel-assigned; the bound address is printed)\n"
        "  --jobs N           scheduler worker threads (default 2)\n"
        "  --cache-mb N       in-memory stage-cache budget (default 256)\n"
        "  --cache-dir DIR    spill stage snapshots to DIR (cache survives\n"
        "                     restarts and memory eviction)\n"
        "  --verbose          per-request logging on stderr\n"
        "\n"
        "client options (submit/watch/status/cancel/shutdown):\n"
        "  --connect ADDR     server address (required)\n"
        "  --spec FILE        scenario spec to submit (submit)\n"
        "  --job ID           job id (watch/cancel; optional for status)\n"
        "  --stream           stream NDJSON progress records (submit)\n"
        "  --trace-out FILE   tee streamed records to FILE (implies --stream;\n"
        "                     the file passes mvf check-trace)\n"
        "  --no-wait          return after the ack, don't wait for results\n"
        "  --timeout S        server-side job deadline in seconds\n"
        "  --json FILE        write the results report to FILE\n";
    std::fputs(text.c_str(), stderr);
    return 2;
}

/// Option parsing throws std::invalid_argument; each command reports it as
/// a usage error (exit 2) before doing any work.
int usage_error(const char* command, const std::exception& e) {
    std::fprintf(stderr, "mvf %s: %s\n", command, e.what());
    return 2;
}

std::string take_value(const std::vector<std::string>& args, std::size_t* i) {
    if (*i + 1 >= args.size()) {
        throw std::invalid_argument(args[*i] + " needs a value");
    }
    return args[++*i];
}

/// The value of args[*i] as a number of type T.
template <class T>
T take_number(const std::vector<std::string>& args, std::size_t* i) {
    const std::string& flag = args[*i];
    const std::string value = take_value(args, i);
    T parsed{};
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (value.empty() || ec != std::errc() || ptr != end) {
        throw std::invalid_argument(flag + " expects a number, got \"" + value + "\"");
    }
    return parsed;
}

/// The value of args[*i] as an integer >= 1.
int take_positive(const std::vector<std::string>& args, std::size_t* i) {
    const std::string flag = args[*i];
    const int n = take_number<int>(args, i);
    if (n <= 0) throw std::invalid_argument(flag + " must be > 0");
    return n;
}

/// Process-level observability switches (run/attack/batch).
struct ObsFlags {
    std::string trace_path;  ///< empty = tracing off
    obs::TraceFormat trace_format = obs::TraceFormat::kNdjson;
    bool metrics = false;
};

/// Consumes one observability flag; false when args[*i] is not one.
bool take_obs_flag(const std::vector<std::string>& args, std::size_t* i,
                   ObsFlags* flags) {
    const std::string& arg = args[*i];
    if (arg == "--trace") {
        flags->trace_path = take_value(args, i);
    } else if (arg == "--trace-format") {
        const std::string value = take_value(args, i);
        if (!obs::trace_format_from_name(value, &flags->trace_format)) {
            throw std::invalid_argument("--trace-format expects ndjson or chrome, got \"" +
                                        value + "\"");
        }
    } else if (arg == "--metrics") {
        flags->metrics = true;
    } else {
        return false;
    }
    return true;
}

void print_record(const flow::ScenarioRecord& r) {
    if (r.family == flow::kCircuitFamily) {
        std::printf("scenario %s (circuit seed=%llu)\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.seed));
    } else {
        std::printf("scenario %s (funcs=%s:%d seed=%llu)\n", r.name.c_str(),
                    r.family.c_str(), r.n,
                    static_cast<unsigned long long>(r.seed));
    }
    if (!r.ok) {
        std::printf("  FAILED: %s\n", r.error.c_str());
        return;
    }
    if (r.random_best > 0.0) {
        std::printf("  random      %8.1f GE avg, %8.1f GE best\n", r.random_avg,
                    r.random_best);
    }
    std::printf("  GA          %8.1f GE\n", r.ga_area);
    if (r.ga_tm_area > 0.0) {
        std::printf("  GA+TM       %8.1f GE  (%.0f%% vs best random)\n",
                    r.ga_tm_area, r.improvement_percent);
        std::printf("  camouflage  %d cells, configuration space 2^%.0f, %s\n",
                    r.camo_cells, r.config_space_bits,
                    r.verified ? "all configurations verified"
                               : "NOT verified");
    }
    for (const attack::AdversaryReport& a : r.attacks) {
        // survivors_str carries full precision (counting adversaries can
        // exceed uint64); fall back to the numeric field for the others.
        const std::string survivors = a.survivors_str.empty()
                                          ? std::to_string(a.survivors)
                                          : a.survivors_str;
        std::printf("  adversary %-13s %-7s %s: %d queries, %s survivors%s%s, %.2fs\n",
                    a.adversary.c_str(), a.success ? "SUCCESS" : "failed",
                    a.outcome.c_str(), a.queries, survivors.c_str(),
                    a.count_mode.empty() ? "" : " via ",
                    a.count_mode.c_str(), a.seconds);
        if (!(a.oracle == attack::OracleStats{})) {
            std::printf(
                "    oracle: %llu patterns (%llu scalar, %llu block calls), "
                "%llu cache hits, %llu noisy bits%s\n",
                static_cast<unsigned long long>(a.oracle.patterns),
                static_cast<unsigned long long>(a.oracle.scalar_queries),
                static_cast<unsigned long long>(a.oracle.block_queries),
                static_cast<unsigned long long>(a.oracle.cache_hits),
                static_cast<unsigned long long>(a.oracle.noisy_bits),
                a.oracle.budget_exhausted ? ", budget exhausted" : "");
        }
    }
    std::printf("  %.1fs\n", r.seconds);
}

int write_report(const std::string& path,
                 const std::vector<flow::ScenarioRecord>& records,
                 double total_seconds, const report::Json* metrics) {
    report::Json doc = flow::batch_report(records, total_seconds);
    if (metrics) doc.set("metrics", *metrics);
    const report::JsonWriter writer(path);
    if (!writer.write(doc)) {
        std::fprintf(stderr, "mvf: cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

int run_scenarios(const std::vector<flow::Scenario>& scenarios, int jobs,
                  bool verbose, const std::string& json_path,
                  const ObsFlags& obs_flags) {
    // The sink outlives the batch; uninstall before it is destroyed so no
    // late event races the close.
    std::optional<obs::TraceSink> sink;
    if (!obs_flags.trace_path.empty()) {
        sink.emplace(obs_flags.trace_path, obs_flags.trace_format);
        if (!sink->ok()) {
            std::fprintf(stderr, "mvf: cannot open trace file %s\n",
                         obs_flags.trace_path.c_str());
            return 2;
        }
        obs::set_trace_sink(&*sink);
    }
    if (obs_flags.metrics) {
        obs::MetricsRegistry::global().reset();
        obs::set_metrics_enabled(true);
    }

    util::Stopwatch sw;
    flow::BatchParams batch;
    batch.jobs = jobs;
    batch.verbose = verbose;
    const std::vector<flow::ScenarioRecord> records =
        flow::BatchRunner(batch).run(scenarios);
    const double total = sw.elapsed_seconds();

    if (sink) {
        obs::set_trace_sink(nullptr);
        sink->flush();
    }
    std::optional<report::Json> metrics;
    if (obs_flags.metrics) {
        obs::set_metrics_enabled(false);
        metrics = obs::MetricsRegistry::global().snapshot_json();
    }

    int failures = 0;
    for (const flow::ScenarioRecord& r : records) {
        print_record(r);
        if (!r.ok) ++failures;
    }
    std::printf("%d scenario%s, %d failure%s, %.1fs (jobs=%d)\n",
                static_cast<int>(records.size()),
                records.size() == 1 ? "" : "s", failures,
                failures == 1 ? "" : "s", total, jobs);
    if (metrics) {
        std::printf("metrics:\n%s\n", metrics->dump(2).c_str());
    }
    if (sink) {
        std::printf("trace written to %s (%llu events, %s)\n",
                    sink->path().c_str(),
                    static_cast<unsigned long long>(sink->events()),
                    std::string(obs::trace_format_name(sink->format())).c_str());
    }
    if (!json_path.empty()) {
        const int rc = write_report(json_path, records, total,
                                    metrics ? &*metrics : nullptr);
        if (rc != 0) return rc;
        std::printf("report written to %s\n", json_path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

/// The adversaries `mvf attack` runs when none are named: all of them, or
/// for a circuit (no viable-function set) only those that do not need one.
std::vector<std::string> default_panel(bool circuit) {
    attack::AdversaryRegistry& registry = attack::AdversaryRegistry::instance();
    std::vector<std::string> panel;
    for (const std::string& name : registry.names()) {
        if (!circuit || registry.create(name, {})->knowledge() != attack::Knowledge::kViableSet) {
            panel.push_back(name);
        }
    }
    return panel;
}

int cmd_run(const std::vector<std::string>& args, bool force_attack) {
    const char* command = force_attack ? "attack" : "run";
    flow::ScenarioBuilder builder(flow::Surface::kCli);
    flow::Scenario scenario;
    std::string json_path;
    ObsFlags obs_flags;
    try {
        bool quick = false;
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (builder.take_flag(args, &i) || take_obs_flag(args, &i, &obs_flags)) continue;
            if (args[i] == "--quick") {
                quick = true;
            } else if (args[i] == "--json") {
                json_path = take_value(args, &i);
            } else {
                throw std::invalid_argument("unknown option " + args[i]);
            }
        }
        // After the loop, so an explicit knob wins whatever the flag order.
        if (quick) builder.apply_quick_defaults();
        flow::FlowParams& params = builder.scenario().params;
        if (force_attack && params.adversaries.empty()) {
            params.adversaries = default_panel(!params.circuit.path.empty());
        }
        scenario = builder.finish();
    } catch (const std::invalid_argument& e) {
        return usage_error(command, e);
    }
    return run_scenarios({scenario}, /*jobs=*/1, /*verbose=*/false, json_path, obs_flags);
}

int cmd_batch(const std::vector<std::string>& args) {
    std::string json_path;
    std::string spec_path;
    int jobs = 1;
    bool verbose = false;
    ObsFlags obs_flags;
    std::vector<flow::Scenario> scenarios;
    try {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& arg = args[i];
            if (take_obs_flag(args, &i, &obs_flags)) continue;
            if (arg == "--spec") {
                spec_path = take_value(args, &i);
            } else if (arg == "--jobs") {
                jobs = take_positive(args, &i);
            } else if (arg == "--json") {
                json_path = take_value(args, &i);
            } else if (arg == "--verbose") {
                verbose = true;
            } else if (arg == "--quick" || flow::find_flag(arg)) {
                throw std::invalid_argument(arg + " is a scenario option; put it in the spec");
            } else {
                throw std::invalid_argument("unknown option " + arg);
            }
        }
        if (spec_path.empty()) throw std::invalid_argument("--spec FILE is required");
        scenarios = flow::load_scenario_spec(spec_path);
        if (scenarios.empty()) {
            throw std::invalid_argument(spec_path + " contains no scenarios");
        }
    } catch (const std::invalid_argument& e) {
        return usage_error("batch", e);
    }
    return run_scenarios(scenarios, jobs, verbose, json_path, obs_flags);
}

int cmd_adversaries() {
    attack::AdversaryRegistry& registry = attack::AdversaryRegistry::instance();
    const attack::AdversaryOptions probe;  // factories only need options at attack time
    for (const std::string& name : registry.names()) {
        const auto adversary = registry.create(name, probe);
        std::printf("%-14s knowledge: %s\n", name.c_str(),
                    std::string(knowledge_name(adversary->knowledge())).c_str());
    }
    return 0;
}

/// The whole FILE argument of check-report/check-trace/verify-proof, or
/// nullopt after reporting why not (*rc = the exit status).
std::optional<std::string> read_file_arg(const std::vector<std::string>& args,
                                         const char* command, int* rc) {
    if (args.empty()) {
        std::fprintf(stderr, "usage: mvf %s FILE\n", command);
        *rc = 2;
        return std::nullopt;
    }
    std::ifstream in(args[0]);
    if (!in) {
        std::fprintf(stderr, "mvf %s: cannot open %s\n", command, args[0].c_str());
        *rc = 1;
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

int cmd_check_report(const std::vector<std::string>& args) {
    int rc = 0;
    const std::optional<std::string> text = read_file_arg(args, "check-report", &rc);
    if (!text) return rc;
    const std::string& path = args[0];
    try {
        const report::Json doc = report::Json::parse(*text);
        const std::size_t declared = doc.at("scenario_count").as_uint();
        const report::Json& scenarios = doc.at("scenarios");
        if (scenarios.size() != declared) {
            std::fprintf(stderr,
                         "mvf check-report: scenario_count %zu != %zu records\n",
                         declared, scenarios.size());
            return 1;
        }
        int failures = 0;
        for (const report::Json& s : scenarios.items()) {
            // Field presence/type checks; throws JsonError when malformed.
            s.at("name").as_string();
            s.at("seconds").as_number();
            if (!s.at("ok").as_bool()) ++failures;
            for (const report::Json& a : s.at("attacks").items()) {
                attack::AdversaryReport::from_json(a);  // full round-trip check
                // The round trip alone cannot see a hand-edited
                // disagreement between the clamped numeric survivors field
                // and its authoritative decimal mirror (parsing rebuilds
                // the former from the latter); cross-check the raw
                // document explicitly.
                const std::string mismatch = attack::survivors_mismatch(a);
                if (!mismatch.empty()) {
                    std::fprintf(stderr, "mvf check-report: %s\n",
                                 mismatch.c_str());
                    return 1;
                }
            }
        }
        if (failures != doc.at("failures").as_int()) {
            std::fprintf(stderr,
                         "mvf check-report: failure count mismatch\n");
            return 1;
        }
        if (failures > 0) {
            std::fprintf(stderr, "mvf check-report: %d scenario(s) failed\n",
                         failures);
            return 1;
        }
        std::printf("%s: %zu scenario record(s), all ok\n", path.c_str(),
                    scenarios.size());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf check-report: malformed report: %s\n",
                     e.what());
        return 1;
    }
}

int cmd_verify_proof(const std::vector<std::string>& args) {
    int rc = 0;
    const std::optional<std::string> text = read_file_arg(args, "verify-proof", &rc);
    if (!text) return rc;
    const std::string& path = args[0];
    try {
        // Strict parse: a proof with duplicate keys is ambiguous evidence,
        // not a last-wins document.
        const report::Json doc = report::Json::parse_strict(*text);
        const audit::AttackProof proof = audit::AttackProof::from_json(doc);
        const camo::CamoNetlist netlist = flow::camo_netlist_from_json(
            proof.netlist,
            camo::CamoLibrary::from_gate_library(tech::GateLibrary::standard()));
        const audit::ProofVerification v = proof.verify(netlist);
        std::printf("proof %s\n", path.c_str());
        std::printf("  adversary   %s\n", proof.report.adversary.c_str());
        std::printf("  queries     %zu committed\n",
                    proof.transcript.entries.size());
        std::printf("  merkle root %s\n", proof.merkle_root.c_str());
        if (!proof.spec_hash.empty()) {
            std::printf("  spec hash   %s\n", proof.spec_hash.c_str());
        }
        std::printf("  commitments %s\n", v.commitments_ok ? "ok" : "MISMATCH");
        std::printf("  replay      %s\n", v.replay_ok ? "ok" : "MISMATCH");
        for (const std::string& f : v.failures) {
            std::fprintf(stderr, "mvf verify-proof: %s\n", f.c_str());
        }
        // Machine-parsable verdict line, mirroring check-report.
        std::printf("verify-proof: %s %s\n", v.ok ? "PASS" : "FAIL",
                    path.c_str());
        return v.ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf verify-proof: malformed proof: %s\n",
                     e.what());
        std::printf("verify-proof: FAIL %s\n", path.c_str());
        return 1;
    }
}

// ------------------------------------------------------------- serve --

int cmd_serve(const std::vector<std::string>& args) {
    serve::ServerParams params;
    try {
        std::string listen;
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& arg = args[i];
            if (arg == "--listen") {
                listen = take_value(args, &i);
            } else if (arg == "--jobs") {
                params.workers = take_positive(args, &i);
            } else if (arg == "--cache-mb") {
                params.cache.max_bytes =
                    static_cast<std::size_t>(take_positive(args, &i)) << 20;
            } else if (arg == "--cache-dir") {
                params.cache.spill_dir = take_value(args, &i);
            } else if (arg == "--verbose") {
                params.verbose = true;
            } else {
                throw std::invalid_argument("unknown option " + arg);
            }
        }
        if (listen.empty()) throw std::invalid_argument("--listen ADDR is required");
        params.listen = util::SocketAddr::parse(listen);
    } catch (const std::exception& e) {
        return usage_error("serve", e);
    }
    try {
        serve::Server server(std::move(params));
        server.bind();
        // The resolved address (tcp port 0 in particular) on stdout, so
        // scripts can capture where to connect.
        std::printf("listening on %s\n", server.bound_addr().to_string().c_str());
        std::fflush(stdout);
        server.run();
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf serve: %s\n", e.what());
        return 1;
    }
}

/// Shared client-side options for submit/watch/status/cancel/shutdown.
struct ClientFlags {
    util::SocketAddr addr;
    std::string spec_path;
    std::string job;
    std::string json_path;
    std::string trace_out;
    double timeout_s = 0.0;
    bool stream = false;
    bool no_wait = false;
};

/// Throws std::invalid_argument on a bad option, or when `required`
/// ("--spec" or "--job") is missing.
ClientFlags parse_client_flags(const std::vector<std::string>& args,
                               std::string_view required = {}) {
    ClientFlags flags;
    std::string connect;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg == "--connect") {
            connect = take_value(args, &i);
        } else if (arg == "--spec") {
            flags.spec_path = take_value(args, &i);
        } else if (arg == "--job") {
            flags.job = take_value(args, &i);
        } else if (arg == "--json") {
            flags.json_path = take_value(args, &i);
        } else if (arg == "--trace-out") {
            flags.trace_out = take_value(args, &i);
            flags.stream = true;
        } else if (arg == "--stream" || arg == "--watch") {
            flags.stream = true;
        } else if (arg == "--no-wait") {
            flags.no_wait = true;
        } else if (arg == "--timeout") {
            flags.timeout_s = take_number<double>(args, &i);
        } else {
            throw std::invalid_argument("unknown option " + arg);
        }
    }
    if (connect.empty()) throw std::invalid_argument("--connect ADDR is required");
    const bool missing = required == "--spec" ? flags.spec_path.empty()
                         : required == "--job"  ? flags.job.empty()
                                                : false;
    if (missing) throw std::invalid_argument(std::string(required) + " is required");
    flags.addr = util::SocketAddr::parse(connect);
    return flags;
}

/// One machine-parsable summary line for submit/watch, consumed by the
/// serve-smoke CI job (grep for job=/records_hash=/cache_hits=).
int print_client_result(const serve::ClientResult& result,
                        const std::string& json_path) {
    if (!result.ok) {
        std::fprintf(stderr, "mvf: %s\n", result.error.c_str());
        if (!result.job.empty()) std::printf("job=%s ok=0\n", result.job.c_str());
        return 1;
    }
    const auto field = [&result](const char* key) { return result.results.find(key); };
    const report::Json* s = field("state");
    const report::Json* h = field("records_hash");
    const report::Json* c = field("cache_hits");
    const report::Json* t = field("seconds");
    const std::string state = s && s->is_string() ? s->as_string() : "";
    const std::string records_hash = h && h->is_string() ? h->as_string() : "";
    const int cache_hits = c && c->is_number() ? static_cast<int>(c->as_int()) : 0;
    const double seconds = t && t->is_number() ? t->as_number() : 0.0;
    std::printf(
        "job=%s ok=%d state=%s records_hash=%s cache_hits=%d seconds=%.3f "
        "trace_lines=%d\n",
        result.job.c_str(), state == "done" ? 1 : 0, state.c_str(),
        records_hash.c_str(), cache_hits, seconds, result.trace_lines);
    if (!json_path.empty()) {
        if (const report::Json* rep = result.results.find("report")) {
            const report::JsonWriter writer(json_path);
            if (!writer.write(*rep)) {
                std::fprintf(stderr, "mvf: cannot write %s\n",
                             json_path.c_str());
                return 1;
            }
            std::printf("report written to %s\n", json_path.c_str());
        }
    }
    return state == "done" ? 0 : 1;
}

/// Opens --trace-out (when given) and returns an observer appending raw
/// NDJSON lines to it.
serve::TraceLineFn trace_tee(const std::string& path, std::ofstream* out) {
    if (path.empty()) return {};
    out->open(path);
    if (!*out) throw std::invalid_argument("cannot open " + path);
    return [out](const std::string& line) { *out << line << '\n'; };
}

int cmd_submit(const std::vector<std::string>& args) {
    ClientFlags flags;
    std::ostringstream text;
    std::ofstream trace_file;
    serve::TraceLineFn tee;
    try {
        flags = parse_client_flags(args, "--spec");
        std::ifstream in(flags.spec_path);
        if (!in) throw std::invalid_argument("cannot open " + flags.spec_path);
        text << in.rdbuf();
        tee = trace_tee(flags.trace_out, &trace_file);
    } catch (const std::exception& e) {
        return usage_error("submit", e);
    }
    const serve::ClientResult result =
        serve::Client(flags.addr).submit(text.str(), /*wait=*/!flags.no_wait,
                                         flags.stream, flags.timeout_s, tee);
    if (flags.no_wait) {
        if (!result.ok) {
            std::fprintf(stderr, "mvf submit: %s\n", result.error.c_str());
            return 1;
        }
        std::printf("job=%s ok=1 state=queued\n", result.job.c_str());
        return 0;
    }
    return print_client_result(result, flags.json_path);
}

int cmd_watch(const std::vector<std::string>& args) {
    ClientFlags flags;
    std::ofstream trace_file;
    serve::TraceLineFn tee;
    try {
        flags = parse_client_flags(args, "--job");
        tee = trace_tee(flags.trace_out, &trace_file);
    } catch (const std::exception& e) {
        return usage_error("watch", e);
    }
    return print_client_result(serve::Client(flags.addr).watch(flags.job, tee),
                               flags.json_path);
}

/// status/cancel/shutdown: print the server's response as indented JSON.
int print_response(const report::Json& response) {
    const report::Json* ok = response.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool()) {
        const report::Json* e = response.find("error");
        std::fprintf(stderr, "mvf: %s\n",
                     e && e->is_string() ? e->as_string().c_str()
                                         : "request failed");
        return 1;
    }
    std::printf("%s\n", response.dump(2).c_str());
    return 0;
}

/// status/cancel/shutdown: one request, its response printed.
int cmd_request(const std::vector<std::string>& args, const char* command) {
    const bool cancel = std::string_view(command) == "cancel";
    ClientFlags flags;
    try {
        flags = parse_client_flags(args, cancel ? "--job" : "");
    } catch (const std::exception& e) {
        return usage_error(command, e);
    }
    const serve::Client client(flags.addr);
    if (cancel) return print_response(client.cancel(flags.job));
    if (std::string_view(command) == "status") {
        return print_response(client.status(flags.job));
    }
    return print_response(client.shutdown());
}

int cmd_check_trace(const std::vector<std::string>& args) {
    int rc = 0;
    const std::optional<std::string> text = read_file_arg(args, "check-trace", &rc);
    if (!text) return rc;
    const std::string& path = args[0];
    const obs::TraceValidation v = obs::validate_trace(*text);
    if (!v.ok) {
        std::fprintf(stderr, "mvf check-trace: %s: %s\n", path.c_str(),
                     v.error.c_str());
        return 1;
    }
    std::printf("%s: %d record(s), %d open span(s), ok\n", path.c_str(),
                v.records, v.open_spans);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "run") return cmd_run(args, /*force_attack=*/false);
    if (command == "attack") return cmd_run(args, /*force_attack=*/true);
    if (command == "batch") return cmd_batch(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "submit") return cmd_submit(args);
    if (command == "watch") return cmd_watch(args);
    if (command == "status" || command == "cancel" || command == "shutdown") {
        return cmd_request(args, command.c_str());
    }
    if (command == "adversaries") return cmd_adversaries();
    if (command == "check-report") return cmd_check_report(args);
    if (command == "check-trace") return cmd_check_trace(args);
    if (command == "verify-proof") return cmd_verify_proof(args);
    if (command == "--help" || command == "-h" || command == "help") {
        usage();
        return 0;
    }
    std::fprintf(stderr, "mvf: unknown command \"%s\"\n", command.c_str());
    return usage();
}
