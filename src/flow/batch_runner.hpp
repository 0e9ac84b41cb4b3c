#pragma once
// Parallel batch execution of independent flow scenarios.
//
// A Scenario names a viable-function set (S-box family x merge width), the
// FlowParams to run it under, and a seed; BatchRunner executes N scenarios
// on a util::ThreadPool with one isolated FlowContext + ObfuscationFlow
// (i.e. private synthesis caches) per scenario, so results are bit-identical
// regardless of --jobs and scheduling order.  Each scenario yields a
// structured ScenarioRecord that serializes to JSON (report::JsonWriter),
// the machine-readable counterpart of the benches' CSV.
//
// Scenario specs are plain text so new workloads need zero C++ (consumed by
// `mvf batch` and `mvf serve`):
//
//   # one scenario per line; '#' starts a comment
//   name=p4 funcs=present:4 seed=3 population=8 generations=4 attack=cegar
//   funcs=des:2 seed=7 attack=cegar,plausibility camo=1 baseline=0
//
// The keys, their ranges and the rules between them are the scenario
// schema (flow/scenario_schema.hpp); `mvf help` prints them.

#include <string>
#include <string_view>
#include <vector>

#include "flow/pipeline.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// Scenario::family of circuit scenarios (FlowParams::circuit set).
inline constexpr std::string_view kCircuitFamily = "circuit";

/// One independent experiment: function set x params x seed.
struct Scenario {
    std::string name;          ///< defaults to "<family><n>-s<seed>"
    std::string family = "present";  ///< "present" or "des"
    int n = 2;                 ///< merge width (viable functions)
    FlowParams params;
};

/// Builds the scenario's viable-function set; throws std::invalid_argument
/// on an unknown family or out-of-range width.
std::vector<ViableFunction> scenario_functions(const Scenario& scenario);

/// Parses the spec format above through the scenario schema; throws
/// std::invalid_argument with a line number on malformed input, unknown
/// keys, out-of-range values and contradictory keys (rejected, not
/// ignored).
std::vector<Scenario> parse_scenario_spec(const std::string& text);

/// parse_scenario_spec over a file's contents.
std::vector<Scenario> load_scenario_spec(const std::string& path);

/// Outcome of one scenario (always produced; `ok` distinguishes results
/// from failures so one bad scenario cannot sink a batch).
struct ScenarioRecord {
    int index = 0;  ///< position in the input batch
    std::string name;
    std::string family;
    int n = 0;
    std::uint64_t seed = 0;
    bool ok = false;
    /// "ok", "error" (exception; text in `error`), or "cancelled" (the
    /// run's cancel token fired or its deadline passed mid-pipeline).
    std::string status;
    std::string error;  ///< exception text when !ok
    /// Canonical spec hash (flow::spec_hash) -- provenance for archived
    /// reports; also stamped into each attack report.
    std::string spec_hash;
    /// Pipeline stages restored from the stage-result cache (0 = fresh run).
    int cache_hits = 0;
    double seconds = 0.0;

    // Flow summary (Table-I shaped).
    double random_avg = 0.0;
    double random_best = 0.0;
    double ga_area = 0.0;
    double ga_tm_area = 0.0;
    double improvement_percent = 0.0;
    bool verified = false;
    int camo_cells = 0;
    double config_space_bits = 0.0;

    std::vector<attack::AdversaryReport> attacks;

    report::Json to_json() const;
};

/// External wiring for one scenario run (all optional).  BatchRunner uses
/// it internally; the serve scheduler passes its own cancel token, deadline
/// and shared stage cache.
struct ScenarioRunHooks {
    /// Cooperative cancellation (copies share the flag; see CancelToken).
    std::optional<CancelToken> cancel;
    /// Soft deadline checked between pipeline stages.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    /// Per-stage progress (also receives cache-hit events).
    ProgressFn progress;
    /// Shared stage-result cache; keys come from flow::stage_cache_key for
    /// the scenario being run.  Not owned.
    StageStore* stage_store = nullptr;
    /// The runtime's worker pool, lent to the pin search (FlowContext::pool).
    /// Not owned; nullptr = the pin search makes its own.
    util::ThreadPool* pool = nullptr;
};

/// Runs one scenario in isolation (private ObfuscationFlow => private
/// synthesis caches): the unit both BatchRunner and the serve scheduler
/// execute.  Never throws -- failures and cancellation are captured in the
/// record's status/error fields.
ScenarioRecord run_scenario(const Scenario& scenario, int index,
                            const ScenarioRunHooks& hooks = {});

struct BatchParams {
    /// Worker threads; 1 = serial in the calling thread.
    int jobs = 1;
    /// Per-scenario progress line on stderr.
    bool verbose = false;
    /// Heartbeat period for the trace's "batch-progress" counter stream
    /// (completed/total scenario counts -- the NDJSON progress records a
    /// future `mvf serve` will reuse).  Only active while a trace sink is
    /// installed; 0 disables.
    int heartbeat_ms = 1000;
};

class BatchRunner {
public:
    explicit BatchRunner(BatchParams params = {}) : params_(params) {}

    /// Runs every scenario; records come back in input order.  Scenario
    /// failures are captured in their record, never thrown.
    std::vector<ScenarioRecord> run(const std::vector<Scenario>& scenarios) const;

private:
    BatchParams params_;
};

/// Wraps records as the batch report document: {"scenarios": [...],
/// "total_seconds": ..., "failures": ...}.
report::Json batch_report(const std::vector<ScenarioRecord>& records,
                          double total_seconds);

}  // namespace mvf::flow
