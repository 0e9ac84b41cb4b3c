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

#include "flow/scenario_schema.hpp"
#include "flow/spec_hash.hpp"
#include "obs/trace.hpp"
#include "sbox/sbox_data.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace mvf::flow {

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
        ScenarioBuilder builder(Surface::kSpec);
        bool any = false;
        try {
            while (tokens >> token) {
                any = true;
                const std::size_t eq = token.find('=');
                if (eq == std::string::npos) {
                    throw std::invalid_argument("expected key=value, got \"" +
                                                token + "\"");
                }
                builder.set(std::string_view(token).substr(0, eq),
                            std::string_view(token).substr(eq + 1));
            }
            if (any) scenarios.push_back(builder.finish());
        } catch (const std::invalid_argument& e) {
            throw std::invalid_argument("scenario spec line " +
                                        std::to_string(line_no) + ": " +
                                        e.what());
        }
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
