#include "serve/scheduler.hpp"

#include <utility>

#include "flow/spec_hash.hpp"
#include "serve/protocol.hpp"

namespace mvf::serve {

std::string_view job_state_name(JobState s) {
    switch (s) {
        case JobState::kQueued: return "queued";
        case JobState::kRunning: return "running";
        case JobState::kDone: return "done";
        case JobState::kCancelled: return "cancelled";
    }
    return "unknown";
}

JobScheduler::JobScheduler(int workers, flow::StageStore* store)
    : store_(store), pool_(workers) {}

JobScheduler::~JobScheduler() {
    cancel_all();
    pool_.wait_idle();
}

std::string JobScheduler::submit(std::vector<flow::Scenario> scenarios,
                                 const SubmitOptions& options) {
    auto job = std::make_shared<Job>();
    std::size_t shard;
    {
        std::lock_guard lock(mu_);
        job->id = "j" + std::to_string(next_id_++);
        shard = next_shard_;
        // Round-robin the job's scenarios over worker deques starting at a
        // fresh offset, so concurrent jobs land on different workers.
        next_shard_ += scenarios.size();
    }
    job->scenarios = std::move(scenarios);
    job->submitted = std::chrono::steady_clock::now();
    if (options.timeout_s > 0.0) {
        job->deadline =
            job->submitted +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.timeout_s));
    }
    job->records.resize(job->scenarios.size());
    if (options.sink) job->sinks.push_back(options.sink);
    const int total = static_cast<int>(job->scenarios.size());
    {
        std::lock_guard lock(mu_);
        jobs_.push_back(job);
        if (total == 0) {
            job->state = JobState::kDone;
            job->records_hash = records_hash(job->records);
        }
    }
    if (total == 0) {
        terminal_cv_.notify_all();
        return job->id;
    }
    report::Json args = report::Json::object();
    args.set("job", job->id);
    args.set("scenarios", total);
    emit_instant(job, "job-submitted", std::move(args));
    for (int i = 0; i < total; ++i) {
        pool_.submit_sharded(shard + static_cast<std::size_t>(i),
                             [this, job, i] { run_scenario_task(job, i); });
    }
    return job->id;
}

void JobScheduler::run_scenario_task(const std::shared_ptr<Job>& job,
                                     int index) {
    {
        std::lock_guard lock(mu_);
        if (job->state == JobState::kQueued) job->state = JobState::kRunning;
    }
    const flow::Scenario& scenario =
        job->scenarios[static_cast<std::size_t>(index)];
    flow::ScenarioRecord record;
    if (job->cancel.cancelled()) {
        // Cancelled while queued: a placeholder record, no pipeline work.
        record.index = index;
        record.name = scenario.name;
        record.family = scenario.family;
        record.n = scenario.n;
        record.seed = scenario.params.seed;
        record.ok = false;
        record.status = "cancelled";
        record.error = "cancelled while queued";
        record.spec_hash = flow::spec_hash(scenario);
    } else {
        flow::ScenarioRunHooks hooks;
        hooks.cancel = job->cancel;
        hooks.deadline = job->deadline;
        hooks.stage_store = store_;
        hooks.pool = &pool_;
        hooks.progress = [this, &job, index,
                          &scenario](const flow::StageEvent& ev) {
            report::Json args = report::Json::object();
            args.set("job", job->id);
            args.set("scenario", scenario.name);
            args.set("scenario_index", index);
            args.set("stage", std::string(ev.stage));
            args.set("stage_index", ev.index);
            args.set("stage_total", ev.total);
            args.set("seconds", ev.seconds);
            args.set("completed", ev.completed);
            args.set("cached", ev.cached);
            emit_instant(job, "stage", std::move(args));
        };
        record = flow::run_scenario(scenario, index, hooks);
    }
    {
        std::lock_guard lock(mu_);
        job->records[static_cast<std::size_t>(index)] = std::move(record);
    }
    finish_scenario(job, index);
}

void JobScheduler::finish_scenario(const std::shared_ptr<Job>& job,
                                   int index) {
    bool terminal = false;
    JobStatus st;
    {
        std::lock_guard lock(mu_);
        ++job->completed;
        if (job->completed == static_cast<int>(job->scenarios.size())) {
            job->state = job->cancel.cancelled() ? JobState::kCancelled
                                                 : JobState::kDone;
            job->seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - job->submitted)
                    .count();
            job->records_hash = records_hash(job->records);
            terminal = true;
        }
        st = status_locked(*job);
    }
    const flow::ScenarioRecord& rec =
        job->records[static_cast<std::size_t>(index)];
    report::Json done = report::Json::object();
    done.set("job", job->id);
    done.set("scenario", rec.name);
    done.set("scenario_index", index);
    done.set("status", rec.status);
    done.set("seconds", rec.seconds);
    if (rec.cache_hits > 0) done.set("cache_hits", rec.cache_hits);
    emit_instant(job, "scenario-done", std::move(done));
    report::Json progress = report::Json::object();
    progress.set("completed", st.completed);
    progress.set("total", st.total);
    {
        std::unique_lock lock(mu_);
        std::vector<std::shared_ptr<obs::TraceSink>> sinks = job->sinks;
        lock.unlock();
        for (const auto& sink : sinks) {
            sink->counter("job-progress", progress);
            sink->flush();
        }
    }
    if (terminal) {
        report::Json fin = report::Json::object();
        fin.set("job", job->id);
        fin.set("state", std::string(job_state_name(st.state)));
        fin.set("records_hash", st.records_hash);
        fin.set("seconds", st.seconds);
        fin.set("cache_hits", st.cache_hits);
        emit_instant(job, "job-done", std::move(fin));
        {
            // Detach streams: the job will emit nothing further, and the
            // serve session needs exclusive use of the socket for the
            // final results line.
            std::lock_guard lock(mu_);
            job->sinks.clear();
        }
        terminal_cv_.notify_all();
    }
}

void JobScheduler::emit_instant(const std::shared_ptr<Job>& job,
                                const char* name, report::Json args) {
    std::unique_lock lock(mu_);
    if (job->sinks.empty()) return;
    std::vector<std::shared_ptr<obs::TraceSink>> sinks = job->sinks;
    lock.unlock();
    for (const auto& sink : sinks) {
        sink->instant(name, "serve", args);
        sink->flush();
    }
}

JobStatus JobScheduler::status_locked(const Job& job) const {
    JobStatus st;
    st.id = job.id;
    st.state = job.state;
    st.completed = job.completed;
    st.total = static_cast<int>(job.scenarios.size());
    for (const flow::ScenarioRecord& r : job.records) {
        if (r.status == "error") ++st.failures;
        st.cache_hits += r.cache_hits;
    }
    st.seconds =
        job.state == JobState::kDone || job.state == JobState::kCancelled
            ? job.seconds
            : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            job.submitted)
                  .count();
    st.records_hash = job.records_hash;
    return st;
}

bool JobScheduler::cancel(const std::string& id) {
    std::shared_ptr<Job> job;
    {
        std::lock_guard lock(mu_);
        for (const auto& j : jobs_) {
            if (j->id == id) {
                job = j;
                break;
            }
        }
    }
    if (!job) return false;
    job->cancel.cancel();
    return true;
}

std::optional<JobStatus> JobScheduler::status(const std::string& id) const {
    std::lock_guard lock(mu_);
    for (const auto& j : jobs_) {
        if (j->id == id) return status_locked(*j);
    }
    return std::nullopt;
}

std::vector<JobStatus> JobScheduler::jobs() const {
    std::lock_guard lock(mu_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (const auto& j : jobs_) out.push_back(status_locked(*j));
    return out;
}

bool JobScheduler::watch(const std::string& id,
                         std::shared_ptr<obs::TraceSink> sink) {
    std::lock_guard lock(mu_);
    for (const auto& j : jobs_) {
        if (j->id != id) continue;
        if (j->state == JobState::kDone || j->state == JobState::kCancelled) {
            return false;
        }
        j->sinks.push_back(std::move(sink));
        return true;
    }
    return false;
}

bool JobScheduler::wait(const std::string& id) {
    std::unique_lock lock(mu_);
    std::shared_ptr<Job> job;
    for (const auto& j : jobs_) {
        if (j->id == id) {
            job = j;
            break;
        }
    }
    if (!job) return false;
    terminal_cv_.wait(lock, [&] {
        return job->state == JobState::kDone ||
               job->state == JobState::kCancelled;
    });
    return true;
}

std::optional<std::vector<flow::ScenarioRecord>> JobScheduler::records(
    const std::string& id) const {
    std::lock_guard lock(mu_);
    for (const auto& j : jobs_) {
        if (j->id == id) return j->records;
    }
    return std::nullopt;
}

void JobScheduler::cancel_all() {
    std::vector<std::shared_ptr<Job>> jobs;
    {
        std::lock_guard lock(mu_);
        jobs = jobs_;
    }
    for (const auto& j : jobs) j->cancel.cancel();
}

}  // namespace mvf::serve
