#include "attack/oracle_attack.hpp"

#include <cassert>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>

#include "count/approx_counter.hpp"
#include "count/cnf.hpp"
#include "obs/trace.hpp"
#include "sat/clause_exchange.hpp"
#include "sat/cnf_builder.hpp"
#include "sim/netlist_sim.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace mvf::attack {

using camo::CamoNetlist;

std::string_view count_mode_name(CountMode m) {
    switch (m) {
        case CountMode::kExact: return "exact";
        case CountMode::kApprox: return "approx";
        case CountMode::kEnumerate: return "enumerate";
    }
    return "unknown";
}

bool count_mode_from_name(std::string_view name, CountMode* out) {
    if (name == "exact") *out = CountMode::kExact;
    else if (name == "approx") *out = CountMode::kApprox;
    else if (name == "enumerate") *out = CountMode::kEnumerate;
    else return false;
    return true;
}

std::string_view attack_status_name(OracleAttackResult::Status s) {
    switch (s) {
        case OracleAttackResult::Status::kSolved: return "solved";
        case OracleAttackResult::Status::kNoSurvivor: return "no survivor";
        case OracleAttackResult::Status::kIterationLimit: return "iteration limit";
        case OracleAttackResult::Status::kSurvivorLimit: return "survivor limit";
        case OracleAttackResult::Status::kApproxSolved: return "approx solved";
        case OracleAttackResult::Status::kQueryBudget: return "query budget";
    }
    return "unknown";
}

namespace {

std::string pattern_bits(const std::vector<bool>& pattern) {
    std::string s;
    s.reserve(pattern.size());
    for (const bool b : pattern) s.push_back(b ? '1' : '0');
    return s;
}

double us_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

void pin_outputs(sat::Solver* solver, const sat::CnfBuilder::Copy& copy,
                 const std::vector<bool>& outputs) {
    for (std::size_t q = 0; q < copy.po.size(); ++q) {
        solver->add_unit(outputs[q] ? copy.po[q] : sat::lit_not(copy.po[q]));
    }
}

// Stamps a constant-input copy and pins its outputs to the oracle's answer.
void add_io_constraint(sat::Solver* solver, sat::CnfBuilder* builder,
                       const std::vector<bool>& inputs,
                       const std::vector<bool>& outputs, bool fold) {
    pin_outputs(solver, builder->add_copy(inputs, fold), outputs);
}

/// Legacy survivor counting (CountMode::kEnumerate): SAT model enumeration
/// over the selector family, projected onto the cells with a structural
/// path to a PO -- a cell outside every output cone cannot influence any
/// output, so its choices multiply the count instead of being enumerated.
/// Capped at params.max_survivors; all arithmetic is overflow-checked (the
/// per-node freedom product alone can dwarf uint64_t) and saturates to the
/// cap instead of wrapping.
void enumerate_survivor_count(const CamoNetlist& netlist, sat::Solver* counter,
                              sat::CnfBuilder* family,
                              const OracleAttackParams& params,
                              OracleAttackResult* result) {
    std::vector<bool> in_po_cone(static_cast<std::size_t>(netlist.num_nodes()),
                                 false);
    std::vector<int> stack;
    for (int q = 0; q < netlist.num_pos(); ++q) stack.push_back(netlist.po(q));
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        if (in_po_cone[static_cast<std::size_t>(id)]) continue;
        in_po_cone[static_cast<std::size_t>(id)] = true;
        for (const int f : netlist.node(id).fanins) stack.push_back(f);
    }

    std::uint64_t dead_freedom = 1;
    bool dead_saturated = false;
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const std::size_t choices = family->selectors(id).size();
        if (choices == 0 || in_po_cone[static_cast<std::size_t>(id)]) continue;
        dead_saturated |= count::mul_overflow_u64(
            dead_freedom, static_cast<std::uint64_t>(choices), &dead_freedom);
        if (dead_saturated || dead_freedom > params.max_survivors) {
            break;  // saturates below
        }
    }

    std::uint64_t total = 0;
    while (counter->solve() == sat::Solver::Result::kSat) {
        const std::vector<int> config = family->config_from_model();
        if (total == 0) result->witness_config = config;
        const bool overflow =
            dead_saturated || count::add_overflow_u64(total, dead_freedom, &total);
        if (overflow || total >= params.max_survivors) {
            result->status = OracleAttackResult::Status::kSurvivorLimit;
            total = params.max_survivors;
            break;
        }
        if (!family->block_config(config, &in_po_cone)) break;
    }
    result->surviving_configs = total;
    result->survivors = count::Count128(total);
    if (total == 0) {
        result->status = OracleAttackResult::Status::kNoSurvivor;
    }
}

}  // namespace

void count_consistent_configs(const CamoNetlist& netlist,
                              const std::vector<std::vector<bool>>& inputs,
                              const std::vector<std::vector<bool>>& answers,
                              const OracleAttackParams& params,
                              OracleAttackResult* result) {
    assert(inputs.size() == answers.size());
    OracleAttackResult& res = *result;
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("mode", std::string(count_mode_name(params.count_mode)));
        span_args.set("constraints", static_cast<std::uint64_t>(inputs.size()));
    }
    obs::Span span("count-survivors", "count", std::move(span_args));
    const auto finish_span = [&]() {
        if (!span) return;
        report::Json ea = report::Json::object();
        ea.set("survivors", res.survivors.to_string());
        ea.set("mode", std::string(count_mode_name(res.count_mode)));
        ea.set("status", std::string(attack_status_name(res.status)));
        span.set_end_args(std::move(ea));
    };
    res.counted = true;
    res.count_mode = params.count_mode;
    sat::Solver counter;
    sat::CnfBuilder family(netlist, &counter, params.fixed_nominal);
    for (std::size_t i = 0; i < answers.size(); ++i) {
        add_io_constraint(&counter, &family, inputs[i], answers[i],
                          params.shared_miter);
    }
    if (params.solver.preprocess) {
        sat::Preprocessor pre(&counter, params.solver);
        const std::vector<sat::Var> fv = family.frozen_vars();
        pre.freeze_all(fv);
        pre.run();
    }

    if (params.count_mode == CountMode::kEnumerate) {
        enumerate_survivor_count(netlist, &counter, &family, params, &res);
        finish_span();
        return;
    }
    // Projection = every selector variable: the count is over whole
    // configurations, dead-cone cells included (their freedom falls out of
    // component decomposition -- a cell whose support collapsed to
    // constants is one tiny component contributing a factor of #choices).
    std::vector<sat::Var> projection;
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const std::vector<sat::Var>& sel = family.selectors(id);
        projection.insert(projection.end(), sel.begin(), sel.end());
    }
    const count::Cnf cnf = count::cnf_from_solver(counter, projection);
    // One model for the witness and the emptiness check (the counters
    // report numbers, not assignments).
    if (counter.solve() != sat::Solver::Result::kSat) {
        res.status = OracleAttackResult::Status::kNoSurvivor;
        finish_span();
        return;
    }
    res.witness_config = family.config_from_model();
    if (params.count_mode == CountMode::kExact) {
        count::CounterConfig cc;
        cc.cache_bytes =
            params.count_cache_mb > 0
                ? static_cast<std::size_t>(params.count_cache_mb) << 20
                : 1u << 20;
        cc.max_decisions = params.count_max_decisions;
        // Cube-and-conquer: attack_threads > 1 splits the projection into
        // selector cubes counted in parallel (bit-identical to serial).
        cc.threads = params.attack_threads;
        cc.cube_vars = params.cube_vars;
        cc.pool = params.pool;
        count::ProjectedCounter pc(cnf, cc);
        const count::ProjectedCounter::Result pcr = pc.count();
        res.count_stats = pcr.stats;
        res.survivors = pcr.count;
        if (!pcr.exact && pcr.count.saturated()) {
            // Saturated beyond 2^128 - 1: still a hard bound.
            res.status = OracleAttackResult::Status::kSurvivorLimit;
        } else if (!pcr.exact) {
            // Decision budget exhausted (dense, decomposition-resistant
            // instance): fall back to the capped enumeration so the
            // attack still terminates with a sound figure.  count_mode
            // records the switch.
            res.count_mode = CountMode::kEnumerate;
            enumerate_survivor_count(netlist, &counter, &family, params, &res);
        }
    } else {
        count::ApproxConfig ac;
        ac.epsilon = params.epsilon;
        ac.delta = params.delta;
        ac.seed = params.count_seed;
        count::ApproxCounter apc(cnf, ac);
        const count::ApproxResult acr = apc.count();
        res.survivors = acr.estimate;
        res.approx_xor_levels = acr.xor_levels;
        res.approx_rounds = acr.rounds;
        if (!acr.ok) {
            // Every hash round failed; the witness still proves at least
            // one survivor.
            res.status = OracleAttackResult::Status::kSurvivorLimit;
            res.survivors = count::Count128(1);
        } else if (!acr.exact) {
            res.status = OracleAttackResult::Status::kApproxSolved;
        }
    }
    res.surviving_configs = res.survivors.to_u64_saturating();
    finish_span();
}

namespace {

// ---------------------------------------------------------------------------
// The CEGAR miter, built the same way by the serial attack and by every
// portfolio member.
// ---------------------------------------------------------------------------

/// Two selector families in one incremental solver, mitered over shared
/// symbolic inputs: a model is (config A, config B, input X) with A and B
/// disagreeing at X while both satisfy every stamped I/O pair.  One
/// constructor for every caller means equal stamp counts give identical
/// variable ids -- what the portfolio's clause exchange and the replay of a
/// winner's transcript rest on.  A portfolio member differs only in its
/// phase seed and clause exchange, both set on solver() after construction.
class Miter {
public:
    Miter(const CamoNetlist& netlist, const OracleAttackParams& params)
        : params_(params),
          family_a_(netlist, &solver_, params.fixed_nominal),
          family_b_(netlist, &solver_, params.fixed_nominal) {
        const int m = netlist.num_pis();
        shared_x_.reserve(static_cast<std::size_t>(m));
        for (int i = 0; i < m; ++i) {
            shared_x_.push_back(sat::mk_lit(solver_.new_var()));
        }
        sat::CnfBuilder::Copy miter_a, miter_b;
        if (params.shared_miter) {
            sat::CnfBuilder::SharedCopy sc =
                sat::CnfBuilder::add_shared_copies(family_a_, family_b_, shared_x_);
            shared_cells_ += static_cast<std::uint64_t>(sc.shared_cells);
            miter_a = std::move(sc.a);
            miter_b = std::move(sc.b);
        } else {
            miter_a = family_a_.add_copy(shared_x_);
            miter_b = family_b_.add_copy(shared_x_);
        }
        // diff_q -> (a_q != b_q); at least one diff_q holds.  One direction
        // of the XOR suffices: any model must exhibit a real output
        // difference.
        std::vector<sat::Lit> any_diff;
        any_diff.reserve(static_cast<std::size_t>(netlist.num_pos()));
        for (int q = 0; q < netlist.num_pos(); ++q) {
            const sat::Lit d = sat::mk_lit(solver_.new_var());
            const sat::Lit a = miter_a.po[static_cast<std::size_t>(q)];
            const sat::Lit b = miter_b.po[static_cast<std::size_t>(q)];
            solver_.add_ternary(sat::lit_not(d), a, b);
            solver_.add_ternary(sat::lit_not(d), sat::lit_not(a), sat::lit_not(b));
            any_diff.push_back(d);
        }
        solver_.add_clause(any_diff);
        // Preprocess the miter core once (BVE + subsumption +
        // strengthening); inprocess() keeps it lean as patterns accumulate.
        if (params.solver.preprocess) {
            preprocessor().run();
            preprocessed_size_ = solver_.num_clauses();
        }
    }

    sat::Solver& solver() { return solver_; }
    /// Cells encoded once instead of twice, over the miter and every stamp.
    std::uint64_t shared_cells() const { return shared_cells_; }

    /// Stamps one I/O pair as constraints into BOTH families.
    void constrain_both(const std::vector<bool>& in,
                        const std::vector<bool>& out) {
        if (params_.shared_miter) {
            sat::CnfBuilder::SharedCopy sc =
                sat::CnfBuilder::add_shared_copies(family_a_, family_b_, in);
            shared_cells_ += static_cast<std::uint64_t>(sc.shared_cells);
            pin_outputs(&solver_, sc.a, out);
            pin_outputs(&solver_, sc.b, out);
        } else {
            add_io_constraint(&solver_, &family_a_, in, out, false);
            add_io_constraint(&solver_, &family_b_, in, out, false);
        }
    }

    /// Runs the light sweep whenever the database has outgrown the last
    /// simplified size: the per-pattern copies get pinned down by level-0
    /// propagation, and physically removing the satisfied clauses keeps
    /// watch lists short without disturbing the learned database.
    void inprocess() {
        if (params_.solver.preprocess && params_.solver.inprocess_growth > 1.0 &&
            static_cast<double>(solver_.num_clauses()) >
                params_.solver.inprocess_growth *
                    static_cast<double>(preprocessed_size_)) {
            preprocessor().run_light();
            preprocessed_size_ = solver_.num_clauses();
        }
    }

    /// The last model's distinguishing input.  With canonical_inputs it is
    /// replaced by the lexicographically smallest one the current
    /// constraints admit (PI 0 is the most significant position): the bits
    /// are walked in order keeping the latest model as a witness, so a
    /// witness 0 needs no solver call and a witness 1 costs one incremental
    /// solve testing whether 0 is feasible under the fixed prefix.
    void distinguishing_input(std::vector<bool>* pattern) {
        const std::size_t m = shared_x_.size();
        for (std::size_t i = 0; i < m; ++i) {
            (*pattern)[i] = solver_.model_value(sat::lit_var(shared_x_[i]));
        }
        if (!params_.canonical_inputs) return;
        assumptions_.clear();
        for (std::size_t i = 0; i < m; ++i) {
            assumptions_.push_back(sat::lit_not(shared_x_[i]));
            if (!(*pattern)[i]) continue;
            if (solver_.solve(assumptions_) == sat::Solver::Result::kSat) {
                (*pattern)[i] = false;
                for (std::size_t j = i + 1; j < m; ++j) {
                    (*pattern)[j] = solver_.model_value(sat::lit_var(shared_x_[j]));
                }
            } else {
                assumptions_.back() = shared_x_[i];  // 0 infeasible here
            }
        }
    }

private:
    /// Both families' selectors and constants stay frozen (later stamps
    /// reference them), and so do the shared inputs (models are read off
    /// them).
    sat::Preprocessor preprocessor() {
        sat::Preprocessor pre(&solver_, params_.solver);
        const std::vector<sat::Var> fa = family_a_.frozen_vars();
        const std::vector<sat::Var> fb = family_b_.frozen_vars();
        pre.freeze_all(fa);
        pre.freeze_all(fb);
        pre.freeze_lits(shared_x_);
        return pre;
    }

    const OracleAttackParams& params_;
    sat::Solver solver_;
    sat::CnfBuilder family_a_;
    sat::CnfBuilder family_b_;
    std::vector<sat::Lit> shared_x_;
    std::vector<sat::Lit> assumptions_;  ///< canonicalization prefix
    std::uint64_t shared_cells_ = 0;
    std::size_t preprocessed_size_ = 0;
};

/// Feeds the latency of every answered query and block to `observe` (a
/// budget trip propagates before anything is observed).
class TimedOracle final : public OracleDecorator {
public:
    TimedOracle(Oracle& inner, std::function<void(double)> observe)
        : OracleDecorator(inner), observe_(std::move(observe)) {}

    std::vector<bool> query(const std::vector<bool>& inputs) override {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<bool> out = inner_->query(inputs);
        observe_(us_since(t0));
        return out;
    }
    std::vector<std::uint64_t> query_block(
        const std::vector<std::uint64_t>& inputs, int count) override {
        const auto t0 = std::chrono::steady_clock::now();
        std::vector<std::uint64_t> out = inner_->query_block(inputs, count);
        observe_(us_since(t0));
        return out;
    }

private:
    std::function<void(double)> observe_;
};

// ---------------------------------------------------------------------------
// Portfolio CEGAR (attack_threads / portfolio > 1).
//
// N members race the CEGAR loop on one netlist.  Soundness and replay hinge
// on one discipline: a shared append-only ANSWER LOG of (input, answer)
// pairs, which every member stamps into its solver IN LOG ORDER, exactly one
// stamp per solve.  Member formulas are therefore prefixes of one monotone
// chain -- same clauses, same variable ids at equal stamp counts -- which is
// what makes sat::ClauseExchange sharing sound (see clause_exchange.hpp).
// It also makes the winner's transcript a valid serial attack transcript:
// incorporation order == transcript order == stamp order, every solve sits
// between consecutive stamps, and imported clauses are entailed by stamped
// prefixes (so removing them -- which is what a replay does -- changes no
// verdict).  Adding constraints only shrinks the model set, so the one
// wrinkle (a live member solving once per stamp where its warm-up region
// stamped a batch) cannot flip an intermediate SAT to UNSAT either.
// ---------------------------------------------------------------------------

/// The shared constraint sequence.  Append-only and deliberately WITHOUT
/// deduplication: the serial attack stamps duplicate warm-up patterns
/// twice, and the replay loop consumes exactly one transcript entry per
/// solve, so the log must preserve multiplicity to replay bit-identically.
struct AnswerLog {
    std::mutex mutex;
    std::vector<OracleTranscript::Entry> entries;

    void append(const std::vector<bool>& in, const std::vector<bool>& out) {
        std::lock_guard lock(mutex);
        entries.push_back({in, out});
    }
    std::size_t size() {
        std::lock_guard lock(mutex);
        return entries.size();
    }
    OracleTranscript::Entry get(std::size_t i) {
        std::lock_guard lock(mutex);
        return entries[i];  // append-only: i < size() is stable
    }
};

struct PortfolioShared {
    const CamoNetlist* netlist = nullptr;
    const OracleAttackParams* params = nullptr;
    /// Shared, locking; wraps the caller's oracle so every member sees one
    /// answer per pattern and repeats cost no budget.
    CachingOracle* cache = nullptr;
    AnswerLog log;
    sat::ClauseExchange exchange;
    std::atomic<bool> cancel{false};

    explicit PortfolioShared(int members) : exchange(members) {}
};

struct MemberOutcome {
    OracleAttackResult result;
    std::vector<std::vector<bool>> constraint_inputs;
    std::vector<std::vector<bool>> answers;
    OracleTranscript transcript;
    bool converged = false;  ///< proved the miter UNSAT (not cancelled/parked)
};

/// splitmix64 finalizer over (seed, member): decorrelated diversification
/// seeds.  Member 0 always gets the serial attack's exact trajectory.
std::uint64_t portfolio_mix(std::uint64_t seed, int member) {
    std::uint64_t z =
        seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(member) + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}


void run_portfolio_member(int member, PortfolioShared* shared,
                          MemberOutcome* out) {
    const CamoNetlist& netlist = *shared->netlist;
    const OracleAttackParams& params = *shared->params;
    const int m = netlist.num_pis();
    OracleAttackResult& result = out->result;

    Miter miter(netlist, params);
    sat::Solver& solver = miter.solver();
    if (member > 0) {
        solver.set_phase_seed(portfolio_mix(params.warmup_seed, member));
    }
    solver.set_clause_exchange(&shared->exchange, member);

    // Per-member recorder above the shared cache: the member's transcript
    // is exactly the pairs it stamped, in stamp order.
    TranscriptOracle recorder(*shared->cache);
    std::size_t stamped = 0;
    const auto incorporate_one = [&]() -> bool {
        const OracleTranscript::Entry e = shared->log.get(stamped);
        std::vector<bool> answer;
        try {
            // Through the recorder, which forwards to the shared cache: a
            // guaranteed hit (the appender queried through the cache), so
            // incorporating foreign pairs costs no chip access or budget.
            answer = recorder.query(e.inputs);
        } catch (const OracleBudgetExceeded&) {
            result.status = OracleAttackResult::Status::kQueryBudget;
            return false;
        }
        miter.constrain_both(e.inputs, answer);
        out->constraint_inputs.push_back(e.inputs);
        out->answers.push_back(std::move(answer));
        ++stamped;
        solver.set_exchange_epoch(stamped);
        if (result.warmup_queries < params.random_warmup) {
            ++result.warmup_queries;
        } else {
            ++result.queries;
            result.distinguishing_inputs.push_back(e.inputs);
        }
        return true;
    };

    // Warm-up: every member contributes its own (diversified) random
    // patterns to the log, then stamps its quota -- without intermediate
    // solves, mirroring both the serial loop and the replay path.
    bool stopped = false;
    if (params.random_warmup > 0) {
        util::Rng wrng(member == 0
                           ? params.warmup_seed
                           : portfolio_mix(params.warmup_seed ^ 0x77a9u, member));
        if (!query_random_patterns(
                *shared->cache, wrng, m, params.random_warmup,
                [&](std::vector<bool> in, std::vector<bool> answer) {
                    shared->log.append(in, answer);
                })) {
            result.status = OracleAttackResult::Status::kQueryBudget;
            stopped = true;
        }
        while (!stopped && result.warmup_queries < params.random_warmup &&
               stamped < shared->log.size()) {
            if (!incorporate_one()) stopped = true;
        }
    }

    // CEGAR race: sliced solves (bounded cancellation latency; learned
    // clauses persist across kUnknown returns, so slicing only costs the
    // cancel checks), one stamped pair per solve.
    std::vector<bool> pattern(static_cast<std::size_t>(m));
    constexpr std::uint64_t kSliceConflicts = 2000;
    while (!stopped) {
        if (shared->cancel.load(std::memory_order_relaxed)) break;
        sat::Solver::Result sr;
        for (;;) {
            solver.set_conflict_budget(kSliceConflicts);
            sr = solver.solve();
            if (sr != sat::Solver::Result::kUnknown) break;
            if (shared->cancel.load(std::memory_order_relaxed)) break;
        }
        solver.set_conflict_budget(0);
        if (sr == sat::Solver::Result::kUnknown) break;  // cancelled mid-solve
        if (sr == sat::Solver::Result::kUnsat) {
            out->converged = true;
            break;
        }
        if (params.max_iterations > 0 &&
            result.queries >= params.max_iterations) {
            result.status = OracleAttackResult::Status::kIterationLimit;
            break;
        }
        if (stamped >= shared->log.size()) {
            // Nothing pending to incorporate: contribute our own
            // distinguishing input.  (A stamped pair excludes its pattern
            // from the miter's models, so this is always genuinely new.)
            miter.distinguishing_input(&pattern);
            try {
                shared->log.append(pattern, shared->cache->query(pattern));
            } catch (const OracleBudgetExceeded&) {
                result.status = OracleAttackResult::Status::kQueryBudget;
                break;
            }
        }
        if (!incorporate_one()) break;
        miter.inprocess();
    }
    result.sat_stats = solver.stats();
    result.shared_cells = miter.shared_cells();
    out->transcript = recorder.transcript();
}

OracleAttackResult portfolio_attack(const CamoNetlist& netlist, Oracle& oracle,
                                    const OracleAttackParams& params,
                                    int members) {
    util::Stopwatch sw;
    report::Json span_args;
    if (obs::tracing()) {
        span_args = report::Json::object();
        span_args.set("members", members);
        span_args.set("pis", netlist.num_pis());
        span_args.set("pos", netlist.num_pos());
    }
    obs::Span span("portfolio-attack", "attack", std::move(span_args));
    if (obs::metrics_enabled()) {
        obs::MetricsRegistry::global().counter("attack.runs").add();
    }

    CachingOracle cache(oracle);
    PortfolioShared shared(members);
    shared.netlist = &netlist;
    shared.params = &params;
    shared.cache = &cache;

    std::vector<MemberOutcome> outs(static_cast<std::size_t>(members));
    std::atomic<int> winner{-1};
    const auto race = [&](int mi) {
        run_portfolio_member(mi, &shared, &outs[static_cast<std::size_t>(mi)]);
        if (outs[static_cast<std::size_t>(mi)].converged) {
            int expected = -1;
            if (winner.compare_exchange_strong(expected, mi)) {
                // First UNSAT wins; everyone else parks at their next
                // cancel check.
                shared.cancel.store(true, std::memory_order_relaxed);
            }
        }
    };

    util::ThreadPool local_pool(params.pool ? 1 : members - 1);
    util::ThreadPool* pool = params.pool ? params.pool : &local_pool;
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(members - 1));
    for (int mi = 1; mi < members; ++mi) {
        futures.push_back(pool->submit([&race, mi] { race(mi); }));
    }
    race(0);  // the caller is always member 0
    for (std::future<void>& f : futures) {
        // Helping-wait: when the pool is saturated (batch jobs occupying
        // every worker) the pending members run on this thread instead of
        // deadlocking.
        using namespace std::chrono_literals;
        while (f.wait_for(0s) != std::future_status::ready) {
            if (!pool->run_one()) f.wait_for(1ms);
        }
        f.get();
    }

    const int win = winner.load();
    const std::size_t chosen = static_cast<std::size_t>(win >= 0 ? win : 0);
    OracleAttackResult result = std::move(outs[chosen].result);
    result.winner = win;
    if (win >= 0) {
        result.winner_transcript = std::move(outs[chosen].transcript);
        if (params.enumerate_survivors) {
            count_consistent_configs(netlist, outs[chosen].constraint_inputs,
                                     outs[chosen].answers, params, &result);
        }
    }
    // win < 0: nobody converged (budget/iteration caps); member 0's parked
    // status stands and, as in the serial attack, no counting runs.
    result.seconds = sw.elapsed_seconds();
    if (span) {
        report::Json ea = report::Json::object();
        ea.set("winner", result.winner);
        ea.set("status", std::string(attack_status_name(result.status)));
        ea.set("queries", result.queries);
        if (result.counted) ea.set("survivors", result.survivors.to_string());
        span.set_end_args(std::move(ea));
    }
    return result;
}

}  // namespace

OracleAttackResult oracle_attack(const CamoNetlist& netlist, Oracle& oracle,
                                 const OracleAttackParams& params) {
    // Portfolio dispatch: one knob (attack_threads) unless portfolio pins
    // the member count explicitly.  A replaying transcript always takes
    // the serial path below -- a transcript is one member's view.
    const int members = params.portfolio > 0 ? params.portfolio
                                             : std::max(1, params.attack_threads);
    if (members > 1 && oracle.scripted_pattern() == nullptr) {
        return portfolio_attack(netlist, oracle, params, members);
    }
    const int m = netlist.num_pis();
    const int r = netlist.num_pos();
    util::Stopwatch sw;
    OracleAttackResult result;

    // Latency metrics: local histograms snapshot into result.metrics; when
    // the process-global switch is on they feed the shared registry too
    // (same samples, one timing call).  `collect` off keeps the hot path at
    // one branch per site -- no clock reads.
    const bool collect = params.collect_metrics || obs::metrics_enabled();
    obs::Histogram oracle_hist, solve_hist;
    obs::Histogram* reg_oracle_hist = nullptr;
    obs::Histogram* reg_solve_hist = nullptr;
    if (obs::metrics_enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
        reg.counter("attack.runs").add();
        reg_oracle_hist = &reg.histogram("attack.oracle_query_us");
        reg_solve_hist = &reg.histogram("attack.sat_solve_us");
    }
    const auto observe_solve = [&](double us) {
        if (!collect) return;
        solve_hist.observe(us);
        if (reg_solve_hist) reg_solve_hist->observe(us);
    };
    // Every chip access goes through `chip`, which times it when metrics
    // are collected.
    TimedOracle timed(oracle, [&](double us) {
        oracle_hist.observe(us);
        if (reg_oracle_hist) reg_oracle_hist->observe(us);
    });
    Oracle& chip = collect ? static_cast<Oracle&>(timed) : oracle;

    report::Json attack_args;
    if (obs::tracing()) {
        attack_args = report::Json::object();
        attack_args.set("pis", m);
        attack_args.set("pos", r);
        attack_args.set("nodes", netlist.num_nodes());
    }
    obs::Span attack_span("oracle-attack", "attack", std::move(attack_args));

    Miter miter(netlist, params);
    sat::Solver& solver = miter.solver();

    // All constraint pairs in query order: random warm-up first, then the
    // distinguishing inputs (result.distinguishing_inputs holds only the
    // latter).  The counting tail replays the whole list.
    std::vector<std::vector<bool>> constraint_inputs;
    std::vector<std::vector<bool>> answers;
    // Stamps one solver-free pruning pair (random or neighborhood warm-up).
    const auto stamp_warmup = [&](std::vector<bool> in, std::vector<bool> out) {
        assert(static_cast<int>(out.size()) == r);
        miter.constrain_both(in, out);
        constraint_inputs.push_back(std::move(in));
        answers.push_back(std::move(out));
        ++result.warmup_queries;
    };

    // Random warm-up through the batched word-parallel path: every
    // answered pattern prunes the configurations disagreeing with the
    // chip on it, shrinking the viable set before any distinguishing
    // input is solved for.
    bool budget_tripped = false;
    if (params.random_warmup > 0) {
        report::Json warm_args;
        if (obs::tracing()) {
            warm_args = report::Json::object();
            warm_args.set("patterns", params.random_warmup);
        }
        obs::Span warm_span("warmup", "attack", std::move(warm_args));
        util::Rng wrng(params.warmup_seed);
        int remaining = params.random_warmup;
        // Replay: the transcript prescribes the warm-up patterns.  (A
        // portfolio winner's warm-up region interleaves patterns it
        // incorporated from other members, which no local RNG regenerates;
        // for a serial recording the scripted patterns ARE the wrng
        // sequence, so this path is equivalent to regenerating them.)
        while (remaining > 0 && !budget_tripped &&
               oracle.scripted_pattern() != nullptr) {
            std::vector<bool> in = *oracle.scripted_pattern();
            try {
                std::vector<bool> out = chip.query(in);
                stamp_warmup(std::move(in), std::move(out));
            } catch (const OracleBudgetExceeded&) {
                result.status = OracleAttackResult::Status::kQueryBudget;
                budget_tripped = true;
            }
            --remaining;
        }
        if (remaining > 0 && !budget_tripped &&
            result.warmup_queries > 0) {
            // Scripted warm-up ran but the transcript ended early:
            // terminate honestly (a replayed chip answers exactly its
            // recorded queries), instead of inventing fresh patterns the
            // replay below could never answer.
            result.status = OracleAttackResult::Status::kQueryBudget;
            budget_tripped = true;
        }
        if (remaining > 0 && !budget_tripped &&
            !query_random_patterns(chip, wrng, m, remaining, stamp_warmup)) {
            result.status = OracleAttackResult::Status::kQueryBudget;
            budget_tripped = true;
        }
    }

    // CEGAR refinement: each distinguishing input and the oracle's answer
    // constrain BOTH families, shrinking the still-viable set on each side.
    std::vector<bool> pattern(static_cast<std::size_t>(m));
    while (!budget_tripped) {
        // One span per CEGAR iteration; the final (UNSAT, convergence)
        // solve gets its own span with converged=true in the end args.
        report::Json iter_args;
        if (obs::tracing()) {
            iter_args = report::Json::object();
            iter_args.set("iteration", result.queries);
        }
        obs::Span iter_span("cegar-iteration", "attack", std::move(iter_args));
        const bool sat = solver.solve() == sat::Solver::Result::kSat;
        // Captured now: canonicalization and the next iteration overwrite
        // last_solve(), and this delta is what the span reports.
        const sat::Solver::SolveDelta delta = solver.last_solve();
        observe_solve(delta.seconds * 1e6);
        if (!sat) {
            if (iter_span) {
                report::Json ea = report::Json::object();
                ea.set("converged", true);
                ea.set("conflicts", delta.conflicts);
                ea.set("propagations", delta.propagations);
                iter_span.set_end_args(std::move(ea));
            }
            break;
        }
        if (params.max_iterations > 0 &&
            result.queries >= params.max_iterations) {
            result.status = OracleAttackResult::Status::kIterationLimit;
            break;
        }
        bool from_script = false;
        if (const std::vector<bool>* scripted = oracle.scripted_pattern()) {
            // A replaying TranscriptOracle prescribes the query sequence
            // through the public API; the per-iteration solve above still
            // runs, so the CEGAR work is identical -- only the pattern
            // choice is pinned (any prefix of a valid run's transcript is
            // itself a valid distinguishing sequence).
            pattern = *scripted;
            assert(static_cast<int>(pattern.size()) == m);
            from_script = true;
        } else {
            miter.distinguishing_input(&pattern);
        }
        std::vector<bool> answer;
        try {
            answer = chip.query(pattern);
        } catch (const OracleBudgetExceeded&) {
            // Honest termination: the threat model ran out of chip access.
            result.status = OracleAttackResult::Status::kQueryBudget;
            break;
        }
        assert(static_cast<int>(answer.size()) == r);
        ++result.queries;
        miter.constrain_both(pattern, answer);
        result.distinguishing_inputs.push_back(pattern);
        constraint_inputs.push_back(pattern);
        answers.push_back(std::move(answer));
        if (iter_span) {
            report::Json ea = report::Json::object();
            ea.set("pattern", pattern_bits(pattern));
            ea.set("conflicts", delta.conflicts);
            ea.set("decisions", delta.decisions);
            ea.set("propagations", delta.propagations);
            ea.set("max_decision_level", delta.max_decision_level);
            iter_span.set_end_args(std::move(ea));
        }
        // Neighborhood warm-up: the distinguishing input just found sits on
        // a decision boundary of the configuration space, so its
        // single-bit-flip neighbors are disproportionately likely to
        // separate further configurations.  Query up to
        // neighborhood_queries of them as one word-parallel block and
        // constrain the answers (counted as warm-up queries -- they are
        // solver-free pruning, not CEGAR iterations).  Skipped under
        // replay: the scripted sequence already embeds whatever
        // neighborhood queries the recorded run made as ordinary patterns.
        if (params.neighborhood_queries > 0 && !from_script && m > 0) {
            const int nq = std::min(
                std::min(params.neighborhood_queries, m), kQueryBlockWidth);
            // Lane b is the pattern with PI b flipped.
            const std::uint64_t lanes = nq == kQueryBlockWidth
                                            ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << nq) - 1;
            std::vector<std::uint64_t> words(static_cast<std::size_t>(m));
            for (int i = 0; i < m; ++i) {
                std::uint64_t& w = words[static_cast<std::size_t>(i)];
                w = pattern[static_cast<std::size_t>(i)] ? lanes : 0;
                if (i < nq) w ^= std::uint64_t{1} << i;
            }
            if (!query_block_draining(chip, words, nq, stamp_warmup)) {
                result.status = OracleAttackResult::Status::kQueryBudget;
                budget_tripped = true;
            }
        }
        miter.inprocess();
    }

    result.sat_stats = solver.stats();
    result.shared_cells = miter.shared_cells();

    // UNSAT: every configuration consistent with the collected I/O pairs is
    // functionally equivalent to the oracle (if any disagreed anywhere, the
    // miter would have found the disagreeing input).  Count them over a
    // single fresh selector family constrained by the collected I/O pairs.
    // With shared_miter the copies fold their selector-independent constant
    // cones; with preprocessing the instance is simplified first (selectors
    // are frozen, so the projected count is preserved).
    if (result.status != OracleAttackResult::Status::kIterationLimit &&
        result.status != OracleAttackResult::Status::kQueryBudget &&
        params.enumerate_survivors) {
        count_consistent_configs(netlist, constraint_inputs, answers, params,
                                 &result);
    }

    result.seconds = sw.elapsed_seconds();
    if (collect) {
        result.metrics.oracle_query_us = oracle_hist.snapshot();
        result.metrics.sat_solve_us = solve_hist.snapshot();
    }
    if (attack_span) {
        report::Json ea = report::Json::object();
        ea.set("status", std::string(attack_status_name(result.status)));
        ea.set("queries", result.queries);
        ea.set("warmup_queries", result.warmup_queries);
        if (result.counted) ea.set("survivors", result.survivors.to_string());
        attack_span.set_end_args(std::move(ea));
    }
    return result;
}

}  // namespace mvf::attack
