#pragma once
// Oracle-guided CEGAR de-camouflaging (the canonical scalable SAT attack of
// Subramanyan et al., as red-teamed in Liu et al. and defended against in
// Alaql & Bhunia -- see PAPERS.md).
//
// Threat model: beyond recognizing the look-alike cells (the plausibility
// attacker's knowledge), the adversary owns a *working chip* -- an oracle
// answering input patterns with the true circuit's outputs.  Instead of
// enumerating the input space (hopeless beyond ~10 inputs), the attack
// miters two copies of the camouflaged circuit over shared symbolic inputs:
// a SAT model is a *distinguishing input* -- a pattern on which two
// still-viable configurations disagree.  The oracle's answer for that
// pattern is added as an I/O constraint to both copies, eliminating at
// least one of the two configurations (and usually many more), and the loop
// repeats on the same incremental solver.  UNSAT means every configuration
// consistent with the collected I/O pairs implements the oracle's function,
// at which point the surviving configurations are counted over the selector
// variables -- by exact projected model counting (count::ProjectedCounter,
// the default: uncapped, 128-bit), by an ApproxMC-style (eps, delta)
// estimate, or by the legacy capped model enumeration (see CountMode).

#include <cstdint>
#include <string_view>
#include <vector>

#include "attack/oracle.hpp"
#include "camo/camo_netlist.hpp"
#include "count/count128.hpp"
#include "count/projected_counter.hpp"
#include "obs/metrics.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"

namespace mvf::util {
class ThreadPool;
}  // namespace mvf::util

namespace mvf::attack {

/// How the surviving-configuration count is computed once CEGAR converges.
enum class CountMode {
    /// Exact projected model counting (count::ProjectedCounter) over the
    /// selector variables: no cap, counts up to 2^128 - 1, and dead-cone
    /// freedom falls out of component decomposition instead of a separate
    /// multiplication.  The default.
    kExact,
    /// ApproxMC-style (epsilon, delta) estimate (count::ApproxCounter);
    /// spaces under the pivot still come back exact.
    kApprox,
    /// Legacy SAT model enumeration projected onto the PO cone, capped at
    /// max_survivors.  Kept for differential testing against the counters.
    kEnumerate,
};

std::string_view count_mode_name(CountMode m);
/// Inverse of count_mode_name; returns false on unknown names.
bool count_mode_from_name(std::string_view name, CountMode* out);

struct OracleAttackParams {
    /// How to count survivors after convergence (see CountMode).
    CountMode count_mode = CountMode::kExact;
    /// kEnumerate only: stop the surviving-configuration count once it
    /// reaches this bound (surviving_configs is then clamped to it and
    /// status is kSurvivorLimit: "at least this many survive").  The
    /// counting modes ignore it -- their counts are exact/estimated
    /// without a cap.
    std::uint64_t max_survivors = 1u << 20;
    /// kExact only: component-cache memory budget for the projected
    /// counter, in MiB.
    int count_cache_mb = 64;
    /// kExact only: branch-decision budget before the exact counter gives
    /// up and the attack falls back to capped enumeration (0 = unlimited).
    /// Structured selector spaces (the regime obfuscation actually
    /// creates: dead cones, decomposable masked freedom) count in
    /// hundreds to tens of thousands of decisions; a dense
    /// decomposition-resistant instance can exhaust any budget, and the
    /// fallback keeps the attack terminating with the legacy lower bound
    /// (a few seconds of burned budget) instead of hanging.  The fallback
    /// is visible in the result: count_mode reads kEnumerate.
    std::uint64_t count_max_decisions = 100'000;
    /// kApprox only: tolerance of the (epsilon, delta) guarantee.
    double epsilon = 0.8;
    double delta = 0.2;
    /// kApprox only: XOR hash sampling seed (estimates are deterministic
    /// per seed).
    std::uint64_t count_seed = 1;
    /// Safety valve on CEGAR iterations; 0 = unlimited.
    int max_iterations = 0;
    /// Skip the final enumeration (surviving_configs stays 0; the attack
    /// still terminates with the full distinguishing-input set).
    bool enumerate_survivors = true;
    /// Nodes the attacker knows are ordinary cells (as in is_plausible).
    const std::vector<bool>* fixed_nominal = nullptr;
    /// SAT-layer knobs: CNF preprocessing before the CEGAR loop, periodic
    /// inprocessing as the per-pattern circuit copies accumulate, and
    /// preprocessing of the enumeration instance.
    sat::SolverConfig solver;
    /// Structure-shared encoding: selector-independent cone cells
    /// (fixed_nominal cells, plus anything else whose selector collapsed
    /// to one choice) are encoded once per miter/pattern stamp instead of
    /// once per family, and constant cones fold away without allocating
    /// variables.  Off reproduces the legacy two-copy encoding exactly.
    bool shared_miter = true;
    /// Canonicalize each distinguishing input to the lexicographically
    /// smallest one (by PI index) before querying the oracle.  This makes
    /// the query sequence -- and with it every attack outcome -- a function
    /// of the problem instead of the CNF encoding and solver trajectory,
    /// so runs are bit-identical across preprocessing/sharing settings.
    /// Each canonicalized bit can cost an incremental UNSAT proof, which
    /// is affordable for small input widths (the exhaustive differential
    /// tests run it up to 6 PIs) but multiplies runtime at 16+; hence off
    /// by default.
    bool canonical_inputs = false;
    /// Warm-up: before the CEGAR loop, draw this many random input
    /// patterns (seeded by warmup_seed), query them through the batched
    /// word-parallel oracle path in blocks of up to 64, and add the I/O
    /// answers as constraints.  Each answered pattern prunes every
    /// configuration disagreeing with the chip on it, so the miter starts
    /// the distinguishing-input loop on a much smaller viable set -- a
    /// cheap query-selection baseline that measurably cuts the
    /// distinguishing-input count (see bench_oracle_attack).
    int random_warmup = 0;
    std::uint64_t warmup_seed = 1;
    /// Neighborhood warm-up: after each distinguishing input found by the
    /// live CEGAR loop, also query up to this many single-bit-flip
    /// neighbors of it (as one word-parallel block) and constrain their
    /// answers.  Distinguishing inputs sit on decision boundaries of the
    /// configuration space, so their neighborhoods are disproportionately
    /// likely to separate further configurations -- the CEGAR analogue of
    /// the random_warmup baseline, seeded by the inputs the solver already
    /// proved informative.  Survivor-preserving: extra I/O constraints
    /// only remove configurations the chip disagrees with (asserted in
    /// bench_oracle_attack).  Ignored under transcript replay, where the
    /// scripted patterns already embed whatever neighborhood queries the
    /// recorded run made.  Serial loop only: portfolio members never issue
    /// them, so the scenario layer (flow::validate_values) rejects a
    /// positive value with more than one member.  0 = off.
    int neighborhood_queries = 0;
    /// Collect per-attack latency metrics (oracle-query and SAT-solve
    /// histograms) into OracleAttackResult::metrics.  Also on whenever the
    /// process-global switch (obs::set_metrics_enabled, the CLI's
    /// --metrics) is; off by default because the per-query timing calls,
    /// while cheap, are measurable on microsecond-scale oracles.
    bool collect_metrics = false;
    /// The one parallelism knob: worker threads for the attack.  Feeds
    /// both engines -- cube-and-conquer workers for the exact survivor
    /// count (count::CounterConfig::threads) and, unless `portfolio`
    /// overrides it, the portfolio CEGAR member count.  1 = fully serial
    /// (the default; bit-identical to every earlier release).
    int attack_threads = 1;
    /// Portfolio CEGAR members racing on the netlist (0 = follow
    /// attack_threads, 1 = force the single serial CEGAR loop, N > 1 = N
    /// members).  Members share oracle answers through one caching layer
    /// and short learned clauses through sat::ClauseExchange; the first
    /// member to prove UNSAT cancels the rest and its transcript replays
    /// bit-identically through TranscriptOracle.  Survivor counts are
    /// invariant across member schedules (any convergent constraint set
    /// pins the same function).  Ignored when the oracle is a replaying
    /// transcript: replay always takes the serial path.  Members build the
    /// serial loop's miter and differ only in seeds and clause exchange;
    /// they do not issue neighborhood_queries (see above).
    int portfolio = 0;
    /// Selector-cube width for the parallel exact counter
    /// (count::CounterConfig::cube_vars); 0 = auto from attack_threads.
    int cube_vars = 0;
    /// Worker pool for portfolio members and cube workers.  nullptr (the
    /// default) spins up private pools; the batch runner passes its own
    /// pool so `mvf batch --jobs N` with attack_threads > 1 cannot
    /// oversubscribe or deadlock (workers submitting subtasks to the same
    /// pool helping-wait via ThreadPool::run_one).  Runtime plumbing only:
    /// excluded from spec hashing.
    util::ThreadPool* pool = nullptr;
};

struct OracleAttackResult {
    enum class Status {
        kSolved,          ///< CEGAR converged; count is exact
        kNoSurvivor,      ///< no configuration matches the oracle at all
        kIterationLimit,  ///< stopped by max_iterations
        kSurvivorLimit,   ///< count capped/saturated; a lower bound
        kApproxSolved,    ///< CEGAR converged; count is an (eps, delta) estimate
        kQueryBudget,     ///< the oracle's query budget cut the attack off
    };
    Status status = Status::kSolved;

    /// Distinguishing-input oracle queries made (== CEGAR iterations).
    int queries = 0;
    /// Random warm-up patterns answered before the loop (block queries).
    int warmup_queries = 0;
    /// Configurations consistent with the oracle on every input,
    /// saturated to uint64 (`survivors` below is full precision); exact
    /// for kSolved, an estimate for kApproxSolved, a lower bound for
    /// kSurvivorLimit.  All of them implement the oracle's function.
    std::uint64_t surviving_configs = 0;
    /// Full-precision survivor count (the authoritative figure; the
    /// projected counter handles spaces far beyond uint64).
    count::Count128 survivors;
    /// True once a survivor-counting backend actually ran (false for
    /// kIterationLimit, kQueryBudget and for enumerate_survivors == false,
    /// where the count fields below are meaningless zeros).
    bool counted = false;
    /// CountMode that produced the count: the params' mode, except that
    /// an exact run that exhausted its decision budget and fell back
    /// reads kEnumerate.  Meaningful only when `counted`.
    CountMode count_mode = CountMode::kExact;
    /// Exact-counter statistics (kExact; zeroed otherwise).
    count::CounterStats count_stats;
    /// Approximate-counter round summary (kApprox; zeroed otherwise).
    int approx_xor_levels = 0;
    int approx_rounds = 0;
    /// One surviving configuration, populated by the counting phase only:
    /// empty for kNoSurvivor, kIterationLimit and kQueryBudget, and
    /// whenever enumerate_survivors is off.  Per-node plausible indices as consumed
    /// by sim::simulate_camo.
    std::vector<int> witness_config;
    /// The distinguishing patterns, in query order.
    std::vector<std::vector<bool>> distinguishing_inputs;

    sat::Solver::Stats sat_stats;  ///< CEGAR solver (miter + I/O constraints)
    /// Latency histograms (microseconds), filled when
    /// OracleAttackParams::collect_metrics or the global metrics switch is
    /// on; empty() otherwise.
    obs::AttackMetrics metrics;
    /// Cells encoded once instead of per-family across all shared stamps
    /// (0 when shared_miter is off or nothing was shareable).
    std::uint64_t shared_cells = 0;
    /// Portfolio: index of the member whose UNSAT proof won the race, or
    /// -1 (serial attack, or no member converged).  When >= 0,
    /// winner_transcript holds that member's complete query transcript --
    /// recorded unconditionally, because the oracle stack's own recorder
    /// sees the members' queries interleaved and is NOT replayable.
    int winner = -1;
    OracleTranscript winner_transcript;
    double seconds = 0.0;

    bool solved() const {
        return status == Status::kSolved || status == Status::kApproxSolved;
    }
};

/// Human-readable status ("solved", "iteration limit", ...), shared by the
/// adversary reports and the trace spans.
std::string_view attack_status_name(OracleAttackResult::Status s);

/// Runs the CEGAR attack on `netlist` against `oracle`.  The oracle must
/// answer with netlist.num_pos() outputs for netlist.num_pis() inputs.
/// A BudgetedOracle in the stack terminates the attack honestly: the
/// budget trip surfaces as Status::kQueryBudget (no survivor counting
/// runs, mirroring kIterationLimit).  A replaying TranscriptOracle drives
/// the query sequence via Oracle::scripted_pattern().
OracleAttackResult oracle_attack(const camo::CamoNetlist& netlist,
                                 Oracle& oracle,
                                 const OracleAttackParams& params = {});

/// The survivor-counting tail of oracle_attack, reusable by any adversary
/// that gathers I/O constraints (inputs[i] answered by answers[i]): counts
/// the configurations consistent with every pair under params.count_mode,
/// filling result's counting fields, witness_config, and status
/// (kNoSurvivor / kSurvivorLimit / kApproxSolved; an untouched status
/// means the count is exact and at least one configuration survives).
void count_consistent_configs(const camo::CamoNetlist& netlist,
                              const std::vector<std::vector<bool>>& inputs,
                              const std::vector<std::vector<bool>>& answers,
                              const OracleAttackParams& params,
                              OracleAttackResult* result);

}  // namespace mvf::attack
