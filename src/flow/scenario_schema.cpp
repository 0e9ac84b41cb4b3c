#include "flow/scenario_schema.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "attack/adversary.hpp"
#include "camo/inject.hpp"
#include "util/sha256.hpp"

namespace mvf::flow {

namespace {

using report::Json;

[[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument(what);
}

/// Appends `item` to a `sep`-separated list.
void append(std::string& list, std::string_view item, std::string_view sep) {
    if (!list.empty()) list += sep;
    list += item;
}

/// Sets `value` at a dotted path, creating intermediate objects.
void set_path(Json& root, std::string_view path, Json value) {
    const std::size_t dot = path.find('.');
    if (dot == std::string_view::npos) {
        root.set(std::string(path), std::move(value));
        return;
    }
    const std::string head(path.substr(0, dot));
    const Json* existing = root.find(head);
    Json child = existing ? *existing : Json::object();
    set_path(child, path.substr(dot + 1), std::move(value));
    root.set(head, std::move(child));
}

/// A knob's field, named once for mutable scenarios.
template <class T>
using Ref = T& (*)(Scenario&);

/// The accessor of Scenario field `member`; the unary plus turns the
/// lambda into a Ref<T>, so templates such as api() deduce T from it.
#define FIELD(member) +[](Scenario& s) -> auto& { return s.member; }

/// Reads a field through its accessor; never writes.
template <class T>
const T& read(Ref<T> ref, const Scenario& s) {
    return ref(const_cast<Scenario&>(s));
}

std::string to_text(double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}
std::string to_text(int v) { return std::to_string(v); }
std::string to_text(std::uint64_t v) { return std::to_string(v); }
std::string to_text(bool v) { return v ? "1" : "0"; }
std::string to_text(const std::string& v) { return v; }

/// Completes `k` for a field of type T: `parse(text, spelling)` yields the
/// value; the text form and the canonical JSON follow from the type.
template <class T, class Parse>
Knob field(Knob k, Ref<T> ref, Parse parse) {
    k.parse = [=](Scenario& s, std::string_view text, const std::string& sp) {
        ref(s) = parse(text, sp);
    };
    k.format = [=](const Scenario& s) { return to_text(read(ref, s)); };
    if (!k.path.empty()) {
        k.emit = [=, path = k.path](const Scenario& s, Json& root) {
            set_path(root, path, Json(read(ref, s)));
        };
    }
    return k;
}

/// Strict number parse: the whole text, no sign on unsigned values.
template <class T>
T parse_number(std::string_view text, const std::string& spelling) {
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) {
        const char* kind = std::is_floating_point_v<T> ? "a number"
                           : std::is_signed_v<T>        ? "an integer"
                                                        : "an unsigned integer";
        fail(spelling + " expects " + kind + ", got \"" + std::string(text) + "\"");
    }
    return value;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The values a number knob accepts: lo to hi, each end open or closed.
struct Range {
    double lo = -kInf;
    double hi = kInf;
    bool lo_open = false;
    bool hi_open = false;

    bool contains(double v) const {
        return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
    }
    std::string text() const {
        if (std::isinf(hi)) return (lo_open ? "> " : ">= ") + to_text(lo);
        return std::string("in ") + (lo_open ? "(" : "[") + to_text(lo) + ", " +
               to_text(hi) + (hi_open ? ")" : "]");
    }
};

template <class T>
Knob num(Knob k, Ref<T> ref, Range range = {}) {
    return field(std::move(k), ref, [range](std::string_view text, const std::string& sp) {
        const T v = parse_number<T>(text, sp);
        if (!range.contains(static_cast<double>(v))) {
            fail(sp + " must be " + range.text());
        }
        return v;
    });
}

Knob flag(Knob k, Ref<bool> ref) {
    return field(std::move(k), ref, [](std::string_view text, const std::string& sp) {
        if (text == "1" || text == "true") return true;
        if (text == "0" || text == "false") return false;
        fail(sp + " must be 0/1/true/false, got \"" + std::string(text) + "\"");
    });
}

Knob text(Knob k, Ref<std::string> ref, bool required = false) {
    return field(std::move(k), ref, [required](std::string_view text, const std::string& sp) {
        if (required && text.empty()) fail(sp + " needs a value");
        return std::string(text);
    });
}

/// A field whose value is one of `names`, spelled by name everywhere.
template <class E>
Knob choice(Knob k, Ref<E> ref, std::vector<std::pair<std::string, E>> names) {
    const auto name_of = [names](const E& v) {
        for (const auto& [name, value] : names) {
            if (value == v) return name;
        }
        return std::string("unknown");
    };
    k.parse = [=](Scenario& s, std::string_view text, const std::string& sp) {
        std::string known;
        for (const auto& [name, value] : names) {
            if (name == text) {
                ref(s) = value;
                return;
            }
            append(known, name, ", ");
        }
        fail(sp + " must be one of " + known + "; got \"" + std::string(text) + "\"");
    };
    k.format = [=](const Scenario& s) { return name_of(read(ref, s)); };
    k.emit = [=, path = k.path](const Scenario& s, Json& root) {
        set_path(root, path, Json(name_of(read(ref, s))));
    };
    return k;
}

/// An API-only knob: a FlowParams field that no surface sets, hashed at
/// `path`.
template <class T>
Knob api(std::string_view path, Phase phase, Applies applies, Ref<T> ref) {
    if constexpr (std::is_same_v<T, bool>) {
        return flag({.path = path, .phase = phase, .applies = applies}, ref);
    } else {
        return num<T>({.path = path, .phase = phase, .applies = applies}, ref);
    }
}

std::vector<std::pair<std::string, synth::Effort>> effort_names() {
    return {{"fast", synth::Effort::kFast},
            {"default", synth::Effort::kDefault},
            {"high", synth::Effort::kHigh}};
}

/// SHA-256 of the file's bytes, or "unreadable" when it cannot be opened.
/// Never throws: spec hashes are stamped into records before the pipeline
/// runs, so a missing circuit file must surface as the import stage's
/// ParseError, not here.
std::string file_fingerprint(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return "unreadable";
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return util::sha256_hex(bytes.str());
}

/// The scenario subject: a merged viable-function set or a circuit file.
void add_subject_knobs(std::vector<Knob>& t) {
    const Phase p = Phase::kSearch;
    t.push_back(text({.key = "name", .flag = "--name", .value_name = "NAME", .phase = p,
                      .hash = Hash::kNone, .help = "report label (default <family><n>-s<seed>)"},
                     FIELD(name)));
    Knob funcs{.key = "funcs", .flag = "--funcs", .value_name = "FAMILY:N", .phase = p,
               .applies = Applies::kSbox, .help = "viable set: present:1..16 or des:1..8"};
    funcs.parse = [](Scenario& s, std::string_view text, const std::string& sp) {
        const std::size_t colon = text.find(':');
        if (colon == std::string_view::npos) {
            fail(sp + " expects FAMILY:N, got \"" + std::string(text) + "\"");
        }
        s.n = parse_number<int>(text.substr(colon + 1), sp + " width");
        s.family = std::string(text.substr(0, colon));
    };
    funcs.format = [](const Scenario& s) { return s.family + ":" + std::to_string(s.n); };
    funcs.emit = [](const Scenario& s, Json& root) {
        root.set("family", s.family);
        root.set("n", s.n);
    };
    t.push_back(std::move(funcs));
    // The import stage depends on the file's CONTENTS, not just its path:
    // editing the circuit on disk must miss in the stage cache rather than
    // warm-hit a stale snapshot.
    Knob circuit = text({.key = "circuit", .flag = "--circuit", .value_name = "FILE", .phase = p,
                         .applies = Applies::kCircuit,
                         .help = "attack a BLIF, AIGER or .bench circuit instead"},
                        FIELD(params.circuit.path), /*required=*/true);
    circuit.emit = [](const Scenario& s, Json& root) {
        root.set("circuit", s.params.circuit.path);
        root.set("circuit_sha256", file_fingerprint(s.params.circuit.path));
    };
    t.push_back(std::move(circuit));
    t.push_back(num<std::uint64_t>({.key = "seed", .flag = "--seed", .value_name = "S",
                                    .path = "seed", .phase = p, .hash = Hash::kSeed,
                                    .help = "RNG seed"},
                                   FIELD(params.seed)));
}

/// Phase II pin search (S-box) and the technology mapping both kinds use.
/// ga.seed is no knob: the pipeline overrides it with the scenario seed.
void add_search_knobs(std::vector<Knob>& t) {
    const Phase p = Phase::kSearch;
    const Applies sbox = Applies::kSbox;
    const Applies both = Applies::kBoth;
    t.push_back(num<int>({.key = "population", .alias = "pop", .flag = "--population",
                          .value_name = "P", .path = "ga.population", .phase = p,
                          .applies = sbox, .help = "GA population"},
                         FIELD(params.ga.population), {.lo = 1}));
    t.push_back(num<int>({.key = "generations", .alias = "gens", .flag = "--generations",
                          .value_name = "G", .path = "ga.generations", .phase = p,
                          .applies = sbox, .help = "GA generations"},
                         FIELD(params.ga.generations), {.lo = 0}));
    t.push_back(api("ga.crossover_prob", p, sbox, FIELD(params.ga.crossover_prob)));
    t.push_back(api("ga.mutation_prob", p, sbox, FIELD(params.ga.mutation_prob)));
    t.push_back(api("ga.tournament_size", p, sbox, FIELD(params.ga.tournament_size)));
    t.push_back(api("ga.elite", p, sbox, FIELD(params.ga.elite)));
    t.push_back(choice<synth::Effort>({.path = "fitness_effort", .phase = p, .applies = sbox},
                                      FIELD(params.fitness_effort), effort_names()));
    t.push_back(choice<BuildStyle>({.path = "fitness_build", .phase = p, .applies = sbox},
                                   FIELD(params.fitness_build),
                                   {{"factored", BuildStyle::kFactored},
                                    {"shared-extract", BuildStyle::kSharedExtract}}));
    t.push_back(api("map.cut_max_leaves", p, both, FIELD(params.map.cuts.max_leaves)));
    t.push_back(api("map.cut_max_cuts_per_node", p, both,
                    FIELD(params.map.cuts.max_cuts_per_node)));
    t.push_back(api("map.cut_include_trivial", p, both, FIELD(params.map.cuts.include_trivial)));
    t.push_back(api("map.recovery_iterations", p, both, FIELD(params.map.recovery_iterations)));
    t.push_back(api("random_count", p, sbox, FIELD(params.random_count)));
    t.push_back(flag({.key = "baseline", .flag = "--no-baseline", .flag_sets = "0",
                      .path = "run_random_baseline", .phase = p, .applies = sbox,
                      .help = "equal-budget random pin-assignment baseline"},
                     FIELD(params.run_random_baseline)));
}

/// Final synthesis (S-box) or cell injection (circuit), then the cover.
void add_synth_cover_knobs(std::vector<Knob>& t) {
    const Phase p = Phase::kSynth;
    const Applies circuit = Applies::kCircuit;
    const Applies sbox = Applies::kSbox;
    t.push_back(num<double>({.key = "camo_density", .flag = "--camo-density", .value_name = "D",
                             .path = "camo_density", .phase = p, .applies = circuit,
                             .help = "camouflage this fraction of the cells"},
                            FIELD(params.circuit.camo_density),
                            {.lo = 0, .hi = 1, .lo_open = true}));
    t.push_back(num<int>({.key = "camo_cells", .flag = "--camo-cells", .value_name = "N",
                          .path = "camo_cells", .phase = p, .applies = circuit,
                          .help = "camouflage exactly N cells instead"},
                         FIELD(params.circuit.camo_cells), {.lo = 1}));
    t.push_back(num<std::uint64_t>({.key = "camo_seed", .flag = "--camo-seed", .value_name = "S",
                                    .path = "camo_seed", .phase = p, .applies = circuit,
                                    .help = "cell-selection seed (0 = the scenario seed)"},
                                   FIELD(params.circuit.camo_seed)));
    std::vector<std::pair<std::string, std::string>> policies;
    for (const camo::InjectPolicy policy : {camo::InjectPolicy::kRandom,
                                            camo::InjectPolicy::kFanout,
                                            camo::InjectPolicy::kDepth}) {
        policies.emplace_back(camo::inject_policy_name(policy), camo::inject_policy_name(policy));
    }
    t.push_back(choice<std::string>({.key = "camo_policy", .flag = "--camo-policy",
                                     .value_name = "P", .path = "camo_policy", .phase = p,
                                     .applies = circuit,
                                     .help = "cells to pick: random, fanout or depth first"},
                                    FIELD(params.circuit.camo_policy), std::move(policies)));
    t.push_back(choice<synth::Effort>({.path = "final_effort", .phase = p, .applies = sbox},
                                      FIELD(params.final_effort), effort_names()));
    t.push_back(flag({.key = "final_best", .flag = "--no-final-best", .flag_sets = "0",
                      .path = "final_best_of_builds", .phase = p, .applies = sbox,
                      .help = "also try the shared-extraction final build"},
                     FIELD(params.final_best_of_builds)));
    const Phase c = Phase::kCover;
    t.push_back(api("camo.subtree_max_depth", c, sbox, FIELD(params.camo.subtree.max_depth)));
    t.push_back(api("camo.subtree_max_signal_leaves", c, sbox,
                    FIELD(params.camo.subtree.max_signal_leaves)));
    t.push_back(api("camo.subtree_max_candidates", c, sbox,
                    FIELD(params.camo.subtree.max_candidates)));
}

/// The attack stage's panel, transcripts and proof.
void add_attack_knobs(std::vector<Knob>& t) {
    const Phase a = Phase::kAttack;
    const Applies both = Applies::kBoth;
    t.push_back(flag({.key = "camo", .flag = "--no-camo", .flag_sets = "0",
                      .path = "run_camo_mapping", .help = "Phase III cover, or cell injection"},
                     FIELD(params.run_camo_mapping)));
    t.push_back(flag({.key = "verify", .flag = "--no-verify", .flag_sets = "0", .path = "verify",
                      .applies = Applies::kSbox, .help = "replay every configuration"},
                     FIELD(params.verify)));
    Knob attack{.key = "attack", .flag = "--adversaries", .value_name = "A,B",
                .path = "attack.adversaries", .help = "adversaries to run, or none"};
    attack.parse = [](Scenario& s, std::string_view text, const std::string&) {
        s.params.adversaries.clear();
        if (text == "none") {
            s.params.run_oracle_attack = false;
            return;
        }
        std::istringstream in{std::string(text)};
        for (std::string item; std::getline(in, item, ',');) {
            if (!item.empty()) s.params.adversaries.push_back(item);
        }
    };
    attack.format = [](const Scenario& s) {
        std::string out;
        for (const std::string& a : s.params.adversaries) append(out, a, ",");
        return out.empty() ? std::string("none") : out;
    };
    attack.emit = [](const Scenario& s, Json& root) {
        Json list = Json::array();
        for (const std::string& a : s.params.adversaries) list.push_back(a);
        set_path(root, "attack.adversaries", std::move(list));
    };
    t.push_back(std::move(attack));
    t.push_back(api("attack.run_oracle_attack", a, both, FIELD(params.run_oracle_attack)));
    t.push_back(num<int>({.key = "random_queries", .flag = "--random-queries", .value_name = "N",
                          .path = "attack.random_queries",
                          .help = "patterns the random-sampling adversary draws"},
                         FIELD(params.random_queries), {.lo = 1}));
    // Replaying changes results, so the path is hashed; the cache cannot
    // see the file's contents, so the scenario is never stage-cached.
    // Recording and committing are side effects a cache hit would skip.
    t.push_back(text({.key = "replay_transcript", .flag = "--replay-transcript",
                      .value_name = "FILE", .path = "attack.replay_transcript",
                      .uncacheable = true, .help = "answer from a recorded transcript"},
                     FIELD(params.replay_transcript)));
    t.push_back(text({.key = "save_transcript", .flag = "--save-transcript", .value_name = "FILE",
                      .hash = Hash::kNone, .uncacheable = true,
                      .help = "record the oracle transcript as JSON"},
                     FIELD(params.save_transcript)));
    t.push_back(text({.key = "emit_proof", .flag = "--emit-proof", .value_name = "FILE",
                      .hash = Hash::kNone, .uncacheable = true,
                      .help = "write a proof of the CEGAR run (mvf verify-proof)"},
                     FIELD(params.emit_proof)));
}

/// The CEGAR attack: survivor counting, SAT and the oracle threat model.
void add_oracle_knobs(std::vector<Knob>& t) {
    const Phase a = Phase::kAttack;
    const Applies both = Applies::kBoth;
    using attack::CountMode;
    std::vector<std::pair<std::string, CountMode>> modes;
    for (const CountMode m : {CountMode::kExact, CountMode::kApprox, CountMode::kEnumerate}) {
        modes.emplace_back(attack::count_mode_name(m), m);
    }
    t.push_back(choice<CountMode>({.key = "count_mode", .flag = "--count-mode", .value_name = "M",
                                   .path = "attack.oracle.count_mode",
                                   .help = "survivor counting: exact, approx or enumerate"},
                                  FIELD(params.oracle.count_mode), std::move(modes)));
    t.push_back(num<std::uint64_t>({.key = "max_survivors", .flag = "--max-survivors",
                                    .value_name = "N", .path = "attack.oracle.max_survivors",
                                    .help = "enumeration cap (implies enumerate)"},
                                   FIELD(params.oracle.max_survivors)));
    t.push_back(num<int>({.key = "count_cache_mb", .flag = "--count-cache-mb", .value_name = "N",
                          .path = "attack.oracle.count_cache_mb",
                          .help = "exact: component-cache budget in MB"},
                         FIELD(params.oracle.count_cache_mb), {.lo = 1}));
    t.push_back(num<std::uint64_t>({.key = "count_max_decisions", .flag = "--count-max-decisions",
                                    .value_name = "N", .path = "attack.oracle.count_max_decisions",
                                    .help = "exact: branch budget before the fallback, 0 = off"},
                                   FIELD(params.oracle.count_max_decisions)));
    t.push_back(num<double>({.key = "epsilon", .flag = "--epsilon", .value_name = "E",
                             .path = "attack.oracle.epsilon", .help = "approx: tolerance"},
                            FIELD(params.oracle.epsilon), {.lo = 0, .lo_open = true}));
    t.push_back(num<double>({.key = "delta", .flag = "--delta", .value_name = "D",
                             .path = "attack.oracle.delta", .help = "approx: error probability"},
                            FIELD(params.oracle.delta),
                            {.lo = 0, .hi = 1, .lo_open = true, .hi_open = true}));
    t.push_back(api("attack.oracle.count_seed", a, both, FIELD(params.oracle.count_seed)));
    t.push_back(api("attack.oracle.max_iterations", a, both, FIELD(params.oracle.max_iterations)));
    t.push_back(flag({.key = "enum_survivors", .flag = "--no-enumerate", .flag_sets = "0",
                      .path = "attack.oracle.enumerate_survivors",
                      .help = "count the surviving configurations"},
                     FIELD(params.oracle.enumerate_survivors)));
    t.push_back(flag({.key = "shared_miter", .flag = "--no-shared-miter", .flag_sets = "0",
                      .path = "attack.oracle.shared_miter",
                      .help = "one-copy CEGAR miter (0 = legacy two copies)"},
                     FIELD(params.oracle.shared_miter)));
    t.push_back(flag({.key = "canonical_inputs", .flag = "--canonical-inputs", .flag_sets = "1",
                      .path = "attack.oracle.canonical_inputs",
                      .help = "lex-min distinguishing inputs (slow at 16+)"},
                     FIELD(params.oracle.canonical_inputs)));
    t.push_back(num<int>({.key = "random_warmup", .flag = "--random-warmup", .value_name = "N",
                          .path = "attack.oracle.random_warmup",
                          .help = "random patterns queried before the loop"},
                         FIELD(params.oracle.random_warmup), {.lo = 0}));
    t.push_back(num<int>({.key = "neighborhood_queries", .flag = "--neighborhood-queries",
                          .value_name = "N", .path = "attack.oracle.neighborhood_queries",
                          .help = "bit-flip neighbors queried per input"},
                         FIELD(params.oracle.neighborhood_queries), {.lo = 0}));
    t.push_back(api("attack.oracle.warmup_seed", a, both, FIELD(params.oracle.warmup_seed)));
    // `--metrics` is the process-wide metrics registry: no CLI spelling.
    t.push_back(flag({.key = "metrics", .path = "attack.oracle.collect_metrics",
                      .help = "per-attack latency histograms in the report"},
                     FIELD(params.oracle.collect_metrics)));
    // Parallelism knobs are semantic: they select the portfolio and cube
    // engines, whose transcripts and stats differ from serial runs.
    t.push_back(num<int>({.key = "attack_threads", .flag = "--attack-threads", .value_name = "N",
                          .path = "attack.oracle.attack_threads",
                          .help = "portfolio and cube-counting threads"},
                         FIELD(params.oracle.attack_threads), {.lo = 1}));
    t.push_back(num<int>({.key = "portfolio", .flag = "--portfolio", .value_name = "N",
                          .path = "attack.oracle.portfolio",
                          .help = "CEGAR members (0 = one per thread)"},
                         FIELD(params.oracle.portfolio), {.lo = 0}));
    t.push_back(num<int>({.key = "cube_vars", .flag = "--cube-vars", .value_name = "K",
                          .path = "attack.oracle.cube_vars",
                          .help = "counter selector-cube width (0 = auto)"},
                         FIELD(params.oracle.cube_vars), {.lo = 0, .hi = 16}));
    t.push_back(flag({.key = "preprocess", .flag = "--no-preprocess", .flag_sets = "0",
                      .path = "attack.oracle.solver.preprocess",
                      .help = "SAT preprocessing and inprocessing"},
                     FIELD(params.oracle.solver.preprocess)));
    t.push_back(num<int>({.key = "elim_occ", .flag = "--elim-occ", .value_name = "N",
                          .path = "attack.oracle.solver.elim_occ_limit",
                          .help = "BVE occurrence bound"},
                         FIELD(params.oracle.solver.elim_occ_limit), {.lo = 0}));
    t.push_back(num<int>({.key = "elim_growth", .flag = "--elim-growth", .value_name = "N",
                          .path = "attack.oracle.solver.elim_growth",
                          .help = "BVE clause-growth bound"},
                         FIELD(params.oracle.solver.elim_growth), {.lo = 0}));
    t.push_back(api("attack.oracle.solver.elim_resolvent_limit", a, both,
                    FIELD(params.oracle.solver.elim_resolvent_limit)));
    t.push_back(api("attack.oracle.solver.max_rounds", a, both,
                    FIELD(params.oracle.solver.max_rounds)));
    t.push_back(api("attack.oracle.solver.inprocess_growth", a, both,
                    FIELD(params.oracle.solver.inprocess_growth)));
    t.push_back(num<std::uint64_t>({.key = "query_budget", .flag = "--query-budget",
                                    .value_name = "N", .path = "attack.oracle_model.query_budget",
                                    .help = "patterns the chip answers (unset = no limit)"},
                                   FIELD(params.oracle_model.query_budget), {.lo = 1}));
    t.push_back(num<double>({.key = "oracle_noise", .flag = "--oracle-noise", .value_name = "P",
                             .path = "attack.oracle_model.noise",
                             .help = "per-bit answer flip probability"},
                            FIELD(params.oracle_model.noise), {.lo = 0, .hi = 1, .hi_open = true}));
    t.push_back(api("attack.oracle_model.noise_seed", a, both,
                    FIELD(params.oracle_model.noise_seed)));
    t.push_back(flag({.key = "oracle_cache", .flag = "--oracle-cache", .flag_sets = "1",
                      .path = "attack.oracle_model.cache",
                      .help = "dedupe repeated oracle patterns"},
                     FIELD(params.oracle_model.cache)));
}

#undef FIELD

std::vector<Knob> build_table() {
    std::vector<Knob> t;
    add_subject_knobs(t);
    add_search_knobs(t);
    add_synth_cover_knobs(t);
    add_attack_knobs(t);
    add_oracle_knobs(t);
    return t;
}

const Knob& knob(std::string_view key) {
    const Knob* k = find_knob(key);
    if (!k) throw std::logic_error("scenario schema: no knob " + std::string(key));
    return *k;
}

/// "count_mode=approx" on the spec surface; "--count-mode approx" (or the
/// switch that sets that value) on the CLI.
std::string setting(std::string_view key, std::string_view value, Surface surface) {
    const Knob& k = knob(key);
    if (surface == Surface::kSpec || k.flag.empty()) {
        return std::string(key) + "=" + std::string(value);
    }
    if (k.flag_sets == value) return std::string(k.flag);
    return std::string(k.flag) + " " + std::string(value);
}

/// "bench/c17.bench" -> "c17": the default name of a circuit scenario.
std::string file_stem(const std::string& path) {
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find_last_of('.');
    const std::size_t end = (dot == std::string::npos || dot <= start) ? path.size() : dot;
    return path.substr(start, end - start);
}

/// `--quick`: small GA budgets, a small survivor cap and a small
/// exact-counter decision budget (the cap also bounds the exact counter's
/// fallback).  Applied as defaults: none of them marks its key as given.
constexpr std::pair<std::string_view, std::string_view> kQuick[] = {
    {"population", "8"},
    {"generations", "4"},
    {"max_survivors", "256"},
    {"count_max_decisions", "20000"},
};

}  // namespace

std::string Knob::spelling(Surface surface) const {
    if (key.empty()) return std::string(path);
    if (surface == Surface::kCli && !flag.empty()) return std::string(flag);
    return std::string(key);
}

bool Knob::applies_to(bool circuit) const {
    return applies == Applies::kBoth || applies == (circuit ? Applies::kCircuit : Applies::kSbox);
}

bool Knob::is_set(const Scenario& s) const {
    static const Scenario defaults;
    return format(s) != format(defaults);
}

const std::vector<Knob>& scenario_knobs() {
    static const std::vector<Knob> table = build_table();
    return table;
}

const Knob* find_knob(std::string_view key) {
    for (const Knob& k : scenario_knobs()) {
        if (!key.empty() && (k.key == key || k.alias == key)) return &k;
    }
    return nullptr;
}

const Knob* find_flag(std::string_view flag) {
    for (const Knob& k : scenario_knobs()) {
        if (!flag.empty() && k.flag == flag) return &k;
    }
    return nullptr;
}

void ScenarioBuilder::apply(const Knob& k, std::string_view value) {
    k.parse(scenario_, value, k.spelling(surface_));
    given_.insert(k.key);
}

void ScenarioBuilder::set(std::string_view key, std::string_view value) {
    const Knob* k = find_knob(key);
    if (!k) {
        std::string known;
        for (const Knob& c : scenario_knobs()) {
            if (!c.key.empty()) append(known, c.key, " ");
        }
        fail("unknown key \"" + std::string(key) + "\" (" + known + ")");
    }
    apply(*k, value);
}

bool ScenarioBuilder::take_flag(const std::vector<std::string>& args, std::size_t* i) {
    const Knob* k = find_flag(args[*i]);
    if (!k) return false;
    if (!k->flag_sets.empty()) {
        apply(*k, k->flag_sets);
    } else if (*i + 1 < args.size()) {
        ++*i;
        apply(*k, args[*i]);
    } else {
        fail(args[*i] + " needs a value");
    }
    return true;
}

void ScenarioBuilder::apply_quick_defaults() {
    for (const auto& [key, value] : kQuick) {
        if (given_.count(key) == 0) knob(key).parse(scenario_, value, knob(key).spelling(surface_));
    }
}

Scenario ScenarioBuilder::finish() {
    validate_scenario(scenario_, given_, surface_);
    Scenario s = scenario_;
    // A survivor cap is a request for capped enumeration.
    if (given_.count("max_survivors") != 0) {
        s.params.oracle.count_mode = attack::CountMode::kEnumerate;
    }
    const bool circuit = !s.params.circuit.path.empty();
    if (circuit) {
        s.family = std::string(kCircuitFamily);
        s.n = 0;
    }
    if (s.name.empty()) {
        s.name = (circuit ? file_stem(s.params.circuit.path) : s.family + std::to_string(s.n)) +
                 "-s" + std::to_string(s.params.seed);
    }
    return s;
}

void validate_scenario(const Scenario& s, const std::set<std::string_view>& given,
                       Surface surface) {
    const auto has = [&given](std::string_view key) { return given.count(key) != 0; };
    const auto sp = [surface](std::string_view key) { return knob(key).spelling(surface); };
    const bool circuit = !s.params.circuit.path.empty();
    if (circuit && has("funcs")) {
        fail(sp("circuit") + " and " + sp("funcs") + " name two different subjects; pick one");
    }
    for (const std::string_view key : given) {
        if (knob(key).applies_to(circuit)) continue;
        fail(sp(key) + (circuit ? " steers the S-box synthesis flow, which circuit scenarios skip"
                                : " requires " + sp("circuit") +
                                      " (the S-box flow camouflages via Phase III covering)"));
    }
    if (has("camo_density") && has("camo_cells")) {
        fail(sp("camo_density") + " and " + sp("camo_cells") +
             " both size the camouflage budget; pick one");
    }

    // Counting keys each apply to one count mode, and to none when
    // counting is off: contradictions are errors, never silently ignored.
    using attack::CountMode;
    static const std::pair<std::string_view, CountMode> kModeOf[] = {
        {"max_survivors", CountMode::kEnumerate}, {"epsilon", CountMode::kApprox},
        {"delta", CountMode::kApprox},            {"count_cache_mb", CountMode::kExact},
        {"count_max_decisions", CountMode::kExact}};
    const bool counting_off = has("enum_survivors") && !s.params.oracle.enumerate_survivors;
    // A survivor cap without a named mode asks for capped enumeration.
    const CountMode mode = has("max_survivors") && !has("count_mode")
                               ? CountMode::kEnumerate
                               : s.params.oracle.count_mode;
    for (const auto& [key, required] : kModeOf) {
        if (counting_off && (has(key) || has("count_mode"))) {
            fail(setting("enum_survivors", "0", surface) +
                 " skips survivor counting; it contradicts " +
                 sp(has(key) ? key : "count_mode"));
        }
        if (has(key) && mode != required) {
            fail(sp(key) + " only applies to " +
                 setting("count_mode", attack::count_mode_name(required), surface));
        }
    }
    // Replay serves recorded answers; fresh measurement noise on top would
    // corrupt a transcript that already embeds the noise it was recorded
    // under.
    if (has("oracle_noise") && !s.params.replay_transcript.empty()) {
        fail(sp("replay_transcript") + " replays recorded answers; it contradicts " +
             sp("oracle_noise"));
    }
    // The attack stage's panel: the named adversaries, or the implicit
    // CEGAR attacker of FlowParams::run_oracle_attack.
    const FlowParams& p = s.params;
    validate_values(p, p.adversaries.empty() && p.run_oracle_attack
                           ? std::vector<std::string>{"cegar"}
                           : p.adversaries,
                    surface);
}

void validate_values(const FlowParams& p, const std::vector<std::string>& panel,
                     Surface surface) {
    const auto sp = [surface](std::string_view key) { return knob(key).spelling(surface); };
    const attack::AdversaryRegistry& registry = attack::AdversaryRegistry::instance();
    for (const std::string& name : panel) {
        // Factories only need options at attack time; an unknown name
        // throws, listing the registered ones.
        std::unique_ptr<attack::Adversary> adversary;
        try {
            adversary = registry.create(name, {});
        } catch (const std::invalid_argument& e) {
            fail(sp("attack") + ": " + e.what());
        }
        if (!p.circuit.path.empty() && adversary->knowledge() == attack::Knowledge::kViableSet) {
            fail("adversary \"" + name + "\" needs the viable-function set; circuit scenarios "
                 "support oracle-granted adversaries (e.g. cegar, random-sampling)");
        }
    }
    const bool replay = !p.replay_transcript.empty();
    // A cache above a replaying transcript desynchronizes the replay cursor
    // on duplicate patterns, and a transcript is one member's ordered view,
    // so racing a portfolio over it is contradictory.
    if (replay && p.oracle_model.cache) {
        fail(sp("replay_transcript") + " contradicts " + sp("oracle_cache"));
    }
    if (replay && p.oracle.portfolio > 1) {
        fail(sp("replay_transcript") + " contradicts " + sp("portfolio"));
    }
    const int members =
        p.oracle.portfolio > 0 ? p.oracle.portfolio : std::max(1, p.oracle.attack_threads);
    const auto require_serial = [&](std::string_view key) {
        if (members <= 1) return;
        fail(sp(key) + " requires a serial CEGAR attack (set " +
             setting("portfolio", "1", surface) + " or " +
             setting("attack_threads", "1", surface) + ")");
    };
    // Neighborhood queries extend the serial CEGAR loop; portfolio members
    // never issue them.
    if (p.oracle.neighborhood_queries > 0) require_serial("neighborhood_queries");
    // A proof certifies a fresh serial CEGAR run: replaying a transcript
    // proves nothing new, and portfolio members interleave their queries
    // into a non-replayable sequence.
    if (p.emit_proof.empty()) return;
    if (replay) fail(sp("emit_proof") + " contradicts " + sp("replay_transcript"));
    require_serial("emit_proof");
    if (std::find(panel.begin(), panel.end(), "cegar") == panel.end()) {
        fail(sp("emit_proof") + " requires the cegar adversary in " + sp("attack"));
    }
}

std::string knob_usage() {
    static const char* const kHeadings[] = {"subject and pin search",
                                            "synthesis and camouflage injection",
                                            "camouflage cover", "attack"};
    static const Scenario defaults;
    std::string out = "  --quick ";
    for (const auto& [key, value] : kQuick) out.append(" ").append(key).append("=").append(value);
    out += "\n      (run/attack only) small budgets for the knobs not given\n";
    int heading = -1;
    for (const Knob& k : scenario_knobs()) {
        if (k.key.empty()) continue;  // API-only
        if (static_cast<int>(k.phase) != heading) {
            heading = static_cast<int>(k.phase);
            out.append("\n").append(kHeadings[heading]).append(":\n");
        }
        const std::string_view value = k.value_name.empty() ? "0|1" : k.value_name;
        out += "  ";
        if (!k.flag.empty()) {
            out.append(k.flag).append(k.flag_sets.empty() ? " " : "");
            out.append(k.flag_sets.empty() ? value : "").append(", ");
        }
        out.append(k.key).append("=").append(value);
        if (!k.alias.empty()) out.append(" (or ").append(k.alias).append("=)");
        out.append(k.flag.empty() ? " (spec only)" : "").append("\n      ").append(k.help);
        // A default is shown when it is itself a valid value.
        const std::string def = k.format(defaults);
        try {
            Scenario probe;
            if (!def.empty()) {
                k.parse(probe, def, "");
                out.append(" (default ").append(def).append(")");
            }
        } catch (const std::invalid_argument&) {
        }
        out += "\n";
    }
    return out;
}

}  // namespace mvf::flow
