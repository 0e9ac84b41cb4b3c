// mvf -- experiment driver for the multiple-viable-function flow.
//
// New workloads need zero C++: scenarios are described by flags or a plain
// text spec file and executed through the same flow::Pipeline /
// flow::BatchRunner API the library exposes.
//
//   mvf run    [scenario flags]           one scenario, human-readable summary
//   mvf attack [scenario flags]           run + red-team with --adversaries
//   mvf batch  --spec FILE --jobs N       N-way parallel scenario batch
//   mvf serve  --listen ADDR              persistent experiment server
//   mvf submit --connect ADDR --spec FILE submit a spec to a server
//   mvf watch  --connect ADDR --job ID    stream a running job
//   mvf status --connect ADDR             server job + cache status
//   mvf cancel --connect ADDR --job ID    cancel a server job
//   mvf shutdown --connect ADDR           stop a server
//   mvf adversaries                       list the registered adversaries
//   mvf check-report FILE                 validate a batch JSON report
//   mvf check-trace FILE                  validate an NDJSON/Chrome trace
//   mvf verify-proof FILE                 verify an --emit-proof artifact
//
// Scenario flags (run/attack): --funcs FAMILY:N --seed S --population P
// --generations G --quick --no-baseline --no-camo --no-verify
// --adversaries a,b --json FILE; or --circuit FILE with --camo-density,
// --camo-cells, --camo-seed, --camo-policy to attack an imported
// BLIF/AIGER/.bench benchmark instead of a merged S-box function set.
//
// Observability (run/attack/batch): --trace FILE --trace-format ndjson|chrome
// --metrics
//
// Exit codes: 0 success; 1 scenario/validation failure; 2 usage error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attack/adversary.hpp"
#include "audit/attack_proof.hpp"
#include "camo/camo_cell.hpp"
#include "camo/inject.hpp"
#include "flow/batch_runner.hpp"
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
    std::fprintf(
        stderr,
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
        "scenario options (run/attack):\n"
        "  --funcs FAMILY:N   viable set: present:2..16 or des:1..8 (default present:2)\n"
        "  --circuit FILE     import a benchmark circuit (BLIF, AIGER aag/aig,\n"
        "                     or ISCAS .bench) instead of merging a viable\n"
        "                     set; camouflage it with --camo-* and attack it\n"
        "                     (excludes --funcs and the GA/baseline flags)\n"
        "  --camo-density D   camouflage this fraction of the mapped cells,\n"
        "                     D in (0, 1] (default 0.1; --circuit only)\n"
        "  --camo-cells N     camouflage exactly N cells instead of a\n"
        "                     fraction (excludes --camo-density)\n"
        "  --camo-seed S      cell-selection seed (default: the --seed value)\n"
        "  --camo-policy P    which cells to pick: random (default), fanout\n"
        "                     (highest fanout first), depth (deepest first)\n"
        "  --seed S           RNG seed (default 1)\n"
        "  --population P     GA population (default 48)\n"
        "  --generations G    GA generations (default 60)\n"
        "  --quick            small budgets (population 8, generations 4)\n"
        "  --no-baseline      skip the equal-budget random baseline\n"
        "  --no-camo          skip camouflage covering (Phase III)\n"
        "  --no-verify        skip configuration replay validation\n"
        "  --adversaries A,B  adversaries for the attack stage\n"
        "  --count-mode M     CEGAR survivor counting: exact (projected model\n"
        "                     counter, uncapped; default), approx (ApproxMC-\n"
        "                     style (eps,delta) estimate), enumerate (legacy\n"
        "                     capped model enumeration)\n"
        "  --count-cache-mb N component-cache budget for exact counting\n"
        "                     (default 64)\n"
        "  --count-max-decisions N\n"
        "                     exact-counter branch budget before falling back\n"
        "                     to capped enumeration (default 100000; 0 = off)\n"
        "  --epsilon E        approx tolerance (default 0.8; approx only)\n"
        "  --delta D          approx error probability (default 0.2; approx only)\n"
        "  --max-survivors N  cap the enumerate count (implies\n"
        "                     --count-mode enumerate; --quick caps at 256)\n"
        "  --no-enumerate     skip survivor counting entirely\n"
        "  --no-preprocess    disable SAT preprocessing/inprocessing\n"
        "  --no-shared-miter  legacy two-copy CEGAR encoding\n"
        "  --canonical-inputs lex-min distinguishing inputs (deterministic\n"
        "                     attack transcripts; costly at 16+ PIs)\n"
        "  --attack-threads N worker threads for the attack: portfolio CEGAR\n"
        "                     members and cube-and-conquer counter workers\n"
        "                     (default 1 = serial; counts bit-identical)\n"
        "  --portfolio N      pin the CEGAR portfolio member count (0 =\n"
        "                     follow --attack-threads, 1 = force serial)\n"
        "  --cube-vars K      selector-cube width for the parallel counter\n"
        "                     (0 = auto from --attack-threads; max 16)\n"
        "  --elim-occ N       BVE occurrence bound (default 32)\n"
        "  --elim-growth N    BVE clause-growth bound (default 8)\n"
        "\n"
        "oracle threat-model options (run/attack):\n"
        "  --query-budget N   the chip answers at most N patterns; the CEGAR\n"
        "                     attack then terminates honestly with status\n"
        "                     \"query budget\" (N > 0)\n"
        "  --oracle-noise P   flip each answered output bit with probability\n"
        "                     P in [0, 1) (measurement error)\n"
        "  --oracle-cache     dedupe repeated patterns before they reach the\n"
        "                     budget/chip\n"
        "  --save-transcript FILE\n"
        "                     record the attacker-visible oracle transcript\n"
        "                     as JSON\n"
        "  --replay-transcript FILE\n"
        "                     replay a recorded transcript instead of\n"
        "                     consulting the chip (contradicts --oracle-noise)\n"
        "  --emit-proof FILE  write a verifiable attack-proof artifact for\n"
        "                     the CEGAR run (commitment-chained transcript;\n"
        "                     check it with mvf verify-proof)\n"
        "  --random-warmup N  CEGAR warm-up: N random patterns queried in\n"
        "                     word-parallel blocks before the loop\n"
        "  --neighborhood-queries N\n"
        "                     additionally query N single-bit-flip neighbors\n"
        "                     of each distinguishing input (survivor-\n"
        "                     preserving extra pruning)\n"
        "  --random-queries N pattern budget of the random-sampling baseline\n"
        "                     adversary (default 128)\n"
        "\n"
        "  --json FILE        also write the JSON record(s) to FILE\n"
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
        "batch options:\n"
        "  --spec FILE        scenario spec (required); see README for the format\n"
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
        "  --json FILE        write the results report to FILE\n");
    return 2;
}

bool next_value(int argc, char** argv, int* i, std::string* out) {
    if (*i + 1 >= argc) {
        std::fprintf(stderr, "mvf: %s needs a value\n", argv[*i]);
        return false;
    }
    *out = argv[++*i];
    return true;
}

/// std::stoi with a usage error instead of an uncaught exception on junk.
bool parse_int_flag(const std::string& value, const char* flag, int* out) {
    try {
        std::size_t used = 0;
        const int parsed = std::stoi(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        *out = parsed;
        return true;
    } catch (const std::exception&) {
        std::fprintf(stderr, "mvf: %s expects an integer, got \"%s\"\n", flag,
                     value.c_str());
        return false;
    }
}

bool parse_u64_flag(const std::string& value, const char* flag,
                    std::uint64_t* out) {
    try {
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        *out = parsed;
        return true;
    } catch (const std::exception&) {
        std::fprintf(stderr, "mvf: %s expects an unsigned integer, got \"%s\"\n",
                     flag, value.c_str());
        return false;
    }
}

bool parse_double_flag(const std::string& value, const char* flag,
                       double* out) {
    try {
        std::size_t used = 0;
        const double parsed = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
        *out = parsed;
        return true;
    } catch (const std::exception&) {
        std::fprintf(stderr, "mvf: %s expects a number, got \"%s\"\n", flag,
                     value.c_str());
        return false;
    }
}

/// Process-level observability switches (run/attack/batch).
struct ObsFlags {
    std::string trace_path;  ///< empty = tracing off
    obs::TraceFormat trace_format = obs::TraceFormat::kNdjson;
    bool metrics = false;
};

/// Parses the shared scenario flags into `scenario`; `json_path` receives
/// --json.  Returns false (after printing) on a bad flag.
bool parse_scenario_flags(int argc, char** argv, int start,
                          flow::Scenario* scenario, std::string* json_path,
                          int* jobs, std::string* spec_path, bool* verbose,
                          ObsFlags* obs_flags) {
    // --quick provides defaults, applied after the loop so an explicit
    // --population/--generations/--max-survivors wins regardless of the
    // order the flags appear in.
    bool quick = false;
    bool population_set = false;
    bool generations_set = false;
    bool survivors_set = false;
    bool count_mode_set = false;
    bool eps_delta_set = false;
    bool cache_mb_set = false;
    bool decisions_set = false;
    bool no_enumerate_set = false;
    bool noise_set = false;
    bool funcs_set = false;
    bool camo_density_set = false;
    bool camo_cells_set = false;
    // Any --camo-* flag: they configure the injection pass, which only
    // exists on the --circuit path.
    bool camo_flag_set = false;
    // Flags that steer the S-box synthesis flow, which --circuit skips;
    // remembered by name for the error message.
    std::string sbox_only_flag;
    const auto note_sbox_only = [&sbox_only_flag](const char* flag) {
        if (sbox_only_flag.empty()) sbox_only_flag = flag;
    };
    for (int i = start; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--circuit") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (value.empty()) {
                std::fprintf(stderr, "mvf: --circuit expects a file path\n");
                return false;
            }
            scenario->params.circuit.path = value;
        } else if (arg == "--camo-density") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_double_flag(value, "--camo-density",
                                   &scenario->params.circuit.camo_density)) {
                return false;
            }
            if (!(scenario->params.circuit.camo_density > 0.0 &&
                  scenario->params.circuit.camo_density <= 1.0)) {
                std::fprintf(stderr, "mvf: --camo-density must be in (0, 1]\n");
                return false;
            }
            camo_density_set = true;
            camo_flag_set = true;
        } else if (arg == "--camo-cells") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--camo-cells",
                                &scenario->params.circuit.camo_cells)) {
                return false;
            }
            if (scenario->params.circuit.camo_cells < 1) {
                std::fprintf(stderr, "mvf: --camo-cells must be >= 1\n");
                return false;
            }
            camo_cells_set = true;
            camo_flag_set = true;
        } else if (arg == "--camo-seed") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_u64_flag(value, "--camo-seed",
                                &scenario->params.circuit.camo_seed)) {
                return false;
            }
            camo_flag_set = true;
        } else if (arg == "--camo-policy") {
            if (!next_value(argc, argv, &i, &value)) return false;
            camo::InjectPolicy policy;
            if (!camo::inject_policy_from_name(value, &policy)) {
                std::fprintf(stderr,
                             "mvf: --camo-policy expects random, fanout or "
                             "depth, got \"%s\"\n",
                             value.c_str());
                return false;
            }
            scenario->params.circuit.camo_policy = value;
            camo_flag_set = true;
        } else if (arg == "--funcs") {
            funcs_set = true;
            if (!next_value(argc, argv, &i, &value)) return false;
            const std::size_t colon = value.find(':');
            if (colon == std::string::npos) {
                std::fprintf(stderr, "mvf: --funcs expects FAMILY:N\n");
                return false;
            }
            scenario->family = value.substr(0, colon);
            try {
                scenario->n = std::stoi(value.substr(colon + 1));
            } catch (const std::exception&) {
                std::fprintf(stderr, "mvf: bad --funcs width in \"%s\"\n",
                             value.c_str());
                return false;
            }
        } else if (arg == "--seed") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_u64_flag(value, "--seed", &scenario->params.seed)) {
                return false;
            }
        } else if (arg == "--population") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--population",
                                &scenario->params.ga.population)) {
                return false;
            }
            if (scenario->params.ga.population < 1) {
                std::fprintf(stderr, "mvf: --population must be >= 1\n");
                return false;
            }
            population_set = true;
            note_sbox_only("--population");
        } else if (arg == "--generations") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--generations",
                                &scenario->params.ga.generations)) {
                return false;
            }
            if (scenario->params.ga.generations < 0) {
                std::fprintf(stderr, "mvf: --generations must be >= 0\n");
                return false;
            }
            generations_set = true;
            note_sbox_only("--generations");
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--max-survivors") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_u64_flag(value, "--max-survivors",
                                &scenario->params.oracle.max_survivors)) {
                return false;
            }
            survivors_set = true;
        } else if (arg == "--count-mode") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!attack::count_mode_from_name(
                    value, &scenario->params.oracle.count_mode)) {
                std::fprintf(stderr,
                             "mvf: --count-mode expects exact, approx or "
                             "enumerate, got \"%s\"\n",
                             value.c_str());
                return false;
            }
            count_mode_set = true;
        } else if (arg == "--count-cache-mb") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--count-cache-mb",
                                &scenario->params.oracle.count_cache_mb)) {
                return false;
            }
            if (scenario->params.oracle.count_cache_mb <= 0) {
                std::fprintf(stderr, "mvf: --count-cache-mb must be > 0\n");
                return false;
            }
            cache_mb_set = true;
        } else if (arg == "--count-max-decisions") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_u64_flag(
                    value, "--count-max-decisions",
                    &scenario->params.oracle.count_max_decisions)) {
                return false;
            }
            cache_mb_set = true;  // same exact-only applicability rule
            decisions_set = true;
        } else if (arg == "--epsilon") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_double_flag(value, "--epsilon",
                                   &scenario->params.oracle.epsilon)) {
                return false;
            }
            if (!(scenario->params.oracle.epsilon > 0.0)) {
                std::fprintf(stderr, "mvf: --epsilon must be > 0\n");
                return false;
            }
            eps_delta_set = true;
        } else if (arg == "--delta") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_double_flag(value, "--delta",
                                   &scenario->params.oracle.delta)) {
                return false;
            }
            if (!(scenario->params.oracle.delta > 0.0 &&
                  scenario->params.oracle.delta < 1.0)) {
                std::fprintf(stderr, "mvf: --delta must be in (0, 1)\n");
                return false;
            }
            eps_delta_set = true;
        } else if (arg == "--no-enumerate") {
            scenario->params.oracle.enumerate_survivors = false;
            no_enumerate_set = true;
        } else if (arg == "--no-preprocess") {
            scenario->params.oracle.solver.preprocess = false;
        } else if (arg == "--no-shared-miter") {
            scenario->params.oracle.shared_miter = false;
        } else if (arg == "--canonical-inputs") {
            scenario->params.oracle.canonical_inputs = true;
        } else if (arg == "--attack-threads") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--attack-threads",
                                &scenario->params.oracle.attack_threads)) {
                return false;
            }
            if (scenario->params.oracle.attack_threads < 1) {
                std::fprintf(stderr, "mvf: --attack-threads must be >= 1\n");
                return false;
            }
        } else if (arg == "--portfolio") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--portfolio",
                                &scenario->params.oracle.portfolio)) {
                return false;
            }
            if (scenario->params.oracle.portfolio < 0) {
                std::fprintf(stderr, "mvf: --portfolio must be >= 0\n");
                return false;
            }
        } else if (arg == "--cube-vars") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--cube-vars",
                                &scenario->params.oracle.cube_vars)) {
                return false;
            }
            if (scenario->params.oracle.cube_vars < 0 ||
                scenario->params.oracle.cube_vars > 16) {
                std::fprintf(stderr, "mvf: --cube-vars must be in 0..16\n");
                return false;
            }
        } else if (arg == "--elim-occ") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--elim-occ",
                                &scenario->params.oracle.solver.elim_occ_limit)) {
                return false;
            }
        } else if (arg == "--elim-growth") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--elim-growth",
                                &scenario->params.oracle.solver.elim_growth)) {
                return false;
            }
        } else if (arg == "--query-budget") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_u64_flag(value, "--query-budget",
                                &scenario->params.oracle_model.query_budget)) {
                return false;
            }
            if (scenario->params.oracle_model.query_budget == 0) {
                std::fprintf(stderr,
                             "mvf: --query-budget must be > 0 (omit the flag "
                             "for an unlimited oracle)\n");
                return false;
            }
        } else if (arg == "--oracle-noise") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_double_flag(value, "--oracle-noise",
                                   &scenario->params.oracle_model.noise)) {
                return false;
            }
            if (!(scenario->params.oracle_model.noise >= 0.0 &&
                  scenario->params.oracle_model.noise < 1.0)) {
                std::fprintf(stderr, "mvf: --oracle-noise must be in [0, 1)\n");
                return false;
            }
            noise_set = true;
        } else if (arg == "--oracle-cache") {
            scenario->params.oracle_model.cache = true;
        } else if (arg == "--save-transcript") {
            if (!next_value(argc, argv, &i, &value)) return false;
            scenario->params.save_transcript = value;
        } else if (arg == "--replay-transcript") {
            if (!next_value(argc, argv, &i, &value)) return false;
            scenario->params.replay_transcript = value;
        } else if (arg == "--emit-proof") {
            if (!next_value(argc, argv, &i, &value)) return false;
            scenario->params.emit_proof = value;
        } else if (arg == "--neighborhood-queries") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--neighborhood-queries",
                                &scenario->params.oracle.neighborhood_queries)) {
                return false;
            }
            if (scenario->params.oracle.neighborhood_queries < 0) {
                std::fprintf(stderr,
                             "mvf: --neighborhood-queries must be >= 0\n");
                return false;
            }
        } else if (arg == "--random-warmup") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--random-warmup",
                                &scenario->params.oracle.random_warmup)) {
                return false;
            }
            if (scenario->params.oracle.random_warmup < 0) {
                std::fprintf(stderr, "mvf: --random-warmup must be >= 0\n");
                return false;
            }
        } else if (arg == "--random-queries") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--random-queries",
                                &scenario->params.random_queries)) {
                return false;
            }
            if (scenario->params.random_queries <= 0) {
                std::fprintf(stderr, "mvf: --random-queries must be > 0\n");
                return false;
            }
        } else if (arg == "--no-baseline") {
            scenario->params.run_random_baseline = false;
            note_sbox_only("--no-baseline");
        } else if (arg == "--no-camo") {
            scenario->params.run_camo_mapping = false;
        } else if (arg == "--no-verify") {
            scenario->params.verify = false;
            note_sbox_only("--no-verify");
        } else if (arg == "--adversaries") {
            if (!next_value(argc, argv, &i, &value)) return false;
            scenario->params.adversaries.clear();
            std::istringstream in(value);
            std::string item;
            while (std::getline(in, item, ',')) {
                if (!item.empty()) scenario->params.adversaries.push_back(item);
            }
        } else if (arg == "--trace" && obs_flags) {
            if (!next_value(argc, argv, &i, &value)) return false;
            obs_flags->trace_path = value;
        } else if (arg == "--trace-format" && obs_flags) {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!obs::trace_format_from_name(value,
                                             &obs_flags->trace_format)) {
                std::fprintf(stderr,
                             "mvf: --trace-format expects ndjson or chrome, "
                             "got \"%s\"\n",
                             value.c_str());
                return false;
            }
        } else if (arg == "--metrics" && obs_flags) {
            obs_flags->metrics = true;
        } else if (arg == "--json" && json_path) {
            if (!next_value(argc, argv, &i, &value)) return false;
            *json_path = value;
        } else if (arg == "--jobs" && jobs) {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_int_flag(value, "--jobs", jobs)) return false;
        } else if (arg == "--spec" && spec_path) {
            if (!next_value(argc, argv, &i, &value)) return false;
            *spec_path = value;
        } else if (arg == "--verbose" && verbose) {
            *verbose = true;
        } else {
            std::fprintf(stderr, "mvf: unknown option %s\n", arg.c_str());
            return false;
        }
    }
    // Circuit scenarios are file-based: the subject comes from the
    // benchmark, so --funcs and the S-box synthesis flags contradict
    // --circuit, and the --camo-* knobs require it (mirrors
    // parse_scenario_spec for the spec-file keys).
    const bool is_circuit = !scenario->params.circuit.path.empty();
    if (is_circuit && funcs_set) {
        std::fprintf(stderr,
                     "mvf: --circuit and --funcs name two different "
                     "subjects; pick one\n");
        return false;
    }
    if (!is_circuit && camo_flag_set) {
        std::fprintf(stderr,
                     "mvf: --camo-density/--camo-cells/--camo-seed/"
                     "--camo-policy require --circuit (the S-box flow "
                     "camouflages via Phase III covering)\n");
        return false;
    }
    if (is_circuit && !sbox_only_flag.empty()) {
        std::fprintf(stderr,
                     "mvf: %s steers the S-box synthesis flow, which "
                     "--circuit scenarios skip\n",
                     sbox_only_flag.c_str());
        return false;
    }
    if (camo_density_set && camo_cells_set) {
        std::fprintf(stderr,
                     "mvf: --camo-density and --camo-cells both size the "
                     "camouflage budget; pick one\n");
        return false;
    }
    if (is_circuit) {
        // The plausibility attacker needs the viable-function targets,
        // which only the S-box flow has.
        for (const std::string& adv : scenario->params.adversaries) {
            if (adv == "plausibility") {
                std::fprintf(stderr,
                             "mvf: adversary \"%s\" needs the viable-"
                             "function set; --circuit scenarios support "
                             "oracle-granted adversaries (cegar, "
                             "random-sampling)\n",
                             adv.c_str());
                return false;
            }
        }
        scenario->family = "circuit";
        scenario->n = 0;
    }
    // Contradictory counting flags are a usage error, never silently
    // ignored: each flag only applies to one --count-mode.
    using attack::CountMode;
    if (survivors_set) {
        if (count_mode_set &&
            scenario->params.oracle.count_mode != CountMode::kEnumerate) {
            std::fprintf(stderr,
                         "mvf: --max-survivors only applies to --count-mode "
                         "enumerate\n");
            return false;
        }
        // A survivor cap is a request for capped enumeration.
        scenario->params.oracle.count_mode = CountMode::kEnumerate;
    }
    if (eps_delta_set &&
        (!count_mode_set ||
         scenario->params.oracle.count_mode != CountMode::kApprox)) {
        std::fprintf(stderr,
                     "mvf: --epsilon/--delta require --count-mode approx\n");
        return false;
    }
    if (cache_mb_set &&
        scenario->params.oracle.count_mode != CountMode::kExact) {
        std::fprintf(stderr,
                     "mvf: --count-cache-mb/--count-max-decisions only apply "
                     "to --count-mode exact\n");
        return false;
    }
    if (no_enumerate_set &&
        (count_mode_set || survivors_set || cache_mb_set || eps_delta_set)) {
        std::fprintf(stderr,
                     "mvf: --no-enumerate skips survivor counting; it "
                     "contradicts the --count-mode/--max-survivors/"
                     "--count-cache-mb/--count-max-decisions/--epsilon/"
                     "--delta flags\n");
        return false;
    }
    // Replay serves recorded answers; fresh measurement noise on top would
    // corrupt a transcript that already embeds the noise it was recorded
    // under.
    if (noise_set && !scenario->params.replay_transcript.empty()) {
        std::fprintf(stderr,
                     "mvf: --replay-transcript replays recorded answers; it "
                     "contradicts --oracle-noise\n");
        return false;
    }
    // A cache above a replaying transcript desynchronizes the replay
    // cursor on duplicate patterns.
    if (scenario->params.oracle_model.cache &&
        !scenario->params.replay_transcript.empty()) {
        std::fprintf(stderr,
                     "mvf: --replay-transcript contradicts --oracle-cache\n");
        return false;
    }
    // A transcript is one member's ordered view; racing a portfolio over a
    // replay is contradictory.
    if (scenario->params.oracle.portfolio > 1 &&
        !scenario->params.replay_transcript.empty()) {
        std::fprintf(stderr,
                     "mvf: --replay-transcript contradicts --portfolio\n");
        return false;
    }
    // A proof certifies a fresh serial CEGAR run: replaying a transcript
    // proves nothing new, and portfolio members interleave their queries
    // into a non-replayable sequence.
    if (!scenario->params.emit_proof.empty()) {
        if (!scenario->params.replay_transcript.empty()) {
            std::fprintf(stderr,
                         "mvf: --emit-proof contradicts --replay-transcript\n");
            return false;
        }
        const int members =
            scenario->params.oracle.portfolio > 0
                ? scenario->params.oracle.portfolio
                : std::max(1, scenario->params.oracle.attack_threads);
        if (members > 1) {
            std::fprintf(stderr,
                         "mvf: --emit-proof requires a serial CEGAR attack "
                         "(use --portfolio 1 or --attack-threads 1)\n");
            return false;
        }
    }
    if (quick) {
        if (!population_set) scenario->params.ga.population = 8;
        if (!generations_set) scenario->params.ga.generations = 4;
        // Enumerating a million survivors dominates quick runs on big
        // configuration spaces; a small cap still shows the shape.  The
        // cap governs enumerate mode AND the exact counter's fallback
        // path, so it is lowered regardless of the counting mode -- and
        // so is the exact decision budget, which is otherwise a few
        // seconds of burn on dense instances.
        if (!survivors_set) scenario->params.oracle.max_survivors = 256;
        if (!decisions_set) {
            scenario->params.oracle.count_max_decisions = 20'000;
        }
    }
    return true;
}

void print_record(const flow::ScenarioRecord& r) {
    if (r.family == "circuit") {
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

/// "bench/c17.bench" -> "c17": default scenario name for --circuit runs.
std::string file_stem(const std::string& path) {
    const std::size_t slash = path.find_last_of("/\\");
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
    return stem;
}

int cmd_run(int argc, char** argv, bool force_attack) {
    flow::Scenario scenario;
    std::string json_path;
    ObsFlags obs_flags;
    if (!parse_scenario_flags(argc, argv, 2, &scenario, &json_path, nullptr,
                              nullptr, nullptr, &obs_flags)) {
        return 2;
    }
    const bool is_circuit = !scenario.params.circuit.path.empty();
    if (force_attack && scenario.params.adversaries.empty()) {
        if (is_circuit) {
            // Imported circuits have no viable-function set, so only the
            // oracle-granted adversaries apply.
            scenario.params.adversaries = {"cegar", "random-sampling"};
        } else {
            scenario.params.adversaries =
                attack::AdversaryRegistry::instance().names();
        }
    }
    if (scenario.name.empty()) {
        scenario.name =
            is_circuit
                ? file_stem(scenario.params.circuit.path) + "-s" +
                      std::to_string(scenario.params.seed)
                : scenario.family + std::to_string(scenario.n) + "-s" +
                      std::to_string(scenario.params.seed);
    }
    return run_scenarios({scenario}, /*jobs=*/1, /*verbose=*/false, json_path,
                         obs_flags);
}

int cmd_batch(int argc, char** argv) {
    flow::Scenario ignored;
    std::string json_path;
    std::string spec_path;
    int jobs = 1;
    bool verbose = false;
    ObsFlags obs_flags;
    if (!parse_scenario_flags(argc, argv, 2, &ignored, &json_path, &jobs,
                              &spec_path, &verbose, &obs_flags)) {
        return 2;
    }
    if (spec_path.empty()) {
        std::fprintf(stderr, "mvf batch: --spec FILE is required\n");
        return 2;
    }
    std::vector<flow::Scenario> scenarios;
    try {
        scenarios = flow::load_scenario_spec(spec_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf batch: %s\n", e.what());
        return 2;
    }
    if (scenarios.empty()) {
        std::fprintf(stderr, "mvf batch: %s contains no scenarios\n",
                     spec_path.c_str());
        return 2;
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

int cmd_check_report(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: mvf check-report FILE\n");
        return 2;
    }
    const std::string path = argv[2];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mvf check-report: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        const report::Json doc = report::Json::parse(text.str());
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

int cmd_verify_proof(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: mvf verify-proof FILE\n");
        return 2;
    }
    const std::string path = argv[2];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mvf verify-proof: cannot open %s\n",
                     path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        // Strict parse: a proof with duplicate keys is ambiguous evidence,
        // not a last-wins document.
        const report::Json doc = report::Json::parse_strict(text.str());
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

int cmd_serve(int argc, char** argv) {
    serve::ServerParams params;
    std::string listen;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--listen") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            listen = value;
        } else if (arg == "--jobs") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            if (!parse_int_flag(value, "--jobs", &params.workers)) return 2;
            if (params.workers <= 0) {
                std::fprintf(stderr, "mvf serve: --jobs must be > 0\n");
                return 2;
            }
        } else if (arg == "--cache-mb") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            int mb = 0;
            if (!parse_int_flag(value, "--cache-mb", &mb)) return 2;
            if (mb <= 0) {
                std::fprintf(stderr, "mvf serve: --cache-mb must be > 0\n");
                return 2;
            }
            params.cache.max_bytes = static_cast<std::size_t>(mb) << 20;
        } else if (arg == "--cache-dir") {
            if (!next_value(argc, argv, &i, &value)) return 2;
            params.cache.spill_dir = value;
        } else if (arg == "--verbose") {
            params.verbose = true;
        } else {
            std::fprintf(stderr, "mvf serve: unknown option %s\n", arg.c_str());
            return 2;
        }
    }
    if (listen.empty()) {
        std::fprintf(stderr, "mvf serve: --listen ADDR is required\n");
        return 2;
    }
    try {
        params.listen = util::SocketAddr::parse(listen);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf serve: %s\n", e.what());
        return 2;
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

/// Shared client-side flag parse for submit/watch/status/cancel/shutdown.
struct ClientFlags {
    std::string connect;
    std::string spec_path;
    std::string job;
    std::string json_path;
    std::string trace_out;
    double timeout_s = 0.0;
    bool stream = false;
    bool no_wait = false;
};

bool parse_client_flags(int argc, char** argv, const char* command,
                        ClientFlags* flags) {
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--connect") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->connect = value;
        } else if (arg == "--spec") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->spec_path = value;
        } else if (arg == "--job") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->job = value;
        } else if (arg == "--json") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->json_path = value;
        } else if (arg == "--trace-out") {
            if (!next_value(argc, argv, &i, &value)) return false;
            flags->trace_out = value;
            flags->stream = true;
        } else if (arg == "--stream" || arg == "--watch") {
            flags->stream = true;
        } else if (arg == "--no-wait") {
            flags->no_wait = true;
        } else if (arg == "--timeout") {
            if (!next_value(argc, argv, &i, &value)) return false;
            if (!parse_double_flag(value, "--timeout", &flags->timeout_s)) {
                return false;
            }
        } else {
            std::fprintf(stderr, "mvf %s: unknown option %s\n", command,
                         arg.c_str());
            return false;
        }
    }
    if (flags->connect.empty()) {
        std::fprintf(stderr, "mvf %s: --connect ADDR is required\n", command);
        return false;
    }
    return true;
}

std::optional<util::SocketAddr> parse_connect(const std::string& text,
                                              const char* command) {
    try {
        return util::SocketAddr::parse(text);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mvf %s: %s\n", command, e.what());
        return std::nullopt;
    }
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
    std::string state;
    std::string records_hash;
    int cache_hits = 0;
    double seconds = 0.0;
    if (const report::Json* s = result.results.find("state");
        s && s->is_string()) {
        state = s->as_string();
    }
    if (const report::Json* h = result.results.find("records_hash");
        h && h->is_string()) {
        records_hash = h->as_string();
    }
    if (const report::Json* c = result.results.find("cache_hits");
        c && c->is_number()) {
        cache_hits = c->as_int();
    }
    if (const report::Json* s = result.results.find("seconds");
        s && s->is_number()) {
        seconds = s->as_number();
    }
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

/// Opens --trace-out and returns an observer appending raw NDJSON lines.
serve::TraceLineFn trace_tee(std::ofstream* out) {
    if (!out || !out->is_open()) return {};
    return [out](const std::string& line) { *out << line << '\n'; };
}

int cmd_submit(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "submit", &flags)) return 2;
    if (flags.spec_path.empty()) {
        std::fprintf(stderr, "mvf submit: --spec FILE is required\n");
        return 2;
    }
    std::ifstream in(flags.spec_path);
    if (!in) {
        std::fprintf(stderr, "mvf submit: cannot open %s\n",
                     flags.spec_path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "submit");
    if (!addr) return 2;
    std::ofstream trace_file;
    if (!flags.trace_out.empty()) {
        trace_file.open(flags.trace_out);
        if (!trace_file) {
            std::fprintf(stderr, "mvf submit: cannot open %s\n",
                         flags.trace_out.c_str());
            return 2;
        }
    }
    const serve::Client client(*addr);
    const serve::ClientResult result =
        client.submit(text.str(), /*wait=*/!flags.no_wait, flags.stream,
                      flags.timeout_s, trace_tee(&trace_file));
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

int cmd_watch(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "watch", &flags)) return 2;
    if (flags.job.empty()) {
        std::fprintf(stderr, "mvf watch: --job ID is required\n");
        return 2;
    }
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "watch");
    if (!addr) return 2;
    std::ofstream trace_file;
    if (!flags.trace_out.empty()) {
        trace_file.open(flags.trace_out);
        if (!trace_file) {
            std::fprintf(stderr, "mvf watch: cannot open %s\n",
                         flags.trace_out.c_str());
            return 2;
        }
    }
    const serve::Client client(*addr);
    const serve::ClientResult result =
        client.watch(flags.job, trace_tee(&trace_file));
    return print_client_result(result, flags.json_path);
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

int cmd_status(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "status", &flags)) return 2;
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "status");
    if (!addr) return 2;
    return print_response(serve::Client(*addr).status(flags.job));
}

int cmd_cancel(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "cancel", &flags)) return 2;
    if (flags.job.empty()) {
        std::fprintf(stderr, "mvf cancel: --job ID is required\n");
        return 2;
    }
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "cancel");
    if (!addr) return 2;
    return print_response(serve::Client(*addr).cancel(flags.job));
}

int cmd_shutdown(int argc, char** argv) {
    ClientFlags flags;
    if (!parse_client_flags(argc, argv, "shutdown", &flags)) return 2;
    const std::optional<util::SocketAddr> addr =
        parse_connect(flags.connect, "shutdown");
    if (!addr) return 2;
    return print_response(serve::Client(*addr).shutdown());
}

int cmd_check_trace(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: mvf check-trace FILE\n");
        return 2;
    }
    const std::string path = argv[2];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mvf check-trace: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const obs::TraceValidation v = obs::validate_trace(text.str());
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
    if (command == "run") return cmd_run(argc, argv, /*force_attack=*/false);
    if (command == "attack") return cmd_run(argc, argv, /*force_attack=*/true);
    if (command == "batch") return cmd_batch(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "submit") return cmd_submit(argc, argv);
    if (command == "watch") return cmd_watch(argc, argv);
    if (command == "status") return cmd_status(argc, argv);
    if (command == "cancel") return cmd_cancel(argc, argv);
    if (command == "shutdown") return cmd_shutdown(argc, argv);
    if (command == "adversaries") return cmd_adversaries();
    if (command == "check-report") return cmd_check_report(argc, argv);
    if (command == "check-trace") return cmd_check_trace(argc, argv);
    if (command == "verify-proof") return cmd_verify_proof(argc, argv);
    if (command == "--help" || command == "-h" || command == "help") {
        usage();
        return 0;
    }
    std::fprintf(stderr, "mvf: unknown command \"%s\"\n", command.c_str());
    return usage();
}
