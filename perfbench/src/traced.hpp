#pragma once
// The traced scenario pipeline.
//
// Mirrors flow::Pipeline::standard stage by stage, but calls each library
// layer through its public functions so the benchmark can put a span
// around every call: ga::run_ga / ga::random_search with a timing
// FitnessFn, MergedSpec::build_aig, synth::optimize, tech::tech_map,
// camo::camo_map, camo::inject, io::load_circuit, io::import_netlist,
// attack::oracle_attack with counting off followed by
// attack::count_consistent_configs, and a timing attack::Oracle decorator
// around the simulated chip.  The work it does is the standard pipeline's
// work; the benchmark checks that every work counter matches.

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/pipeline.hpp"
#include "map/tech_map.hpp"
#include "spans.hpp"

namespace perfbench {

/// Layer counters gathered by the traced stages (times come from spans).
struct TracedCounters {
    int fitness_calls = 0;
    std::vector<double> eval_us;  ///< one per fitness evaluation
    int synth_calls = 0;
    std::uint64_t synth_ands_out = 0;
    int map_calls = 0;
    std::uint64_t map_cells_out = 0;
    std::uint64_t io_aig_ands = 0;
    std::uint64_t oracle_scalar = 0;
    std::uint64_t oracle_blocks = 0;
    std::uint64_t oracle_patterns = 0;
    int count_calls = 0;
};

struct TraceScope {
    SpanRecorder* recorder = nullptr;
    int scenario = -1;
    TracedCounters counters;
    /// The scenario's own match cache (the engine keeps its cache private).
    std::optional<mvf::tech::MatchCache> match_cache;
};

/// The traced equivalent of flow::Pipeline::standard(params).  Throws
/// std::invalid_argument for knobs the traced attack stage does not mirror
/// (portfolio or threaded attacks, warm-up and neighbourhood queries,
/// transcripts, proofs, oracle decorators).
mvf::flow::Pipeline traced_pipeline(const mvf::flow::FlowParams& params,
                                    TraceScope* scope);

}  // namespace perfbench
