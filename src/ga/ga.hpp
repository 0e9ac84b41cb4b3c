#pragma once
// Genetic algorithm over pin assignments (paper section III-B).
//
// DEAP-style permutation GA: tournament selection, PMX crossover, swap
// mutation, elitism.  The fitness of a genotype is the synthesized area of
// the merged circuit (lower is better) as reported by technology mapping --
// "we are using repeated logic synthesis in our exploration of pin
// assignments".  Generation-by-generation history feeds Fig. 4b.
//
// Each generation is bred first (all RNG draws, in a fixed order) and then
// scored as one batch, so a batch fitness may evaluate its genomes in any
// order or in parallel without changing the result.

#include <cstdint>
#include <functional>
#include <vector>

#include "ga/genotype.hpp"

namespace mvf::ga {

struct GaParams {
    int population = 48;
    int generations = 60;
    double crossover_prob = 0.9;
    /// Per-permutation swap-mutation probability.
    double mutation_prob = 0.25;
    int tournament_size = 3;
    int elite = 2;
    std::uint64_t seed = 1;
};

struct GaHistory {
    std::vector<double> best_per_generation;  ///< running best (Fig. 4b line)
    std::vector<double> avg_per_generation;
    int evaluations = 0;  ///< total fitness evaluations performed
};

struct GaResult {
    PinAssignment best;
    double best_area = 0.0;
    GaHistory history;
};

/// Area-returning fitness (lower is better).
using FitnessFn = std::function<double(const PinAssignment&)>;

/// Batch fitness: element i of the result is the fitness of genomes[i].
/// It must not depend on evaluation order (see flow::PinSearchStage, which
/// scores a batch across a thread pool).
using BatchFitnessFn =
    std::function<std::vector<double>(const std::vector<PinAssignment>&)>;

/// Throws std::invalid_argument when population < 1, generations < 0,
/// elite < 0 or tournament_size < 1.
GaResult run_ga(int num_functions, int num_inputs, int num_outputs,
                const BatchFitnessFn& fitness, const GaParams& params);

/// Serial form: calls `fitness` once per genome, in breeding order.
GaResult run_ga(int num_functions, int num_inputs, int num_outputs,
                const FitnessFn& fitness, const GaParams& params);

struct RandomSearchResult {
    PinAssignment best;
    double best_area = 0.0;
    double avg_area = 0.0;
    std::vector<double> all_areas;  ///< one per sample (Fig. 4a histogram)
};

/// Equal-budget baseline: `count` uniformly random pin assignments, drawn
/// first and then scored as one batch.  Throws std::invalid_argument when
/// count < 1.
RandomSearchResult random_search(int num_functions, int num_inputs,
                                 int num_outputs, const BatchFitnessFn& fitness,
                                 int count, std::uint64_t seed);

/// Serial form: calls `fitness` once per assignment, in draw order.
RandomSearchResult random_search(int num_functions, int num_inputs,
                                 int num_outputs, const FitnessFn& fitness,
                                 int count, std::uint64_t seed);

}  // namespace mvf::ga
