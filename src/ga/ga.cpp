#include "ga/ga.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace mvf::ga {
namespace {

struct Individual {
    PinAssignment genes;
    double area = std::numeric_limits<double>::infinity();
};

void check_params(const GaParams& params) {
    if (params.population < 1) {
        throw std::invalid_argument("GA population must be >= 1");
    }
    if (params.generations < 0) {
        throw std::invalid_argument("GA generations must be >= 0");
    }
    if (params.elite < 0) throw std::invalid_argument("GA elite must be >= 0");
    if (params.tournament_size < 1) {
        throw std::invalid_argument("GA tournament size must be >= 1");
    }
}

std::vector<double> score(const BatchFitnessFn& fitness,
                          const std::vector<PinAssignment>& genomes) {
    std::vector<double> areas = fitness(genomes);
    if (areas.size() != genomes.size()) {
        throw std::logic_error("batch fitness returned the wrong number of areas");
    }
    return areas;
}

/// Scores pop[first..] as one batch.
void evaluate(std::vector<Individual>* pop, std::size_t first,
              const BatchFitnessFn& fitness, GaHistory* history) {
    std::vector<PinAssignment> genomes;
    genomes.reserve(pop->size() - first);
    for (std::size_t i = first; i < pop->size(); ++i) {
        genomes.push_back((*pop)[i].genes);
    }
    const std::vector<double> areas = score(fitness, genomes);
    for (std::size_t i = 0; i < areas.size(); ++i) {
        (*pop)[first + i].area = areas[i];
    }
    history->evaluations += static_cast<int>(areas.size());
}

BatchFitnessFn serial(const FitnessFn& fitness) {
    return [&fitness](const std::vector<PinAssignment>& genomes) {
        std::vector<double> areas;
        areas.reserve(genomes.size());
        for (const PinAssignment& g : genomes) areas.push_back(fitness(g));
        return areas;
    };
}

}  // namespace

GaResult run_ga(int num_functions, int num_inputs, int num_outputs,
                const BatchFitnessFn& fitness, const GaParams& params) {
    check_params(params);
    util::Rng rng(params.seed);
    GaResult result;
    result.best_area = std::numeric_limits<double>::infinity();

    std::vector<Individual> pop(static_cast<std::size_t>(params.population));
    for (auto& ind : pop) {
        ind.genes =
            PinAssignment::random(num_functions, num_inputs, num_outputs, rng);
    }
    evaluate(&pop, 0, fitness, &result.history);

    const auto by_area = [](const Individual& a, const Individual& b) {
        return a.area < b.area;
    };

    const auto tournament = [&](util::Rng& r) -> const Individual& {
        const Individual* best = nullptr;
        for (int t = 0; t < params.tournament_size; ++t) {
            const Individual& cand = pop[static_cast<std::size_t>(
                r.uniform_int(0, params.population - 1))];
            if (!best || cand.area < best->area) best = &cand;
        }
        return *best;
    };

    for (int gen = 0; gen < params.generations; ++gen) {
        std::sort(pop.begin(), pop.end(), by_area);
        // History snapshot (running best + population average).
        double sum = 0.0;
        for (const auto& ind : pop) sum += ind.area;
        result.best_area = std::min(result.best_area, pop.front().area);
        if (pop.front().area <= result.best_area) result.best = pop.front().genes;
        result.history.best_per_generation.push_back(result.best_area);
        result.history.avg_per_generation.push_back(
            sum / static_cast<double>(params.population));

        std::vector<Individual> next;
        next.reserve(pop.size());
        for (int e = 0; e < params.elite && e < params.population; ++e) {
            next.push_back(pop[static_cast<std::size_t>(e)]);  // no re-eval
        }
        const std::size_t bred = next.size();
        // Breed the whole generation (tournaments read only `pop`), then
        // score the children as one batch.
        while (static_cast<int>(next.size()) < params.population) {
            Individual child;
            const Individual& p1 = tournament(rng);
            const Individual& p2 = tournament(rng);
            child.genes = p1.genes;
            if (rng.coin(params.crossover_prob)) {
                for (int k = 0; k < num_functions; ++k) {
                    child.genes.input_perms[static_cast<std::size_t>(k)] =
                        pmx_crossover(
                            p1.genes.input_perms[static_cast<std::size_t>(k)],
                            p2.genes.input_perms[static_cast<std::size_t>(k)], rng);
                    child.genes.output_perms[static_cast<std::size_t>(k)] =
                        pmx_crossover(
                            p1.genes.output_perms[static_cast<std::size_t>(k)],
                            p2.genes.output_perms[static_cast<std::size_t>(k)], rng);
                }
            }
            for (int k = 0; k < num_functions; ++k) {
                if (rng.coin(params.mutation_prob)) {
                    swap_mutation(
                        &child.genes.input_perms[static_cast<std::size_t>(k)], rng);
                }
                if (rng.coin(params.mutation_prob)) {
                    swap_mutation(
                        &child.genes.output_perms[static_cast<std::size_t>(k)], rng);
                }
            }
            next.push_back(std::move(child));
        }
        evaluate(&next, bred, fitness, &result.history);
        pop = std::move(next);
    }

    std::sort(pop.begin(), pop.end(), by_area);
    if (pop.front().area < result.best_area) {
        result.best_area = pop.front().area;
        result.best = pop.front().genes;
    }
    result.history.best_per_generation.push_back(result.best_area);
    double sum = 0.0;
    for (const auto& ind : pop) sum += ind.area;
    result.history.avg_per_generation.push_back(
        sum / static_cast<double>(params.population));
    return result;
}

GaResult run_ga(int num_functions, int num_inputs, int num_outputs,
                const FitnessFn& fitness, const GaParams& params) {
    return run_ga(num_functions, num_inputs, num_outputs, serial(fitness),
                  params);
}

RandomSearchResult random_search(int num_functions, int num_inputs,
                                 int num_outputs, const BatchFitnessFn& fitness,
                                 int count, std::uint64_t seed) {
    if (count < 1) {
        throw std::invalid_argument("random search needs count >= 1");
    }
    util::Rng rng(seed);
    std::vector<PinAssignment> samples;
    samples.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        samples.push_back(
            PinAssignment::random(num_functions, num_inputs, num_outputs, rng));
    }
    RandomSearchResult result;
    result.all_areas = score(fitness, samples);
    result.best_area = std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double area = result.all_areas[i];
        sum += area;
        if (area < result.best_area) {
            result.best_area = area;
            result.best = std::move(samples[i]);
        }
    }
    result.avg_area = sum / count;
    return result;
}

RandomSearchResult random_search(int num_functions, int num_inputs,
                                 int num_outputs, const FitnessFn& fitness,
                                 int count, std::uint64_t seed) {
    return random_search(num_functions, num_inputs, num_outputs,
                         serial(fitness), count, seed);
}

}  // namespace mvf::ga
