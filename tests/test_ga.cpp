// Tests for the genetic algorithm and pin-assignment genotypes.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "ga/ga.hpp"

namespace mvf::ga {
namespace {

TEST(PinAssignment, IdentityIsValidAndIdempotent) {
    const PinAssignment pa = PinAssignment::identity(3, 4, 4);
    EXPECT_TRUE(pa.valid());
    EXPECT_EQ(pa.num_functions(), 3);
    for (const auto& p : pa.input_perms) {
        for (int i = 0; i < 4; ++i) EXPECT_EQ(p[static_cast<std::size_t>(i)], i);
    }
}

TEST(PinAssignment, RandomIsValid) {
    util::Rng rng(5);
    for (int t = 0; t < 50; ++t) {
        const PinAssignment pa = PinAssignment::random(4, 6, 4, rng);
        EXPECT_TRUE(pa.valid());
    }
}

TEST(PinAssignment, ValidRejectsBrokenPerms) {
    PinAssignment pa = PinAssignment::identity(1, 3, 3);
    pa.input_perms[0][1] = 0;  // duplicate
    EXPECT_FALSE(pa.valid());
    pa = PinAssignment::identity(1, 3, 3);
    pa.output_perms[0][2] = 7;  // out of range
    EXPECT_FALSE(pa.valid());
}

bool is_permutation(const std::vector<int>& v) {
    std::vector<bool> seen(v.size(), false);
    for (const int x : v) {
        if (x < 0 || x >= static_cast<int>(v.size()) || seen[static_cast<std::size_t>(x)]) return false;
        seen[static_cast<std::size_t>(x)] = true;
    }
    return true;
}

TEST(Pmx, ChildIsAlwaysAPermutation) {
    util::Rng rng(7);
    for (int n : {2, 3, 4, 6, 8, 12}) {
        for (int t = 0; t < 200; ++t) {
            const std::vector<int> a = rng.permutation(n);
            const std::vector<int> b = rng.permutation(n);
            const std::vector<int> child = pmx_crossover(a, b, rng);
            EXPECT_TRUE(is_permutation(child)) << "n=" << n;
        }
    }
}

TEST(Pmx, IdenticalParentsReproduceThemselves) {
    util::Rng rng(11);
    const std::vector<int> p = rng.permutation(6);
    for (int t = 0; t < 20; ++t) {
        EXPECT_EQ(pmx_crossover(p, p, rng), p);
    }
}

TEST(SwapMutation, StaysAPermutationAndChangesExactlyTwoSlots) {
    util::Rng rng(13);
    for (int t = 0; t < 100; ++t) {
        std::vector<int> p = rng.permutation(8);
        const std::vector<int> before = p;
        swap_mutation(&p, rng);
        EXPECT_TRUE(is_permutation(p));
        int diff = 0;
        for (int i = 0; i < 8; ++i) {
            if (p[static_cast<std::size_t>(i)] != before[static_cast<std::size_t>(i)]) ++diff;
        }
        EXPECT_EQ(diff, 2);
    }
}

// Synthetic fitness: distance of every permutation from a hidden target.
double synthetic_fitness(const PinAssignment& pa, const PinAssignment& target) {
    double d = 0;
    for (std::size_t k = 0; k < pa.input_perms.size(); ++k) {
        for (std::size_t j = 0; j < pa.input_perms[k].size(); ++j) {
            if (pa.input_perms[k][j] != target.input_perms[k][j]) d += 1;
        }
        for (std::size_t j = 0; j < pa.output_perms[k].size(); ++j) {
            if (pa.output_perms[k][j] != target.output_perms[k][j]) d += 1;
        }
    }
    return d;
}

TEST(Ga, ConvergesOnSyntheticObjective) {
    util::Rng trng(17);
    const PinAssignment target = PinAssignment::random(2, 5, 4, trng);
    GaParams params;
    params.population = 30;
    params.generations = 60;
    params.seed = 3;
    const GaResult r = run_ga(2, 5, 4, [&](const PinAssignment& pa) {
        return synthetic_fitness(pa, target);
    }, params);
    // Random chance of hitting distance <= 2 is tiny; GA should get close.
    EXPECT_LE(r.best_area, 2.0);
    EXPECT_TRUE(r.best.valid());
}

TEST(Ga, HistoryIsMonotoneAndSized) {
    GaParams params;
    params.population = 12;
    params.generations = 10;
    const GaResult r = run_ga(1, 4, 4, [](const PinAssignment& pa) {
        return static_cast<double>(pa.input_perms[0][0]);
    }, params);
    ASSERT_EQ(r.history.best_per_generation.size(),
              static_cast<std::size_t>(params.generations) + 1);
    for (std::size_t g = 1; g < r.history.best_per_generation.size(); ++g) {
        EXPECT_LE(r.history.best_per_generation[g],
                  r.history.best_per_generation[g - 1]);
    }
    EXPECT_GE(r.history.avg_per_generation.front(),
              r.history.best_per_generation.front());
}

TEST(Ga, EvaluationBudgetIsAccounted) {
    GaParams params;
    params.population = 10;
    params.generations = 5;
    params.elite = 2;
    int calls = 0;
    const GaResult r = run_ga(1, 4, 4, [&calls](const PinAssignment&) {
        ++calls;
        return 1.0;
    }, params);
    EXPECT_EQ(calls, r.history.evaluations);
    // initial pop + (pop - elite) per generation
    EXPECT_EQ(r.history.evaluations, 10 + 5 * (10 - 2));
}

TEST(Ga, DeterministicForFixedSeed) {
    GaParams params;
    params.population = 10;
    params.generations = 6;
    params.seed = 42;
    const auto fitness = [](const PinAssignment& pa) {
        double v = 0;
        for (const auto& p : pa.input_perms) {
            for (std::size_t i = 0; i < p.size(); ++i) v += p[i] * static_cast<double>(i);
        }
        return v;
    };
    const GaResult a = run_ga(2, 4, 4, fitness, params);
    const GaResult b = run_ga(2, 4, 4, fitness, params);
    EXPECT_EQ(a.best_area, b.best_area);
    EXPECT_EQ(a.best, b.best);
    EXPECT_EQ(a.history.best_per_generation, b.history.best_per_generation);
}

TEST(RandomSearch, StatsAndBestAreConsistent) {
    const auto fitness = [](const PinAssignment& pa) {
        return static_cast<double>(pa.input_perms[0][0]);
    };
    const RandomSearchResult r = random_search(1, 4, 4, fitness, 200, 9);
    EXPECT_EQ(r.all_areas.size(), 200u);
    double sum = 0;
    double best = 1e18;
    for (const double a : r.all_areas) {
        sum += a;
        best = std::min(best, a);
    }
    EXPECT_NEAR(r.avg_area, sum / 200.0, 1e-12);
    EXPECT_DOUBLE_EQ(r.best_area, best);
    EXPECT_DOUBLE_EQ(fitness(r.best), r.best_area);
    // With 200 samples over 4 first-slot values, the best must be 0.
    EXPECT_DOUBLE_EQ(r.best_area, 0.0);
}

TEST(RandomSearch, DifferentSeedsDiffer) {
    const auto fitness = [](const PinAssignment& pa) {
        double v = 0;
        for (std::size_t i = 0; i < 4; ++i) v = v * 4 + pa.input_perms[0][i];
        return v;
    };
    const RandomSearchResult a = random_search(1, 4, 4, fitness, 10, 1);
    const RandomSearchResult b = random_search(1, 4, 4, fitness, 10, 2);
    EXPECT_NE(a.all_areas, b.all_areas);
}

// The GA as it was before generations were scored in batches: fitness is
// called right after each genome is drawn or bred.  Kept as the reference
// for the genome order the batched GA must reproduce.
std::vector<PinAssignment> interleaved_reference_order(
    int n, int m, int r, const FitnessFn& fitness, const GaParams& params) {
    struct Ind {
        PinAssignment genes;
        double area;
    };
    std::vector<PinAssignment> order;
    const auto eval = [&](const PinAssignment& g) {
        order.push_back(g);
        return fitness(g);
    };
    util::Rng rng(params.seed);
    std::vector<Ind> pop(static_cast<std::size_t>(params.population));
    for (Ind& ind : pop) {
        ind.genes = PinAssignment::random(n, m, r, rng);
        ind.area = eval(ind.genes);
    }
    const auto tournament = [&]() -> const Ind& {
        const Ind* best = nullptr;
        for (int t = 0; t < params.tournament_size; ++t) {
            const Ind& c = pop[static_cast<std::size_t>(
                rng.uniform_int(0, params.population - 1))];
            if (!best || c.area < best->area) best = &c;
        }
        return *best;
    };
    for (int gen = 0; gen < params.generations; ++gen) {
        std::sort(pop.begin(), pop.end(),
                  [](const Ind& a, const Ind& b) { return a.area < b.area; });
        std::vector<Ind> next(pop.begin(),
                              pop.begin() + std::min(params.elite, params.population));
        while (static_cast<int>(next.size()) < params.population) {
            const Ind& p1 = tournament();
            const Ind& p2 = tournament();
            PinAssignment child = p1.genes;
            if (rng.coin(params.crossover_prob)) {
                for (std::size_t k = 0; k < static_cast<std::size_t>(n); ++k) {
                    child.input_perms[k] = pmx_crossover(
                        p1.genes.input_perms[k], p2.genes.input_perms[k], rng);
                    child.output_perms[k] = pmx_crossover(
                        p1.genes.output_perms[k], p2.genes.output_perms[k], rng);
                }
            }
            for (std::size_t k = 0; k < static_cast<std::size_t>(n); ++k) {
                if (rng.coin(params.mutation_prob)) {
                    swap_mutation(&child.input_perms[k], rng);
                }
                if (rng.coin(params.mutation_prob)) {
                    swap_mutation(&child.output_perms[k], rng);
                }
            }
            const double area = eval(child);
            next.push_back({std::move(child), area});
        }
        pop = std::move(next);
    }
    return order;
}

double weighted_fitness(const PinAssignment& pa) {
    double v = 0;
    for (const auto& p : pa.input_perms) {
        for (std::size_t i = 0; i < p.size(); ++i) v += p[i] * static_cast<double>(i + 1);
    }
    for (const auto& p : pa.output_perms) v += p.front();
    return v;
}

TEST(Ga, SerialAndBatchFitnessSeeTheInterleavedGenomeOrder) {
    GaParams params;
    params.population = 9;
    params.generations = 7;
    params.elite = 2;
    params.seed = 23;
    const std::vector<PinAssignment> reference =
        interleaved_reference_order(2, 4, 3, weighted_fitness, params);

    std::vector<PinAssignment> serial_order;
    const GaResult serial = run_ga(2, 4, 3, [&](const PinAssignment& pa) {
        serial_order.push_back(pa);
        return weighted_fitness(pa);
    }, params);
    EXPECT_EQ(serial_order, reference);

    std::vector<PinAssignment> batch_order;
    std::vector<std::size_t> batch_sizes;
    const BatchFitnessFn batch = [&](const std::vector<PinAssignment>& genomes) {
        batch_sizes.push_back(genomes.size());
        std::vector<double> areas;
        // Score back to front: the order a batch is evaluated in is free.
        for (auto it = genomes.rbegin(); it != genomes.rend(); ++it) {
            areas.insert(areas.begin(), weighted_fitness(*it));
        }
        batch_order.insert(batch_order.end(), genomes.begin(), genomes.end());
        return areas;
    };
    const GaResult batched = run_ga(2, 4, 3, batch, params);
    EXPECT_EQ(batch_order, reference);
    // One batch for the initial population, then one per generation.
    std::vector<std::size_t> expected_sizes(1, 9);
    expected_sizes.resize(1 + 7, 9 - 2);
    EXPECT_EQ(batch_sizes, expected_sizes);

    EXPECT_EQ(batched.best, serial.best);
    EXPECT_EQ(batched.best_area, serial.best_area);
    EXPECT_EQ(batched.history.best_per_generation,
              serial.history.best_per_generation);
    EXPECT_EQ(batched.history.avg_per_generation,
              serial.history.avg_per_generation);
    EXPECT_EQ(batched.history.evaluations, serial.history.evaluations);
    EXPECT_EQ(serial.history.evaluations, static_cast<int>(reference.size()));
}

TEST(RandomSearch, SerialAndBatchFitnessSeeTheDrawOrder) {
    util::Rng rng(31);
    std::vector<PinAssignment> reference;
    for (int i = 0; i < 25; ++i) reference.push_back(PinAssignment::random(3, 4, 2, rng));

    std::vector<PinAssignment> serial_order;
    const RandomSearchResult serial = random_search(
        3, 4, 2,
        [&](const PinAssignment& pa) {
            serial_order.push_back(pa);
            return weighted_fitness(pa);
        },
        25, 31);
    EXPECT_EQ(serial_order, reference);

    int batches = 0;
    const RandomSearchResult batched = random_search(
        3, 4, 2,
        [&](const std::vector<PinAssignment>& genomes) {
            ++batches;
            EXPECT_EQ(genomes, reference);
            std::vector<double> areas;
            for (const PinAssignment& g : genomes) areas.push_back(weighted_fitness(g));
            return areas;
        },
        25, 31);
    EXPECT_EQ(batches, 1);
    EXPECT_EQ(batched.all_areas, serial.all_areas);
    EXPECT_EQ(batched.best, serial.best);
    EXPECT_EQ(batched.best_area, serial.best_area);
    EXPECT_EQ(batched.avg_area, serial.avg_area);
}

TEST(Ga, RejectsNonsensicalBudgets) {
    const auto fitness = [](const PinAssignment&) { return 1.0; };
    const auto rejects = [&](GaParams params) {
        EXPECT_THROW(run_ga(1, 4, 4, fitness, params), std::invalid_argument);
    };
    GaParams p;
    p.population = 0;  // used to segfault
    rejects(p);
    p.population = -3;  // used to throw length_error from std::vector
    rejects(p);
    p = GaParams{};
    p.generations = -1;  // used to be accepted silently
    rejects(p);
    p = GaParams{};
    p.elite = -1;
    rejects(p);
    p = GaParams{};
    p.tournament_size = 0;
    rejects(p);

    // The smallest legal budgets still run.
    p = GaParams{};
    p.population = 1;
    p.generations = 0;
    p.elite = 0;
    p.tournament_size = 1;
    const GaResult r = run_ga(1, 4, 4, fitness, p);
    EXPECT_EQ(r.history.evaluations, 1);
    EXPECT_EQ(r.best_area, 1.0);

    EXPECT_THROW(random_search(1, 4, 4, fitness, 0, 1), std::invalid_argument);
    EXPECT_THROW(random_search(1, 4, 4, fitness, -5, 1), std::invalid_argument);
}

TEST(Ga, BatchFitnessMustScoreEveryGenome) {
    GaParams params;
    params.population = 4;
    const BatchFitnessFn short_batch = [](const std::vector<PinAssignment>& g) {
        return std::vector<double>(g.size() - 1, 1.0);
    };
    EXPECT_THROW(run_ga(1, 4, 4, short_batch, params), std::logic_error);
    EXPECT_THROW(random_search(1, 4, 4, short_batch, 4, 1), std::logic_error);
}

}  // namespace
}  // namespace mvf::ga
