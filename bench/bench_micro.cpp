// Google-benchmark micro-benchmarks for the flow's primitives: synthesis,
// technology mapping, camouflage covering, NPN canonization, and SAT-based
// plausibility checking.  These track the cost of one GA fitness evaluation
// (the quantity that dominates Table I runtime).

#include <benchmark/benchmark.h>

#include "attack/plausibility.hpp"
#include "flow/obfuscation_flow.hpp"
#include "logic/isop.hpp"
#include "logic/npn.hpp"
#include "map/tech_map.hpp"
#include "sbox/sbox_data.hpp"
#include "util/rng.hpp"

namespace {

using namespace mvf;

void BM_TruthTableOps(benchmark::State& state) {
    util::Rng rng(1);
    logic::TruthTable a = logic::TruthTable::from_function(
        10, [&rng](std::uint32_t) { return rng.coin(0.5); });
    logic::TruthTable b = logic::TruthTable::var(3, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize((a & b) | (~a & ~b));
        benchmark::DoNotOptimize(a.cofactor(7, true));
    }
}
BENCHMARK(BM_TruthTableOps);

void BM_IsopSboxOutput(benchmark::State& state) {
    const logic::TruthTable f = sbox::present_sbox().output_tt(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(logic::isop(f));
    }
}
BENCHMARK(BM_IsopSboxOutput);

void BM_MatchTableBuild(benchmark::State& state) {
    const tech::GateLibrary lib = tech::GateLibrary::standard();
    for (auto _ : state) {
        tech::MatchCache cache(lib);  // builds on the first lookup
        benchmark::DoNotOptimize(cache.matches(0x8888).data());
    }
    state.SetLabel("once per ObfuscationFlow");
}
BENCHMARK(BM_MatchTableBuild)->Unit(benchmark::kMicrosecond);

void BM_NpnCanonizeWarm(benchmark::State& state) {
    util::Rng rng(7);
    std::vector<std::uint16_t> tts;
    for (int i = 0; i < 256; ++i) {
        tts.push_back(static_cast<std::uint16_t>(rng.next_u64()));
    }
    for (const auto tt : tts) logic::npn_canonize(tt);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(logic::npn_canonize(tts[i++ & 255]));
    }
}
BENCHMARK(BM_NpnCanonizeWarm);

void BM_FitnessEvalPresent(benchmark::State& state) {
    flow::ObfuscationFlow obfuscator;
    const auto n = static_cast<int>(state.range(0));
    const auto fns = flow::from_sboxes(sbox::present_viable_set(n));
    util::Rng rng(3);
    for (auto _ : state) {
        const auto pa = ga::PinAssignment::random(n, 4, 4, rng);
        benchmark::DoNotOptimize(
            obfuscator.evaluate_area(fns, pa, synth::Effort::kFast));
    }
    state.SetLabel("one GA fitness evaluation");
}
BENCHMARK(BM_FitnessEvalPresent)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FitnessEvalDes(benchmark::State& state) {
    flow::ObfuscationFlow obfuscator;
    const auto n = static_cast<int>(state.range(0));
    const auto fns = flow::from_sboxes(sbox::des_viable_set(n));
    util::Rng rng(3);
    for (auto _ : state) {
        const auto pa = ga::PinAssignment::random(n, 6, 4, rng);
        benchmark::DoNotOptimize(
            obfuscator.evaluate_area(fns, pa, synth::Effort::kFast));
    }
}
BENCHMARK(BM_FitnessEvalDes)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_CamoMapPresent8(benchmark::State& state) {
    flow::ObfuscationFlow obfuscator;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(8));
    const flow::MergedSpec spec(fns, ga::PinAssignment::identity(8, 4, 4));
    const tech::Netlist mapped =
        obfuscator.synthesize(spec, synth::Effort::kDefault);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            camo::camo_map(mapped, obfuscator.camo_library(), 8));
    }
    state.SetLabel("Algorithm 1 on an 8-way merge");
}
BENCHMARK(BM_CamoMapPresent8)->Unit(benchmark::kMillisecond);

void BM_SatPlausibility(benchmark::State& state) {
    flow::ObfuscationFlow obfuscator;
    flow::FlowParams p;
    p.ga.population = 6;
    p.ga.generations = 2;
    p.run_random_baseline = false;
    const auto fns = flow::from_sboxes(sbox::present_viable_set(2));
    const flow::FlowResult r = obfuscator.run(fns, p);
    const flow::MergedSpec spec(fns, r.ga.best);
    const auto targets = spec.expected_outputs_for_code(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(attack::is_plausible(*r.camouflaged, targets));
    }
    state.SetLabel("attacker SAT query (2-way merge)");
}
BENCHMARK(BM_SatPlausibility)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
