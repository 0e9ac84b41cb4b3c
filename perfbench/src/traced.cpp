#include "traced.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "attack/adversary.hpp"
#include "attack/oracle.hpp"
#include "attack/oracle_attack.hpp"
#include "camo/camo_map.hpp"
#include "camo/inject.hpp"
#include "flow/merged_spec.hpp"
#include "ga/ga.hpp"
#include "io/import.hpp"
#include "synth/optimize.hpp"

namespace perfbench {

namespace {

using mvf::flow::FlowContext;
using mvf::flow::MergedSpec;
namespace attack = mvf::attack;
namespace tech = mvf::tech;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Timing decorator around the simulated chip: one span per scalar query
/// or block, pattern counters, and a record of the answered patterns (the
/// I/O pairs the survivor count is constrained by).
class TimingOracle final : public attack::OracleDecorator {
public:
    TimingOracle(attack::Oracle& chip, TraceScope* scope)
        : OracleDecorator(chip), scope_(scope) {}

    std::vector<bool> query(const std::vector<bool>& inputs) override {
        std::vector<bool> out;
        {
            const Span s(scope_->recorder, "oracle.query", scope_->scenario);
            out = inner_->query(inputs);
        }
        ++scope_->counters.oracle_scalar;
        ++scope_->counters.oracle_patterns;
        inputs_.push_back(inputs);
        answers_.push_back(out);
        return out;
    }

    std::vector<std::uint64_t> query_block(const std::vector<std::uint64_t>& inputs,
                                           int count) override {
        std::vector<std::uint64_t> out;
        {
            const Span s(scope_->recorder, "oracle.block", scope_->scenario);
            out = inner_->query_block(inputs, count);
        }
        ++scope_->counters.oracle_blocks;
        scope_->counters.oracle_patterns += static_cast<std::uint64_t>(count);
        for (int k = 0; k < count; ++k) {
            inputs_.push_back(attack::unpack_lane(inputs, k));
            answers_.push_back(attack::unpack_lane(out, k));
        }
        return out;
    }

    /// Forgets the recorded patterns (call before each adversary).
    void clear() {
        inputs_.clear();
        answers_.clear();
    }
    const std::vector<std::vector<bool>>& inputs() const { return inputs_; }
    const std::vector<std::vector<bool>>& answers() const { return answers_; }

private:
    TraceScope* scope_;
    std::vector<std::vector<bool>> inputs_;
    std::vector<std::vector<bool>> answers_;
};

/// A pipeline stage that runs inside a "stage.<name>" span and offers
/// child spans to its body.
class TracedStage : public mvf::flow::Stage {
public:
    TracedStage(TraceScope* scope, std::string name)
        : scope_(scope), name_(std::move(name)) {}

    std::string_view name() const final { return name_; }
    void run(FlowContext& ctx) final {
        const Span stage = span("stage." + name_);
        body(ctx);
    }

protected:
    virtual void body(FlowContext& ctx) = 0;

    Span span(const std::string& name) const {
        return Span(scope_->recorder, name, scope_->scenario);
    }
    TracedCounters& counters() const { return scope_->counters; }

    /// ObfuscationFlow::synthesize, one span per layer call.  The match
    /// cache is the scenario's own, as the engine's is.
    tech::Netlist synthesize(FlowContext& ctx, const MergedSpec& spec,
                             mvf::synth::Effort effort,
                             const tech::TechMapParams& map_params,
                             mvf::flow::BuildStyle style) const {
        if (!scope_->match_cache) scope_->match_cache.emplace(ctx.flow->gate_library());
        mvf::net::Aig aig = [&] {
            const Span s = span("synth.build");
            return spec.build_aig(style);
        }();
        {
            const Span s = span("synth.optimize");
            mvf::synth::optimize(&aig, ctx.flow->synth_context(), effort);
        }
        ++counters().synth_calls;
        counters().synth_ands_out += static_cast<std::uint64_t>(aig.num_ands());
        tech::Netlist mapped = [&] {
            const Span s = span("map");
            return tech::tech_map(aig, *scope_->match_cache, map_params,
                                  spec.pi_names(), spec.pi_select_flags());
        }();
        ++counters().map_calls;
        counters().map_cells_out += static_cast<std::uint64_t>(mapped.num_cells());
        return mapped;
    }

    TraceScope* scope_;

private:
    std::string name_;
};

/// flow::PinSearchStage with a timing FitnessFn.
class PinSearch final : public TracedStage {
public:
    explicit PinSearch(TraceScope* scope) : TracedStage(scope, "pin-search") {}

private:
    void body(FlowContext& ctx) override {
        const std::vector<mvf::flow::ViableFunction>& functions = *ctx.functions;
        const int n = static_cast<int>(functions.size());
        const int m = functions.front().num_inputs;
        const int r = functions.front().num_outputs;
        const mvf::ga::FitnessFn fitness = [&](const mvf::ga::PinAssignment& pa) {
            const Clock::time_point t0 = Clock::now();
            double area = 0.0;
            {
                const Span s = span("ga.eval");
                const MergedSpec spec(functions, pa);
                area = synthesize(ctx, spec, ctx.params.fitness_effort, {},
                                  ctx.params.fitness_build)
                           .area();
            }
            ++counters().fitness_calls;
            counters().eval_us.push_back(seconds_since(t0) * 1e6);
            return area;
        };
        mvf::ga::GaParams ga_params = ctx.params.ga;
        ga_params.seed = ctx.params.seed;
        {
            const Span s = span("ga.search");
            ctx.result.ga = mvf::ga::run_ga(n, m, r, fitness, ga_params);
        }
        if (ctx.params.run_random_baseline) {
            const int count = ctx.params.random_count > 0
                                  ? ctx.params.random_count
                                  : ctx.result.ga.history.evaluations;
            mvf::ga::RandomSearchResult rs;
            {
                const Span s = span("ga.random");
                rs = mvf::ga::random_search(n, m, r, fitness, count,
                                            ctx.params.seed ^ 0xabcdef12345ull);
            }
            ctx.result.random_avg = rs.avg_area;
            ctx.result.random_best = rs.best_area;
            ctx.result.random_areas = rs.all_areas;
        }
    }
};

/// flow::SynthesizeStage, split into build / optimize / map spans.
class Synthesize final : public TracedStage {
public:
    explicit Synthesize(TraceScope* scope) : TracedStage(scope, "synthesize") {}

private:
    void body(FlowContext& ctx) override {
        const std::vector<mvf::flow::ViableFunction>& functions = *ctx.functions;
        const int n = static_cast<int>(functions.size());
        if (ctx.result.ga.best.num_functions() != n || !ctx.result.ga.best.valid()) {
            ctx.result.ga.best = mvf::ga::PinAssignment::identity(
                n, functions.front().num_inputs, functions.front().num_outputs);
        }
        ctx.best_spec.emplace(functions, ctx.result.ga.best);
        const mvf::flow::FlowParams& p = ctx.params;
        tech::Netlist mapped =
            p.final_best_of_builds
                ? best_of_builds(ctx)
                : synthesize(ctx, *ctx.best_spec, p.final_effort, p.map, p.fitness_build);
        ctx.result.ga_area = mapped.area();
        if (ctx.result.ga.best_area > 0.0) {
            ctx.result.ga_area = std::min(ctx.result.ga_area, ctx.result.ga.best_area);
        }
        ctx.result.synthesized = std::move(mapped);
    }

    /// ObfuscationFlow::synthesize_best.
    tech::Netlist best_of_builds(FlowContext& ctx) const {
        const mvf::flow::FlowParams& p = ctx.params;
        tech::Netlist factored = synthesize(ctx, *ctx.best_spec, p.final_effort, p.map,
                                            mvf::flow::BuildStyle::kFactored);
        tech::Netlist shared = synthesize(ctx, *ctx.best_spec, p.final_effort, p.map,
                                          mvf::flow::BuildStyle::kSharedExtract);
        return shared.area() < factored.area() ? std::move(shared) : std::move(factored);
    }
};

class CamoCover final : public TracedStage {
public:
    explicit CamoCover(TraceScope* scope) : TracedStage(scope, "camo-cover") {}

private:
    void body(FlowContext& ctx) override {
        const int n = static_cast<int>(ctx.functions->size());
        mvf::camo::CamoMapResult cm = [&] {
            const Span s = span("camo.cover");
            return mvf::camo::camo_map(*ctx.result.synthesized, ctx.flow->camo_library(),
                                       n, ctx.params.camo);
        }();
        ctx.result.ga_tm_area = cm.stats.area;
        ctx.result.camo_stats = cm.stats;
        ctx.result.camouflaged = std::move(cm.netlist);
    }
};

/// The library's own validation stage inside a stage span.
class Validate final : public TracedStage {
public:
    explicit Validate(TraceScope* scope) : TracedStage(scope, "validate") {}

private:
    void body(FlowContext& ctx) override { mvf::flow::ValidateStage().run(ctx); }
};

class Import final : public TracedStage {
public:
    explicit Import(TraceScope* scope) : TracedStage(scope, "import") {}

private:
    void body(FlowContext& ctx) override {
        const mvf::io::ImportedCircuit circuit = [&] {
            const Span s = span("io.load");
            return mvf::io::load_circuit(ctx.params.circuit.path);
        }();
        counters().io_aig_ands = static_cast<std::uint64_t>(circuit.aig.num_ands());
        tech::Netlist mapped = [&] {
            const Span s = span("io.map");
            return mvf::io::import_netlist(circuit, ctx.flow->gate_library(),
                                           ctx.params.map);
        }();
        ctx.result.ga_area = mapped.area();
        ctx.result.synthesized = std::move(mapped);
    }
};

class Inject final : public TracedStage {
public:
    explicit Inject(TraceScope* scope) : TracedStage(scope, "camo-inject") {}

private:
    void body(FlowContext& ctx) override {
        const mvf::flow::CircuitParams& cp = ctx.params.circuit;
        mvf::camo::InjectParams ip;
        ip.density = cp.camo_density;
        ip.cells = cp.camo_cells;
        ip.seed = cp.camo_seed != 0 ? cp.camo_seed : ctx.params.seed;
        if (!mvf::camo::inject_policy_from_name(cp.camo_policy, &ip.policy)) {
            throw std::invalid_argument("unknown camouflage policy " + cp.camo_policy);
        }
        mvf::camo::InjectResult injected = [&] {
            const Span s = span("camo.inject");
            return mvf::camo::inject(*ctx.result.synthesized, ctx.flow->camo_library(), ip);
        }();
        ctx.result.ga_tm_area = injected.stats.area;
        ctx.result.camo_stats = injected.stats;
        ctx.result.camouflaged = std::move(injected.netlist);
        ctx.result.fixed_nominal = std::move(injected.fixed_nominal);
    }
};

/// flow::AttackStage for the serial default configuration, with the CEGAR
/// loop and the survivor count as separate calls.
class Attack final : public TracedStage {
public:
    Attack(TraceScope* scope, std::vector<std::string> adversaries)
        : TracedStage(scope, "attack"), adversaries_(std::move(adversaries)) {}

private:
    void body(FlowContext& ctx) override {
        const mvf::camo::CamoNetlist& netlist = *ctx.result.camouflaged;
        attack::AdversaryOptions options;
        options.oracle = ctx.params.oracle;
        options.random_queries = ctx.params.random_queries;
        options.random_seed = ctx.params.seed;
        if (!ctx.result.fixed_nominal.empty()) {
            options.oracle.fixed_nominal = &ctx.result.fixed_nominal;
        }
        attack::SimOracle chip(netlist, netlist.configuration_for_code(0));
        TimingOracle timed(chip, scope_);
        for (const std::string& name : adversaries_) {
            if (name == "plausibility") {
                if (!ctx.best_spec) {
                    throw std::invalid_argument(
                        "plausibility needs the viable-function set, which circuit "
                        "scenarios do not have");
                }
                for (int code = 0; code < ctx.best_spec->num_functions(); ++code) {
                    options.viable_targets.push_back(
                        ctx.best_spec->expected_outputs_for_code(code));
                }
                const auto adversary =
                    attack::AdversaryRegistry::instance().create(name, options);
                const Span s = span("attack.plausibility");
                attack::AdversaryReport report = adversary->attack(netlist, nullptr);
                scope_->recorder->attribute(s.index(), "sat", report.sat.solve_seconds);
                ctx.result.attack_reports.push_back(std::move(report));
            } else if (name == "cegar") {
                cegar(ctx, netlist, options, timed);
            } else if (name == "random-sampling") {
                random_sampling(ctx, netlist, options, timed);
            } else {
                throw std::invalid_argument("traced attack stage: unsupported adversary " + name);
            }
        }
    }

    void count(const mvf::camo::CamoNetlist& netlist, const attack::AdversaryOptions& options,
               const std::vector<std::vector<bool>>& inputs,
               const std::vector<std::vector<bool>>& answers,
               attack::OracleAttackResult* result) const {
        const Span s = span("count");
        attack::count_consistent_configs(netlist, inputs, answers, options.oracle, result);
        ++counters().count_calls;
    }

    static void fill_count(const attack::OracleAttackResult& res,
                           attack::AdversaryReport* report) {
        report->survivors = res.surviving_configs;
        if (!res.counted) return;
        report->survivors_str = res.survivors.to_string();
        report->count_mode = std::string(attack::count_mode_name(res.count_mode));
        report->count = res.count_stats;
        report->approx_xor_levels = res.approx_xor_levels;
        report->approx_rounds = res.approx_rounds;
    }

    /// CegarAdversary::attack with the count split out.
    void cegar(FlowContext& ctx, const mvf::camo::CamoNetlist& netlist,
               const attack::AdversaryOptions& options, TimingOracle& timed) const {
        attack::OracleStack stack(&timed, ctx.params.oracle_model);
        attack::OracleAttackParams loop_params = options.oracle;
        loop_params.enumerate_survivors = false;
        timed.clear();
        attack::OracleAttackResult res;
        {
            const Span s = span("attack.cegar");
            res = attack::oracle_attack(netlist, stack.top(), loop_params);
            scope_->recorder->attribute(s.index(), "sat", res.sat_stats.solve_seconds);
        }
        if (static_cast<int>(timed.inputs().size()) != res.queries ||
            timed.inputs() != res.distinguishing_inputs) {
            throw std::logic_error("traced CEGAR: oracle record differs from the "
                                   "distinguishing inputs");
        }
        if (res.status != attack::OracleAttackResult::Status::kIterationLimit &&
            res.status != attack::OracleAttackResult::Status::kQueryBudget &&
            options.oracle.enumerate_survivors) {
            count(netlist, options, timed.inputs(), timed.answers(), &res);
        }
        attack::AdversaryReport report;
        report.adversary = "cegar";
        report.success = res.solved();
        report.outcome = std::string(attack::attack_status_name(res.status));
        report.queries = res.queries + res.warmup_queries;
        fill_count(res, &report);
        report.sat = res.sat_stats;
        report.oracle = stack.stats();
        ctx.result.attack_reports.push_back(std::move(report));
        ctx.result.oracle_attack = std::move(res);
    }

    /// RandomSamplingAdversary::attack with the count split out.
    void random_sampling(FlowContext& ctx, const mvf::camo::CamoNetlist& netlist,
                         const attack::AdversaryOptions& options,
                         TimingOracle& timed) const {
        attack::OracleStack stack(&timed, ctx.params.oracle_model);
        attack::OracleAttackParams sample_params = options.oracle;
        sample_params.enumerate_survivors = false;
        attack::RandomSamplingAdversary adversary(sample_params, options.random_queries,
                                                  options.random_seed);
        timed.clear();
        attack::AdversaryReport report;
        {
            const Span s = span("attack.random_sampling");
            report = adversary.attack(netlist, &stack.top());
        }
        attack::OracleAttackResult res;
        res.queries = report.queries;
        if (options.oracle.enumerate_survivors) {
            count(netlist, options, timed.inputs(), timed.answers(), &res);
        }
        report.success = res.counted && res.surviving_configs == 1 &&
                         res.status == attack::OracleAttackResult::Status::kSolved;
        report.outcome = std::to_string(res.queries) + " random queries, " +
                         (res.counted ? res.survivors.to_string() : std::string("uncounted")) +
                         " survivors";
        fill_count(res, &report);
        report.oracle = stack.stats();
        ctx.result.attack_reports.push_back(std::move(report));
    }

    std::vector<std::string> adversaries_;
};

}  // namespace

mvf::flow::Pipeline traced_pipeline(const mvf::flow::FlowParams& params,
                                    TraceScope* scope) {
    const attack::OracleAttackParams& o = params.oracle;
    if (o.attack_threads > 1 || o.portfolio > 1 || o.random_warmup > 0 ||
        o.neighborhood_queries > 0 || !params.save_transcript.empty() ||
        !params.replay_transcript.empty() || !params.emit_proof.empty() ||
        params.oracle_model.query_budget != 0 || params.oracle_model.noise != 0.0 ||
        params.oracle_model.cache || params.oracle_model.record ||
        params.oracle_model.commit || params.oracle_model.replay != nullptr) {
        throw std::invalid_argument(
            "traced pipeline mirrors the serial default attack only");
    }
    std::vector<std::string> adversaries = params.adversaries;
    if (adversaries.empty() && params.run_oracle_attack) adversaries = {"cegar"};

    mvf::flow::Pipeline p;
    if (!params.circuit.path.empty()) {
        p.add_stage<Import>(scope);
        if (params.run_camo_mapping) p.add_stage<Inject>(scope);
    } else {
        p.add_stage<PinSearch>(scope);
        p.add_stage<Synthesize>(scope);
        if (params.run_camo_mapping) {
            p.add_stage<CamoCover>(scope);
            if (params.verify) p.add_stage<Validate>(scope);
        }
    }
    if (!adversaries.empty()) p.add_stage<Attack>(scope, std::move(adversaries));
    return p;
}

}  // namespace perfbench
