#include "flow/spec_hash.hpp"

#include <optional>

#include "flow/scenario_schema.hpp"
#include "util/hash.hpp"

namespace mvf::flow {

namespace {

/// Every knob of `phase` or earlier that applies to the scenario's kind.
/// The seed is NOT here -- subsets are seed-free so the cache key can
/// spell it out explicitly.
report::Json subset_json(const Scenario& s, Phase upto) {
    const bool circuit = !s.params.circuit.path.empty();
    report::Json j = report::Json::object();
    j.set("schema", kSpecSchemaVersion);
    if (circuit) j.set("kind", std::string(kCircuitFamily));
    for (const Knob& k : scenario_knobs()) {
        if (k.hash == Hash::kSubset && k.phase <= upto && k.applies_to(circuit)) {
            k.emit(s, j);
        }
    }
    return j;
}

/// The phase whose subset keys `stage`; nullopt for stages that are not
/// cached (custom stages opt in by name, not by default).
std::optional<Phase> stage_phase(std::string_view stage, bool circuit) {
    if (stage == "attack") return Phase::kAttack;
    if (circuit) {
        if (stage == "import") return Phase::kSearch;
        if (stage == "camo-inject") return Phase::kSynth;
        return std::nullopt;
    }
    if (stage == "pin-search") return Phase::kSearch;
    if (stage == "synthesize") return Phase::kSynth;
    // Validation has no knobs of its own beyond the covered netlist.
    if (stage == "camo-cover" || stage == "validate") return Phase::kCover;
    return std::nullopt;
}

}  // namespace

report::Json canonical_spec_json(const Scenario& scenario) {
    report::Json j = subset_json(scenario, Phase::kAttack);
    for (const Knob& k : scenario_knobs()) {
        if (k.hash == Hash::kSeed) k.emit(scenario, j);
    }
    return report::canonicalized(j);
}

std::string spec_hash(const Scenario& scenario) {
    return util::fnv1a64_hex(canonical_spec_json(scenario).dump());
}

std::string stage_cache_key(const Scenario& scenario, std::string_view stage) {
    for (const Knob& k : scenario_knobs()) {
        if (k.uncacheable && k.is_set(scenario)) return "";
    }
    const std::optional<Phase> phase =
        stage_phase(stage, !scenario.params.circuit.path.empty());
    if (!phase) return "";
    return util::fnv1a64_hex(
               report::canonicalized(subset_json(scenario, *phase)).dump()) +
           ":s" + std::to_string(scenario.params.seed) + ":" +
           std::string(stage);
}

}  // namespace mvf::flow
