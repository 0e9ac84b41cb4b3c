#pragma once
// One definition per scenario knob.
//
// Every tunable of a Scenario -- spec key, CLI flag, type and range,
// canonical-JSON path, owning pipeline phase, S-box/circuit applicability
// and help line -- is one entry of the table in scenario_schema.cpp.  The
// spec parser, the mvf CLI, validation, the usage text and the spec hash /
// stage-cache keys (spec_hash.hpp) all walk that table, so no surface can
// forget a knob and no knob can change results without changing its keys.
// Both surfaces reduce to (key, value) pairs fed to one ScenarioBuilder;
// errors spell knobs the way the surface that supplied them does.

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "flow/batch_runner.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// The pipeline phase that first consumes a knob.  Stage-cache subsets are
/// cumulative: a knob is hashed into the key of its phase's stage and of
/// every later one.
enum class Phase {
    kSearch,  ///< pin-search | import
    kSynth,   ///< synthesize | camo-inject
    kCover,   ///< camo-cover and validate (S-box only)
    kAttack,  ///< attack
};

/// The scenario kinds a knob steers; giving it to the other kind is an error.
enum class Applies { kSbox, kCircuit, kBoth };

enum class Hash {
    kSubset,  ///< in its phase's stage subset and every later one
    kSeed,    ///< spelled out in every stage key; hashed in the full form only
    kNone,    ///< presentation or side effect only
};

/// The input surface a value came from.
enum class Surface { kSpec, kCli };

struct Knob {
    std::string_view key{};         ///< spec key; empty = API-only (FlowParams)
    std::string_view alias{};       ///< second accepted spec key
    std::string_view flag{};        ///< CLI flag; empty = spec only
    std::string_view flag_sets{};   ///< value a switch flag sets; empty = takes one
    std::string_view value_name{};  ///< usage placeholder
    std::string_view path{};        ///< dotted canonical-JSON path; empty = custom
    Phase phase = Phase::kAttack;
    Applies applies = Applies::kBoth;
    Hash hash = Hash::kSubset;
    /// A set value ties the run to files the stage cache cannot see.
    bool uncacheable = false;
    std::string_view help{};

    /// Parses text into the scenario; throws std::invalid_argument whose
    /// message starts with `spelling`.
    std::function<void(Scenario&, std::string_view text, const std::string& spelling)>
        parse{};
    /// The current value as text parse() accepts.
    std::function<std::string(const Scenario&)> format{};
    /// Writes the value into a canonical-JSON object.
    std::function<void(const Scenario&, report::Json&)> emit{};

    /// Spec key, or the JSON path of an API-only knob.
    std::string_view id() const { return key.empty() ? path : key; }
    /// "population" on the spec surface, "--population" on the CLI.
    std::string spelling(Surface surface) const;
    bool applies_to(bool circuit) const;
    /// The scenario holds a non-default value.
    bool is_set(const Scenario& s) const;
};

/// The table, in usage-text order.
const std::vector<Knob>& scenario_knobs();
/// Lookup by spec key or alias (nullptr when unknown).
const Knob* find_knob(std::string_view key);
/// Lookup by CLI flag (nullptr when no knob has it).
const Knob* find_flag(std::string_view flag);

/// Builds one Scenario from the (key, value) pairs of one surface.  Every
/// method throws std::invalid_argument on bad input.
class ScenarioBuilder {
public:
    explicit ScenarioBuilder(Surface surface) : surface_(surface) {}

    /// Applies key=value (spec key or alias).
    void set(std::string_view key, std::string_view value);
    /// When args[*i] is a knob flag, applies it (with the next argument as
    /// its value unless it is a switch), leaves *i on the last argument
    /// used and returns true.
    bool take_flag(const std::vector<std::string>& args, std::size_t* i);
    /// `--quick`: small budgets for the quick knobs not given explicitly.
    void apply_quick_defaults();

    /// The scenario so far, for callers that fill defaults before finish().
    Scenario& scenario() { return scenario_; }
    /// Validates, fills implied values and the default name.
    Scenario finish();

private:
    void apply(const Knob& knob, std::string_view value);

    Surface surface_;
    Scenario scenario_;
    std::set<std::string_view> given_;  ///< spec keys set explicitly
};

/// Every applicability and contradiction rule, given the keys the user set
/// (plus validate_values).
void validate_scenario(const Scenario& s, const std::set<std::string_view>& given,
                       Surface surface);

/// The rules on values alone: the ranges of API-only knobs, unknown
/// adversaries, viable-set adversaries on a circuit, replay conflicts, the
/// serial-only neighborhood queries and the emit_proof contract for the
/// attack stage's adversary `panel`.  The attack stage calls it too.
void validate_values(const FlowParams& params, const std::vector<std::string>& panel,
                     Surface surface = Surface::kSpec);

/// The scenario-knob part of the mvf usage text.
std::string knob_usage();

}  // namespace mvf::flow
