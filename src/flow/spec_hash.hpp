#pragma once
// Deterministic canonical scenario hashing.
//
// Two scenario specs that mean the same experiment must hash identically
// no matter how they were spelled (key order in the spec line, defaults
// written out vs. omitted), and any semantic change -- a different seed, a
// GA knob, an oracle budget -- must change the hash.  The canonical form is
// a JSON object with every semantically relevant parameter materialized
// (defaults included) and keys recursively sorted; the hash is FNV-1a over
// its compact dump.
//
// Uses:
//   * provenance: every ScenarioRecord and AdversaryReport carries
//     `spec_hash`, so archived reports state exactly which experiment
//     produced them;
//   * the serve stage-result cache: keys are (stage-subset hash, seed,
//     stage), where the subset covers only the parameters that influence
//     the pipeline up to and including that stage -- so re-submitting a
//     sweep with only attack knobs changed re-uses the synthesized and
//     camouflaged netlists and re-runs just the attack.
//
// What is hashed, and into which stage subsets, is declared per knob by
// the scenario schema (flow/scenario_schema.hpp): its phase picks the
// first stage whose key covers it, and both functions here only walk that
// table.  Excluded from the canonical form: the scenario `name`
// (cosmetic), `save_transcript` and `emit_proof` (side effects that do not
// alter results), and the runtime plumbing that is no knob at all
// (`oracle_model.record`, thread pools, and `ga.seed`, which the pipeline
// overrides with the scenario seed).  `replay_transcript` IS included --
// replaying changes results -- but a scenario naming transcript or proof
// files is never stage-cached (the cache cannot see the file contents).
//
// Circuit scenarios (`circuit=PATH`) hash the referenced file's CONTENTS
// (SHA-256 of its bytes) into every subset, so editing the benchmark on
// disk changes the spec hash and invalidates stage-cache entries instead
// of warm-hitting stale snapshots.

#include <string>
#include <string_view>

#include "flow/batch_runner.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// Bump when the canonical form or the stage-snapshot serialization
/// changes shape: it is folded into every hash, so stale spill-directory
/// entries from older builds miss instead of deserializing garbage.
inline constexpr int kSpecSchemaVersion = 1;

/// Full canonical form (keys sorted, defaults materialized, seed included).
report::Json canonical_spec_json(const Scenario& scenario);

/// 16-hex-digit FNV-1a of canonical_spec_json's compact dump.
std::string spec_hash(const Scenario& scenario);

/// Cache key "<subset-hash>:s<seed>:<stage>" for one pipeline stage, where
/// the subset hash covers exactly the parameters stages up to and
/// including `stage` consume.  Returns "" (do not cache) for unknown stage
/// names and for scenarios whose results depend on state outside the spec
/// (transcript record/replay files).
std::string stage_cache_key(const Scenario& scenario, std::string_view stage);

}  // namespace mvf::flow
