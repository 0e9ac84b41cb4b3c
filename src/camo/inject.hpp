#pragma once
// Camouflage injection for imported benchmark circuits.
//
// The S-box flow reaches a CamoNetlist through Phase III's covering; an
// imported circuit has no select structure to absorb, so injection takes
// the direct route the camouflaging literature (and the paper's threat
// model) assumes: replace a chosen fraction of the mapped cells with their
// look-alike camouflaged variants and leave the rest nominal-but-known.
// The attacker model is the standard one — camouflaged cells range over
// their full plausible sets, every other cell is fixed to its nominal
// function via OracleAttackParams::fixed_nominal.

#include <cstdint>
#include <string>
#include <vector>

#include "camo/camo_cell.hpp"
#include "camo/camo_map.hpp"
#include "camo/camo_netlist.hpp"
#include "map/netlist.hpp"
#include "util/rng.hpp"

namespace mvf::camo {

/// Which cells get camouflaged first when the budget is partial.
enum class InjectPolicy {
    kRandom,  ///< seeded uniform choice
    kFanout,  ///< highest-fanout cells first (hurts sensitization attacks)
    kDepth,   ///< deepest cells first (longest controlling paths)
};

/// Parses "random" / "fanout" / "depth"; returns false on anything else.
bool inject_policy_from_name(const std::string& name, InjectPolicy* policy);
const char* inject_policy_name(InjectPolicy policy);

struct InjectParams {
    /// Fraction of camouflageable cells to camouflage, in (0, 1].  Ignored
    /// when `cells` is positive.
    double density = 0.1;
    /// Absolute number of cells to camouflage (0 = use density).
    int cells = 0;
    InjectPolicy policy = InjectPolicy::kRandom;
    std::uint64_t seed = 1;
};

struct InjectResult {
    CamoNetlist netlist;
    /// fixed_nominal[node] = attacker knows this cell is ordinary (config
    /// code 0).  Indexed by CamoNetlist node id; feed to
    /// OracleAttackParams::fixed_nominal.
    std::vector<bool> fixed_nominal;
    CamoMapStats stats;
    /// Camouflageable cell instances in the mapped netlist (the density
    /// denominator).
    int total_cells = 0;
};

/// The look-alike translation every injection starts from: each cell of
/// `mapped` (which must have no select inputs) becomes its camouflaged
/// variant configured to its nominal function (config_fn = {0}), each
/// constant a TIE cell, and every cell starts fixed.  Code 0 realizes the
/// original circuit.  Throws std::runtime_error when `library` has no
/// camouflaged variant of a mapped cell.
struct LookAlike {
    CamoNetlist netlist;
    /// True for every cell (TIEs included), false for PIs.
    std::vector<bool> fixed_nominal;
    /// The cells, as CamoNetlist node ids in mapped-node order.
    std::vector<int> candidates;
    /// The mapped node id of each candidate.
    std::vector<int> candidate_orig;
};
LookAlike look_alike(const tech::Netlist& mapped, const CamoLibrary& library);

/// Camouflages `mapped` (which must have no select inputs) against
/// `library`: every cell becomes its look-alike variant, constants become
/// TIE cells, and the selected subset is left free for the attacker to
/// resolve while the rest is marked fixed.  Code 0 always realizes the
/// original circuit.  Deterministic in (mapped, params).
InjectResult inject(const tech::Netlist& mapped, const CamoLibrary& library,
                    const InjectParams& params);

}  // namespace mvf::camo
