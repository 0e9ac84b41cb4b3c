#pragma once
// The random-camouflaging strawman (paper section I).
//
// "Random camouflaging is insufficient for obfuscating viable functions":
// replacing an arbitrary subset of an ordinary netlist's gates with
// camouflaged look-alikes creates exponentially many plausible functions,
// but with overwhelming probability NONE of the other viable functions is
// among them.  This module builds that baseline so the attacker benches can
// demonstrate the gap quantitatively.

#include "camo/camo_cell.hpp"
#include "camo/camo_netlist.hpp"
#include "map/netlist.hpp"
#include "util/rng.hpp"

namespace mvf::attack {

struct RandomCamoResult {
    camo::CamoNetlist netlist;
    /// Nodes the attacker knows are plain cells (not camouflaged).
    std::vector<bool> fixed_nominal;
    int camouflaged_cells = 0;
};

/// Replaces each cell of `mapped` (which must have no select inputs -- it is
/// a plain single-function circuit) by its camouflaged look-alike
/// (camo::look_alike); a random `fraction` of the cell instances, one coin
/// each in node order, is actually camouflaged (attacker uncertainty), the
/// rest -- constants' TIE cells included -- stay fixed at the nominal
/// function.  The true function of the circuit is preserved under
/// configuration code 0.  Throws std::runtime_error when `library` has no
/// camouflaged variant of a mapped cell.
RandomCamoResult random_camouflage(const tech::Netlist& mapped,
                                   const camo::CamoLibrary& library,
                                   double fraction, util::Rng& rng);

/// A random fully-camouflaged DAG for attack benchmarking at arbitrary
/// widths (the paper's S-boxes stop at 4-10 inputs; the oracle attack does
/// not).  `num_cells` random library look-alikes (TIE excluded) are wired
/// with fanins drawn from earlier nodes, biased toward recent ones so depth
/// grows; the first `num_pis` cells each consume one distinct PI so every
/// input is live, and the last `num_pos` cells drive the POs.  Every cell's
/// config_fn is {0} (code 0 = all-nominal), so
/// `configuration_for_code(0)` is the natural hidden configuration.
/// Requires num_cells >= max(num_pis, num_pos).
camo::CamoNetlist random_camo_netlist(const camo::CamoLibrary& library,
                                      int num_pis, int num_pos, int num_cells,
                                      util::Rng& rng);

}  // namespace mvf::attack
