#pragma once
// Independent output check for camouflaged netlists.
//
// The flow validates itself through sim::simulate_camo_full against
// MergedSpec truth tables; this file checks the same netlists with code of
// its own.  The evaluator walks the CamoNetlist nodes and fanins and applies
// each cell's plausible truth table under a configuration, 64 input
// patterns per word, over all 2^PI patterns.  The reference functions are
// not produced by the flow: the S-box lookup tables routed through the
// chosen pin assignment, and plain integer multiplication for the
// multiplier workload.

#include <cstdint>
#include <string>
#include <vector>

#include "camo/camo_netlist.hpp"
#include "ga/genotype.hpp"
#include "sbox/sbox.hpp"

namespace perfbench {

/// The configuration a netlist records for select code `code`, read from
/// the nodes' config_fn tables (-1 for PIs).
std::vector<int> recorded_config(const mvf::camo::CamoNetlist& netlist, int code);

/// What the netlist must compute.
struct Reference {
    enum class Kind { kSbox, kProduct };
    Kind kind = Kind::kSbox;
    /// kSbox: the viable S-boxes (function k = select code k) and the pin
    /// assignment the flow chose; PIs are named "i<d>" for data input d.
    std::vector<mvf::sbox::Sbox> sboxes;
    mvf::ga::PinAssignment assignment;
    /// kProduct: operand width; PIs "a<i>"/"b<i>", PO q is bit q of a * b.
    int width = 0;
};

/// Compares the netlist's behaviour under `config` with the reference
/// function of select code `code` on every input pattern.  Returns "" when
/// they agree, otherwise what differed.
std::string compare(const mvf::camo::CamoNetlist& netlist,
                    const std::vector<int>& config, const Reference& ref,
                    int code);

/// Self-test of the checker: forces the cell feeding the first
/// cell-fed PO to a constant plausible function and confirms compare()
/// rejects the result.  Returns "" when the corrupted configuration was
/// rejected.
std::string self_test(const mvf::camo::CamoNetlist& netlist,
                      const std::vector<int>& config, const Reference& ref);

}  // namespace perfbench
