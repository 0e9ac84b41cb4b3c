#pragma once
// Area-oriented structural technology mapping (AIG -> gate netlist).
//
// Matches 4-feasible cut functions against library cells (all input
// permutations and input negations; negated inputs request the negative
// phase of the leaf) and covers the AIG by dynamic programming over
// (node, phase) with area-flow costs, followed by cover extraction and
// optional area-recovery iterations using exact usage counts.  This plays
// the role of ABC's standard-cell mapper in the paper's flow: the "GA" and
// "random" columns of Table I are areas of the netlists this pass emits.

#include <array>
#include <cstdint>
#include <vector>

#include "map/gate_library.hpp"
#include "map/netlist.hpp"
#include "net/aig.hpp"
#include "net/cuts.hpp"
#include "util/memo16.hpp"

namespace mvf::tech {

/// One way of realizing a cut function with a library cell: cell pin p
/// connects to cut leaf position pin_leaf_pos[p], complemented if pin_neg[p].
struct CellMatch {
    int cell_id = -1;
    std::array<std::uint8_t, 4> pin_leaf_pos{};
    std::array<bool, 4> pin_neg{};
};

/// Memoized cut-function -> cell-match table.  Construction is cheap; the
/// table fills lazily.  Share one instance across many tech_map calls (the
/// genetic algorithm performs thousands of mapping runs against the same
/// library, and the set of distinct cut functions saturates quickly).
/// Concurrent tech_map calls may share one cache.
class MatchCache {
public:
    explicit MatchCache(GateLibrary library) : lib_(std::move(library)) {}

    const GateLibrary& library() const { return lib_; }

    /// All single-cell realizations of the given 16-bit cut function.
    const std::vector<CellMatch>& matches(std::uint16_t tt);

private:
    std::vector<CellMatch> compute(std::uint16_t tt) const;

    GateLibrary lib_;
    util::Memo16<std::vector<CellMatch>> memo_;
};

struct TechMapParams {
    net::CutParams cuts{4, 8, true};
    /// Area-recovery rounds after the initial area-flow pass.
    int recovery_iterations = 1;
};

/// Maps `aig` onto the cache's library.  `pi_names` / `pi_is_select` (same
/// length as the AIG's PI count, may be empty) annotate the netlist inputs;
/// select flags are consumed later by the camouflage covering.
Netlist tech_map(const net::Aig& aig, MatchCache& cache,
                 const TechMapParams& params = {},
                 const std::vector<std::string>& pi_names = {},
                 const std::vector<bool>& pi_is_select = {});

/// One-shot convenience that builds a private cache.
Netlist tech_map(const net::Aig& aig, const GateLibrary& library,
                 const TechMapParams& params = {},
                 const std::vector<std::string>& pi_names = {},
                 const std::vector<bool>& pi_is_select = {});

/// Convenience: mapped area in GE.
double mapped_area(const net::Aig& aig, MatchCache& cache,
                   const TechMapParams& params = {});

/// Support variables (within the first `k`) of a 16-bit cut function.
std::vector<int> tt16_support(std::uint16_t tt, int k);

}  // namespace mvf::tech
