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
#include <mutex>
#include <span>
#include <vector>

#include "map/gate_library.hpp"
#include "map/netlist.hpp"
#include "net/aig.hpp"
#include "net/cuts.hpp"

namespace mvf::tech {

/// One way of realizing a cut function with a library cell: cell pin p
/// connects to cut leaf position pin_leaf_pos[p], complemented if pin_neg[p].
struct CellMatch {
    int cell_id = -1;
    std::array<std::uint8_t, 4> pin_leaf_pos{};
    std::array<bool, 4> pin_neg{};
};

/// Flat cut-function -> cell-match table: the matches of truth table tt
/// are cells[offsets[tt]] .. cells[offsets[tt + 1] - 1].  16-bit offsets
/// keep it at 128 KiB; the standard library has 2 512 matches.
struct MatchTable {
    std::vector<std::uint16_t> offsets;  ///< 2^16 + 1 entries
    std::vector<CellMatch> cells;

    std::span<const CellMatch> matches(std::uint16_t tt) const {
        return std::span<const CellMatch>(cells).subspan(offsets[tt],
                                                         offsets[tt + 1u] - offsets[tt]);
    }
};

/// The match table of one library.  Construction is cheap; the first
/// lookup builds the whole table (under std::call_once, so concurrent first
/// callers wait for one build).  Share one instance across many tech_map
/// calls -- the genetic algorithm performs thousands of mapping runs
/// against the same library -- and across threads: once built, the table
/// is read-only.
class MatchCache {
public:
    explicit MatchCache(GateLibrary library) : lib_(std::move(library)) {}

    MatchCache(const MatchCache&) = delete;
    MatchCache& operator=(const MatchCache&) = delete;

    const GateLibrary& library() const { return lib_; }

    /// The table, built on first use.  Throws std::invalid_argument when
    /// the library has no inverter or no cell realizing AND2 in either
    /// output phase (the mapper could not cover every AIG with it), or so
    /// many cells that their matches might overflow the 16-bit offsets.
    const MatchTable& table();

    /// All single-cell realizations of the given 16-bit cut function, by
    /// cell id, then pin permutation (lexicographic over the function's
    /// support), then pin negation mask; the mapper breaks cost ties by
    /// this order.  Throws like table().
    std::span<const CellMatch> matches(std::uint16_t tt) { return table().matches(tt); }

private:
    GateLibrary lib_;
    std::once_flag built_;
    MatchTable table_;
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
