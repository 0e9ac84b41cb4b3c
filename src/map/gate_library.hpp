#pragma once
// Standard-cell library for technology mapping.
//
// The paper maps synthesized circuits to "inverters, buffers, and 2-4 input
// NAND, NOR, AND, OR gates" and reports area in gate equivalents (GE,
// normalized to NAND2).  This module provides exactly that library with a
// generic GE area table; the camouflage library (src/camo) derives its
// look-alike cells from these nominal cells.

#include <string>
#include <string_view>
#include <vector>

#include "logic/truth_table.hpp"

namespace mvf::tech {

struct GateCell {
    std::string name;
    int num_inputs = 0;
    double area = 0.0;  ///< in GE (NAND2 = 1.0)
    logic::TruthTable function;  ///< over pins 0..num_inputs-1
};

class GateLibrary {
public:
    /// INV, BUF, {NAND,NOR,AND,OR} x {2,3,4} with generic GE areas.
    static GateLibrary standard();

    int num_cells() const { return static_cast<int>(cells_.size()); }
    const GateCell& cell(int id) const { return cells_[static_cast<std::size_t>(id)]; }

    /// Index of the cell with the given name, or -1.
    int find(std::string_view name) const;

    /// The first inverter / buffer cell added, or -1.
    int inv_id() const { return inv_id_; }
    int buf_id() const { return buf_id_; }
    /// Requires an inverter (inv_id() >= 0).
    double inv_area() const { return cell(inv_id_).area; }

    /// Registers a cell; returns its id.  Used by tests and custom setups.
    int add_cell(GateCell cell);

private:
    std::vector<GateCell> cells_;
    int inv_id_ = -1;
    int buf_id_ = -1;
};

}  // namespace mvf::tech
