#include "map/gate_library.hpp"

namespace mvf::tech {

using logic::TruthTable;

namespace {

TruthTable and_n(int n) {
    TruthTable t = TruthTable::ones(n);
    for (int i = 0; i < n; ++i) t &= TruthTable::var(i, n);
    return t;
}

TruthTable or_n(int n) {
    TruthTable t = TruthTable::zeros(n);
    for (int i = 0; i < n; ++i) t |= TruthTable::var(i, n);
    return t;
}

}  // namespace

GateLibrary GateLibrary::standard() {
    GateLibrary lib;
    lib.add_cell({"INV", 1, 0.67, ~TruthTable::var(0, 1)});
    lib.add_cell({"BUF", 1, 1.00, TruthTable::var(0, 1)});

    // Area ratios follow typical commercial standard-cell libraries.
    const double nand_area[3] = {1.00, 1.33, 1.67};
    const double and_area[3] = {1.33, 1.67, 2.00};
    for (int n = 2; n <= 4; ++n) {
        const double na = nand_area[n - 2];
        const double aa = and_area[n - 2];
        lib.add_cell({"NAND" + std::to_string(n), n, na, ~and_n(n)});
        lib.add_cell({"NOR" + std::to_string(n), n, na, ~or_n(n)});
        lib.add_cell({"AND" + std::to_string(n), n, aa, and_n(n)});
        lib.add_cell({"OR" + std::to_string(n), n, aa, or_n(n)});
    }
    return lib;
}

int GateLibrary::find(std::string_view name) const {
    for (int i = 0; i < num_cells(); ++i) {
        if (cells_[static_cast<std::size_t>(i)].name == name) return i;
    }
    return -1;
}

int GateLibrary::add_cell(GateCell cell) {
    const int id = num_cells();
    if (cell.num_inputs == 1) {
        if (inv_id_ < 0 && cell.function == ~TruthTable::var(0, 1)) inv_id_ = id;
        if (buf_id_ < 0 && cell.function == TruthTable::var(0, 1)) buf_id_ = id;
    }
    cells_.push_back(std::move(cell));
    return id;
}

}  // namespace mvf::tech
