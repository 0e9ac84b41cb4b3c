#pragma once
// Exact NPN canonization of 4-variable functions (16-bit truth tables).
//
// Rewriting classifies every 4-feasible cut by its NPN class so that one
// precomputed replacement structure per class serves all 768 input/output
// transform variants.  Canonization is exact (minimum 16-bit table over all
// 24 permutations x 16 input negations x 2 output negations) and reads one
// immutable process-wide 2^16 table.  The table is built on first use by
// orbit enumeration -- each of the 222 classes once, through its canonical
// form's 768 inverse images -- in a few milliseconds, and is then shared
// read-only by every thread.

#include <array>
#include <cstdint>
#include <span>

namespace mvf::logic {

/// The transform taking an original function to its canonical representative:
///   canon(x) = f(y) ^ out_neg   where y_j = x_{perm[j]} ^ neg_j.
struct NpnTransform {
    std::array<std::uint8_t, 4> perm{{0, 1, 2, 3}};
    std::uint8_t input_neg = 0;  ///< bit j set -> input j of f is negated
    bool output_neg = false;
};

struct NpnEntry {
    std::uint16_t canon = 0;
    std::uint8_t class_id = 0;  ///< index of `canon` in npn_classes()
    NpnTransform transform;     ///< maps the *original* function to `canon`
};

/// How to realize the original function given a structure implementing the
/// canonical function: structure input i is fed by original leaf
/// `leaf_of_input[i]`, complemented if `leaf_negated[i]`; the structure
/// output is complemented if `output_neg`.
struct NpnRebuildWiring {
    std::array<std::uint8_t, 4> leaf_of_input{{0, 1, 2, 3}};
    std::array<bool, 4> leaf_negated{{false, false, false, false}};
    bool output_neg = false;
};

/// Exact canonization: the minimum table over all 768 transforms, with the
/// first transform reaching it in (npn_permutations() index, input_neg,
/// output_neg) order.  Safe to call from several threads at once.
NpnEntry npn_canonize(std::uint16_t tt);

/// The canonical representatives of all 222 classes, ascending; a class id
/// indexes this list.
std::span<const std::uint16_t> npn_classes();

/// Applies a transform:  result(x) = f(y) ^ out_neg,  y_j = x_{perm[j]} ^ neg_j.
std::uint16_t npn_apply(std::uint16_t tt, const NpnTransform& t);

/// Inverts a canonizing transform into rebuild wiring (see NpnRebuildWiring).
NpnRebuildWiring npn_rebuild_wiring(const NpnTransform& t);

/// All 24 permutations of four elements, in lexicographic order.
const std::array<std::array<std::uint8_t, 4>, 24>& npn_permutations();

}  // namespace mvf::logic
