#include "logic/npn.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace mvf::logic {
namespace {

// Truth tables of the four variables in the 4-var space.
constexpr std::uint16_t kVarTT[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

std::array<std::array<std::uint8_t, 4>, 24> make_permutations() {
    std::array<std::array<std::uint8_t, 4>, 24> perms{};
    std::array<std::uint8_t, 4> p{{0, 1, 2, 3}};
    int i = 0;
    do {
        perms[static_cast<std::size_t>(i++)] = p;
    } while (std::next_permutation(p.begin(), p.end()));
    return perms;
}

// f(.., !x_j, ..).
std::uint16_t flip_var(std::uint16_t tt, int j) {
    const int shift = 1 << j;
    const std::uint32_t hi = kVarTT[j];
    return static_cast<std::uint16_t>(((tt & hi) >> shift) | ((tt & ~hi) << shift));
}

// Exchanges variables i < j.
std::uint16_t swap_vars(std::uint16_t tt, int i, int j) {
    const int shift = (1 << j) - (1 << i);
    const std::uint32_t up = kVarTT[j] & static_cast<std::uint16_t>(~kVarTT[i]);
    const std::uint32_t down = up >> shift;  // var i set, var j clear
    return static_cast<std::uint16_t>((tt & ~(up | down)) | ((tt & down) << shift) |
                                      ((tt & up) >> shift));
}

// Packed entry: class id in bits 0-7, perm[j] in bits 8+2j..9+2j, input_neg
// in bits 16-19, output_neg in bit 20.
constexpr std::uint32_t kUnset = ~0u;

std::uint32_t pack(std::size_t class_id, const NpnTransform& t) {
    std::uint32_t w = static_cast<std::uint32_t>(class_id);
    for (int j = 0; j < 4; ++j) {
        w |= static_cast<std::uint32_t>(t.perm[static_cast<std::size_t>(j)]) << (8 + 2 * j);
    }
    w |= static_cast<std::uint32_t>(t.input_neg) << 16;
    w |= static_cast<std::uint32_t>(t.output_neg) << 20;
    return w;
}

struct NpnTable {
    std::vector<std::uint32_t> entries;  ///< packed entry per truth table
    std::vector<std::uint16_t> classes;  ///< canonical form per class id
};

// Visits the truth tables in ascending order.  The first one not yet
// classified is the minimum of its orbit, hence its canonical form; walking
// the canonical form's inverse images in transform order classifies the
// whole orbit, each member under the first transform that maps it there.
NpnTable build_table() {
    // Every transform in canonization order, with its inverse.
    std::vector<NpnTransform> transforms;
    std::vector<NpnTransform> inverses;
    for (const auto& perm : npn_permutations()) {
        for (std::uint8_t neg = 0; neg < 16; ++neg) {
            for (int out_neg = 0; out_neg < 2; ++out_neg) {
                const NpnTransform t{perm, neg, out_neg != 0};
                const NpnRebuildWiring w = npn_rebuild_wiring(t);
                NpnTransform inv{w.leaf_of_input, 0, w.output_neg};
                for (int i = 0; i < 4; ++i) {
                    inv.input_neg |= static_cast<std::uint8_t>(
                        w.leaf_negated[static_cast<std::size_t>(i)] << i);
                }
                transforms.push_back(t);
                inverses.push_back(inv);
            }
        }
    }

    NpnTable table;
    table.entries.assign(std::size_t{1} << 16, kUnset);
    for (std::uint32_t c = 0; c < (1u << 16); ++c) {
        if (table.entries[c] != kUnset) continue;
        const std::size_t class_id = table.classes.size();
        table.classes.push_back(static_cast<std::uint16_t>(c));
        for (std::size_t k = 0; k < transforms.size(); ++k) {
            const std::uint16_t member =
                npn_apply(static_cast<std::uint16_t>(c), inverses[k]);
            if (table.entries[member] == kUnset) {
                table.entries[member] = pack(class_id, transforms[k]);
            }
        }
    }
    assert(table.classes.size() == 222);
    return table;
}

const NpnTable& table() {
    static const NpnTable t = build_table();
    return t;
}

}  // namespace

const std::array<std::array<std::uint8_t, 4>, 24>& npn_permutations() {
    static const auto perms = make_permutations();
    return perms;
}

std::uint16_t npn_apply(std::uint16_t tt, const NpnTransform& t) {
    // f1(z) = f(z ^ neg), then variable j of f1 moves to position perm[j].
    for (int j = 0; j < 4; ++j) {
        if ((t.input_neg >> j) & 1) tt = flip_var(tt, j);
    }
    std::array<int, 4> var_at{{0, 1, 2, 3}};  // variable of f1 at each position
    for (int pos = 0; pos < 4; ++pos) {
        int from = pos;
        while (t.perm[static_cast<std::size_t>(var_at[static_cast<std::size_t>(from)])] !=
               pos) {
            ++from;
        }
        if (from != pos) {
            tt = swap_vars(tt, pos, from);
            std::swap(var_at[static_cast<std::size_t>(pos)],
                      var_at[static_cast<std::size_t>(from)]);
        }
    }
    return t.output_neg ? static_cast<std::uint16_t>(~tt) : tt;
}

NpnEntry npn_canonize(std::uint16_t tt) {
    const NpnTable& t = table();
    const std::uint32_t w = t.entries[tt];
    NpnEntry e;
    e.class_id = static_cast<std::uint8_t>(w);
    e.canon = t.classes[e.class_id];
    for (int j = 0; j < 4; ++j) {
        e.transform.perm[static_cast<std::size_t>(j)] =
            static_cast<std::uint8_t>((w >> (8 + 2 * j)) & 3);
    }
    e.transform.input_neg = static_cast<std::uint8_t>((w >> 16) & 0xf);
    e.transform.output_neg = ((w >> 20) & 1) != 0;
    return e;
}

std::span<const std::uint16_t> npn_classes() { return table().classes; }

NpnRebuildWiring npn_rebuild_wiring(const NpnTransform& t) {
    // canon(x) = f(y), y_j = x_{perm[j]} ^ neg_j  and  f = canon after undo:
    // f(z) = canon(x) ^ out_neg  where  x_{perm[j]} = z_j ^ neg_j.
    // Hence structure (canonical) input i = perm[j] reads leaf j = perm^-1(i).
    NpnRebuildWiring w;
    for (int j = 0; j < 4; ++j) {
        const std::uint8_t i = t.perm[static_cast<std::size_t>(j)];
        w.leaf_of_input[i] = static_cast<std::uint8_t>(j);
        w.leaf_negated[i] = ((t.input_neg >> j) & 1) != 0;
    }
    w.output_neg = t.output_neg;
    return w;
}

}  // namespace mvf::logic
