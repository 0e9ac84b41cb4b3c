#include "logic/npn.hpp"

#include <algorithm>

namespace mvf::logic {
namespace {

std::array<std::array<std::uint8_t, 4>, 24> make_permutations() {
    std::array<std::array<std::uint8_t, 4>, 24> perms{};
    std::array<std::uint8_t, 4> p{{0, 1, 2, 3}};
    int i = 0;
    do {
        perms[static_cast<std::size_t>(i++)] = p;
    } while (std::next_permutation(p.begin(), p.end()));
    return perms;
}

// Packed entry: canon in bits 0-15, perm[j] in bits 16+2j..17+2j,
// input_neg in bits 24-27, output_neg in bit 28, valid flag in bit 31.
constexpr std::uint32_t kValid = 1u << 31;

std::uint32_t pack(const NpnEntry& e) {
    std::uint32_t w = e.canon;
    for (int j = 0; j < 4; ++j) {
        w |= static_cast<std::uint32_t>(e.transform.perm[static_cast<std::size_t>(j)])
             << (16 + 2 * j);
    }
    w |= static_cast<std::uint32_t>(e.transform.input_neg) << 24;
    w |= static_cast<std::uint32_t>(e.transform.output_neg) << 28;
    return w | kValid;
}

NpnEntry unpack(std::uint32_t w) {
    NpnEntry e;
    e.canon = static_cast<std::uint16_t>(w);
    for (int j = 0; j < 4; ++j) {
        e.transform.perm[static_cast<std::size_t>(j)] =
            static_cast<std::uint8_t>((w >> (16 + 2 * j)) & 3);
    }
    e.transform.input_neg = static_cast<std::uint8_t>((w >> 24) & 0xf);
    e.transform.output_neg = ((w >> 28) & 1) != 0;
    return e;
}

}  // namespace

const std::array<std::array<std::uint8_t, 4>, 24>& NpnManager::permutations() {
    static const auto perms = make_permutations();
    return perms;
}

NpnManager::NpnManager()
    : table_(std::make_unique<std::atomic<std::uint32_t>[]>(1u << 16)) {}

std::uint16_t NpnManager::apply(std::uint16_t tt, const NpnTransform& t) {
    std::uint16_t out = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t y = 0;
        for (int j = 0; j < 4; ++j) {
            const std::uint32_t bit =
                ((m >> t.perm[static_cast<std::size_t>(j)]) & 1) ^
                ((t.input_neg >> j) & 1);
            y |= bit << j;
        }
        std::uint32_t value = (tt >> y) & 1;
        value ^= t.output_neg ? 1u : 0u;
        out |= static_cast<std::uint16_t>(value << m);
    }
    return out;
}

NpnEntry NpnManager::canonize(std::uint16_t tt) {
    const std::uint32_t memo = table_[tt].load(std::memory_order_relaxed);
    if (memo & kValid) return unpack(memo);

    NpnEntry best;
    best.canon = 0xffff;
    bool first = true;
    for (const auto& perm : permutations()) {
        for (std::uint8_t neg = 0; neg < 16; ++neg) {
            for (int out_neg = 0; out_neg < 2; ++out_neg) {
                NpnTransform t{perm, neg, out_neg != 0};
                const std::uint16_t candidate = apply(tt, t);
                if (first || candidate < best.canon) {
                    best.canon = candidate;
                    best.transform = t;
                    first = false;
                }
            }
        }
    }
    table_[tt].store(pack(best), std::memory_order_relaxed);
    return best;
}

NpnRebuildWiring NpnManager::rebuild_wiring(const NpnTransform& t) {
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
