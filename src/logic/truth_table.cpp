#include "logic/truth_table.hpp"

#include <cassert>
#include <cstdio>

namespace mvf::logic {
namespace {

// Magic masks for variables living inside a single 64-bit word.
constexpr std::uint64_t kVarMask[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
    assert(num_vars >= 0 && num_vars <= 16);
    if (num_vars > kInlineVars) large_.assign(std::size_t{1} << (num_vars - 6), 0);
}

TruthTable TruthTable::ones(int num_vars) {
    TruthTable t(num_vars);
    for (auto& w : t.words()) w = ~0ull;
    t.normalize();
    return t;
}

TruthTable TruthTable::var(int var, int num_vars) {
    assert(var >= 0 && var < num_vars);
    TruthTable t(num_vars);
    if (var < 6) {
        for (auto& w : t.words()) w = kVarMask[var];
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t i = 0; i < t.large_.size(); ++i) {
            if ((i / stride) & 1) t.large_[i] = ~0ull;
        }
    }
    t.normalize();
    return t;
}

TruthTable TruthTable::from_u64(int num_vars, std::uint64_t bits) {
    assert(num_vars <= 6);
    TruthTable t(num_vars);
    t.small_ = bits;
    t.normalize();
    return t;
}

TruthTable TruthTable::from_function(
    int num_vars, const std::function<bool(std::uint32_t)>& f) {
    TruthTable t(num_vars);
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) t.set_bit(m, f(m));
    return t;
}

bool TruthTable::bit(std::uint32_t minterm) const {
    return (words()[minterm >> 6] >> (minterm & 63)) & 1;
}

void TruthTable::set_bit(std::uint32_t minterm, bool value) {
    const std::uint64_t mask = 1ull << (minterm & 63);
    std::uint64_t& w = words()[minterm >> 6];
    if (value)
        w |= mask;
    else
        w &= ~mask;
}

bool TruthTable::is_zero() const {
    for (const auto w : words())
        if (w) return false;
    return true;
}

bool TruthTable::is_ones() const { return *this == ones(num_vars_); }

int TruthTable::count_ones() const {
    int n = 0;
    for (const auto w : words()) n += __builtin_popcountll(w);
    return n;
}

TruthTable TruthTable::operator~() const {
    TruthTable t(*this);
    for (auto& w : t.words()) w = ~w;
    t.normalize();
    return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
    TruthTable t(*this);
    return t &= o;
}
TruthTable TruthTable::operator|(const TruthTable& o) const {
    TruthTable t(*this);
    return t |= o;
}
TruthTable TruthTable::operator^(const TruthTable& o) const {
    TruthTable t(*this);
    return t ^= o;
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
    assert(num_vars_ == o.num_vars_);
    const std::span<std::uint64_t> w = words();
    const std::span<const std::uint64_t> v = o.words();
    for (std::size_t i = 0; i < w.size(); ++i) w[i] &= v[i];
    return *this;
}
TruthTable& TruthTable::operator|=(const TruthTable& o) {
    assert(num_vars_ == o.num_vars_);
    const std::span<std::uint64_t> w = words();
    const std::span<const std::uint64_t> v = o.words();
    for (std::size_t i = 0; i < w.size(); ++i) w[i] |= v[i];
    return *this;
}
TruthTable& TruthTable::operator^=(const TruthTable& o) {
    assert(num_vars_ == o.num_vars_);
    const std::span<std::uint64_t> w = words();
    const std::span<const std::uint64_t> v = o.words();
    for (std::size_t i = 0; i < w.size(); ++i) w[i] ^= v[i];
    return *this;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
    assert(var >= 0 && var < num_vars_);
    TruthTable t(*this);
    if (var < 6) {
        const int shift = 1 << var;
        const std::uint64_t mask = kVarMask[var];
        for (auto& w : t.words()) {
            if (value)
                w = (w & mask) | ((w & mask) >> shift);
            else
                w = (w & ~mask) | ((w & ~mask) << shift);
        }
    } else {
        const std::size_t stride = std::size_t{1} << (var - 6);
        for (std::size_t i = 0; i < t.large_.size(); ++i) {
            const bool hi = (i / stride) & 1;
            if (hi != value) {
                const std::size_t src = value ? i + stride : i - stride;
                t.large_[i] = t.large_[src];
            }
        }
    }
    t.normalize();
    return t;
}

bool TruthTable::depends_on(int var) const {
    return cofactor(var, false) != cofactor(var, true);
}

std::vector<int> TruthTable::support() const {
    std::vector<int> vars;
    for (int v = 0; v < num_vars_; ++v)
        if (depends_on(v)) vars.push_back(v);
    return vars;
}

TruthTable TruthTable::permute(std::span<const int> perm) const {
    assert(static_cast<int>(perm.size()) == num_vars_);
    TruthTable t(num_vars_);
    for (std::uint32_t m = 0; m < num_bits(); ++m) {
        std::uint32_t src = 0;
        for (int j = 0; j < num_vars_; ++j) {
            if ((m >> perm[static_cast<std::size_t>(j)]) & 1) src |= 1u << j;
        }
        if (bit(src)) t.set_bit(m, true);
    }
    return t;
}

TruthTable TruthTable::extend(int new_num_vars) const {
    assert(new_num_vars >= num_vars_);
    TruthTable t(new_num_vars);
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) {
        if (bit(m & (num_bits() - 1))) t.set_bit(m, true);
    }
    return t;
}

TruthTable TruthTable::project(std::span<const int> vars) const {
    TruthTable t(static_cast<int>(vars.size()));
    for (std::uint32_t m = 0; m < t.num_bits(); ++m) {
        std::uint32_t src = 0;
        for (std::size_t j = 0; j < vars.size(); ++j) {
            if ((m >> j) & 1) src |= 1u << vars[j];
        }
        if (bit(src)) t.set_bit(m, true);
    }
    return t;
}

std::size_t TruthTable::hash() const {
    std::size_t h = static_cast<std::size_t>(num_vars_) * 0x9e3779b97f4a7c15ull;
    for (const auto w : words()) {
        h ^= w + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return h;
}

std::string TruthTable::to_hex() const {
    std::string out;
    char buf[20];
    const int digits = num_vars_ <= 2 ? 1 : (1 << (num_vars_ - 2));
    const std::span<const std::uint64_t> w = words();
    for (auto it = w.rbegin(); it != w.rend(); ++it) {
        const int d = w.size() == 1 ? digits : 16;
        std::snprintf(buf, sizeof buf, "%0*llx", d,
                      static_cast<unsigned long long>(*it));
        out += buf;
    }
    return out;
}

void TruthTable::normalize() {
    if (num_vars_ < 6) small_ &= (1ull << (1 << num_vars_)) - 1;
}

}  // namespace mvf::logic
