#include "inputs.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t sub_seed(std::uint64_t seed, int index) {
    const std::uint64_t h = mix64(mix64(seed) + static_cast<std::uint64_t>(index));
    return (h & 0x7fffffffull) | 1ull;
}

namespace {

struct Gate {
    enum class Op { kAnd, kXor, kMaj };
    Op op;
    std::vector<int> in;  ///< net ids
    int out;
};

}  // namespace

std::string multiplier_blif(int width, std::uint64_t seed) {
    // Nets 0..2w-1 are the PIs (a then b); later nets are gate outputs.
    int next_net = 2 * width;
    std::vector<Gate> gates;
    const auto emit = [&](Gate::Op op, std::vector<int> in) {
        gates.push_back({op, std::move(in), next_net});
        return next_net++;
    };
    std::vector<std::vector<int>> pp(static_cast<std::size_t>(width),
                                     std::vector<int>(static_cast<std::size_t>(width)));
    for (int i = 0; i < width; ++i) {
        for (int j = 0; j < width; ++j) {
            pp[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
                emit(Gate::Op::kAnd, {i, width + j});
        }
    }
    // Row-by-row ripple accumulation; acc[j] has weight i + j.
    std::vector<int> product;
    std::vector<int> acc(pp[0].begin(), pp[0].end());
    product.push_back(acc.front());
    acc.erase(acc.begin());
    for (int i = 1; i < width; ++i) {
        std::vector<int> next;
        int carry = -1;
        for (int j = 0; j < width; ++j) {
            std::vector<int> terms = {pp[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]};
            if (j < static_cast<int>(acc.size())) terms.push_back(acc[static_cast<std::size_t>(j)]);
            if (carry >= 0) terms.push_back(carry);
            if (terms.size() == 1) {
                next.push_back(terms[0]);
                carry = -1;
            } else if (terms.size() == 2) {
                next.push_back(emit(Gate::Op::kXor, terms));
                carry = emit(Gate::Op::kAnd, terms);
            } else {
                const int t = emit(Gate::Op::kXor, {terms[0], terms[1]});
                next.push_back(emit(Gate::Op::kXor, {t, terms[2]}));
                carry = emit(Gate::Op::kMaj, terms);
            }
        }
        next.push_back(carry);
        product.push_back(next.front());
        acc.assign(next.begin() + 1, next.end());
    }
    product.insert(product.end(), acc.begin(), acc.end());

    // Seeded names for the internal nets and a seeded topological order.
    std::uint64_t state = mix64(seed ^ 0x6d756c74ull);
    const auto draw = [&state](std::uint64_t bound) {
        state = mix64(state);
        return state % bound;
    };
    std::vector<int> label(static_cast<std::size_t>(next_net));
    for (int n = 0; n < next_net; ++n) label[static_cast<std::size_t>(n)] = n;
    for (int n = next_net - 1; n > 2 * width; --n) {
        const int m = 2 * width + static_cast<int>(draw(static_cast<std::uint64_t>(n - 2 * width + 1)));
        std::swap(label[static_cast<std::size_t>(n)], label[static_cast<std::size_t>(m)]);
    }
    const auto net_name = [&](int n) {
        if (n < width) return "a" + std::to_string(n);
        if (n < 2 * width) return "b" + std::to_string(n - width);
        return "n" + std::to_string(label[static_cast<std::size_t>(n)]);
    };

    std::vector<int> gate_of(static_cast<std::size_t>(next_net), -1);
    for (std::size_t g = 0; g < gates.size(); ++g) gate_of[static_cast<std::size_t>(gates[g].out)] = static_cast<int>(g);
    std::vector<int> pending(gates.size(), 0);
    std::vector<std::vector<int>> fanout(gates.size());
    for (std::size_t g = 0; g < gates.size(); ++g) {
        for (const int in : gates[g].in) {
            const int src = gate_of[static_cast<std::size_t>(in)];
            if (src < 0) continue;
            ++pending[g];
            fanout[static_cast<std::size_t>(src)].push_back(static_cast<int>(g));
        }
    }
    std::vector<int> ready;
    for (std::size_t g = 0; g < gates.size(); ++g) {
        if (pending[g] == 0) ready.push_back(static_cast<int>(g));
    }

    std::ostringstream out;
    out << ".model mult" << width << "x" << width << "\n.inputs";
    for (int n = 0; n < 2 * width; ++n) out << ' ' << net_name(n);
    out << "\n.outputs";
    for (int q = 0; q < 2 * width; ++q) out << " p" << q;
    out << '\n';
    while (!ready.empty()) {
        const std::size_t pick = static_cast<std::size_t>(draw(ready.size()));
        const int g = ready[pick];
        ready[pick] = ready.back();
        ready.pop_back();
        const Gate& gate = gates[static_cast<std::size_t>(g)];
        out << ".names";
        for (const int in : gate.in) out << ' ' << net_name(in);
        out << ' ' << net_name(gate.out) << '\n';
        switch (gate.op) {
            case Gate::Op::kAnd: out << "11 1\n"; break;
            case Gate::Op::kXor: out << "10 1\n01 1\n"; break;
            case Gate::Op::kMaj: out << "11- 1\n1-1 1\n-11 1\n"; break;
        }
        for (const int succ : fanout[static_cast<std::size_t>(g)]) {
            if (--pending[static_cast<std::size_t>(succ)] == 0) ready.push_back(succ);
        }
    }
    for (int q = 0; q < 2 * width; ++q) {
        out << ".names " << net_name(product[static_cast<std::size_t>(q)]) << " p" << q
            << "\n1 1\n";
    }
    out << ".end\n";
    return out.str();
}

}  // namespace perfbench
