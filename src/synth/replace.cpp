#include "synth/replace.hpp"

#include <algorithm>
#include <cassert>

namespace mvf::synth {

using net::Aig;
using net::Lit;

std::vector<int> reachable_nodes(const Aig& structure, Lit out) {
    std::vector<bool> seen(static_cast<std::size_t>(structure.num_nodes()), false);
    std::vector<int> stack{Aig::lit_node(out)};
    while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        if (seen[static_cast<std::size_t>(n)]) continue;
        seen[static_cast<std::size_t>(n)] = true;
        if (structure.is_and(n)) {
            stack.push_back(Aig::lit_node(structure.fanin0(n)));
            stack.push_back(Aig::lit_node(structure.fanin1(n)));
        }
    }
    std::vector<int> order;
    for (int n = 0; n < structure.num_nodes(); ++n) {
        if (seen[static_cast<std::size_t>(n)]) order.push_back(n);
    }
    return order;
}

int mffc_size(const Aig& aig, int root, std::span<const int> leaves,
              std::vector<int>& refs, std::vector<int>* mffc_nodes) {
    const auto inside = [&aig, leaves](int node) {
        return aig.is_and(node) &&
               std::find(leaves.begin(), leaves.end(), node) == leaves.end();
    };
    std::vector<int> local;
    std::vector<int>& collected = mffc_nodes ? *mffc_nodes : local;
    collected.clear();
    const auto deref = [&](auto&& self, int node) -> int {
        collected.push_back(node);
        int count = 1;
        for (const Lit f : {aig.fanin0(node), aig.fanin1(node)}) {
            const int child = Aig::lit_node(f);
            if (!inside(child)) continue;
            if (--refs[static_cast<std::size_t>(child)] == 0) {
                count += self(self, child);
            }
        }
        return count;
    };
    const int size = deref(deref, root);

    // Restore the reference counts touched above.
    for (const int node : collected) {
        for (const Lit f : {aig.fanin0(node), aig.fanin1(node)}) {
            const int child = Aig::lit_node(f);
            if (inside(child)) ++refs[static_cast<std::size_t>(child)];
        }
    }
    return size;
}

int count_new_nodes(const Aig& aig, const Replacement& r,
                    std::span<const int> mffc_nodes, std::vector<Lit>& mapped) {
    const Aig& s = *r.structure;
    mapped.resize(static_cast<std::size_t>(s.num_nodes()));  // keeps its capacity
    const auto freed = [mffc_nodes](Lit hit) {
        return std::find(mffc_nodes.begin(), mffc_nodes.end(), Aig::lit_node(hit)) !=
               mffc_nodes.end();
    };

    // Only entries of structure_order are written and read.
    int new_count = 0;
    for (const int n : r.structure_order) {
        Lit& slot = mapped[static_cast<std::size_t>(n)];
        if (!s.is_and(n)) {
            if (n == 0) {
                slot = Aig::kConst0;
                continue;
            }
            const int leaf = r.leaf_of_input[static_cast<std::size_t>(n - 1)];
            assert(leaf >= 0 && "structure reads an unmapped input");
            slot = Aig::make_lit(leaf, r.input_negated[static_cast<std::size_t>(n - 1)]);
            continue;
        }
        const auto resolve = [&](Lit f) {
            const Lit base = mapped[static_cast<std::size_t>(Aig::lit_node(f))];
            if (base == Aig::kNoLit) return Aig::kNoLit;
            return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
        };
        const Lit a = resolve(s.fanin0(n));
        const Lit b = resolve(s.fanin1(n));
        // A node over a new node is new itself, and stays unmapped.
        const Lit hit = a == Aig::kNoLit || b == Aig::kNoLit ? Aig::kNoLit
                                                             : aig.lookup_and(a, b);
        if (hit == Aig::kNoLit || freed(hit)) {
            ++new_count;
            slot = Aig::kNoLit;
        } else {
            slot = hit;
        }
    }
    return new_count;
}

Aig apply_replacements(const Aig& aig,
                       const std::unordered_map<int, Replacement>& decisions) {
    Aig out(aig.num_pis());
    std::vector<Lit> copy(static_cast<std::size_t>(aig.num_nodes()), Aig::kNoLit);
    copy[0] = Aig::kConst0;
    for (int i = 0; i < aig.num_pis(); ++i) {
        copy[static_cast<std::size_t>(i + 1)] = out.pi(i);
    }

    std::vector<Lit> mapped;  // structure node -> new literal
    const auto materialize = [&](auto&& self, int node) -> Lit {
        Lit& memo = copy[static_cast<std::size_t>(node)];
        if (memo != Aig::kNoLit) return memo;

        const auto it = decisions.find(node);
        if (it == decisions.end()) {
            const auto resolve = [&](Lit f) {
                const Lit base = self(self, Aig::lit_node(f));
                return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
            };
            memo = out.and2(resolve(aig.fanin0(node)), resolve(aig.fanin1(node)));
            return memo;
        }

        // Materialize the leaves first (this may recurse into other
        // decisions), then instantiate the structure without recursing, so
        // one scratch array serves every decision.
        const Replacement& r = it->second;
        const Aig& s = *r.structure;
        for (const int sn : r.structure_order) {
            if (s.is_pi(sn)) {
                const int leaf = r.leaf_of_input[static_cast<std::size_t>(sn - 1)];
                assert(leaf >= 0 && "structure reads an unmapped input");
                self(self, leaf);
            }
        }
        mapped.resize(static_cast<std::size_t>(s.num_nodes()));
        for (const int sn : r.structure_order) {
            Lit& slot = mapped[static_cast<std::size_t>(sn)];
            if (sn == 0) {
                slot = Aig::kConst0;
            } else if (s.is_pi(sn)) {
                const Lit l = copy[static_cast<std::size_t>(
                    r.leaf_of_input[static_cast<std::size_t>(sn - 1)])];
                slot = r.input_negated[static_cast<std::size_t>(sn - 1)] ? Aig::lit_not(l) : l;
            } else {
                const auto resolve = [&](Lit f) {
                    const Lit base = mapped[static_cast<std::size_t>(Aig::lit_node(f))];
                    return Aig::lit_complemented(f) ? Aig::lit_not(base) : base;
                };
                slot = out.and2(resolve(s.fanin0(sn)), resolve(s.fanin1(sn)));
            }
        }
        Lit result = mapped[static_cast<std::size_t>(Aig::lit_node(r.structure_out))];
        if (Aig::lit_complemented(r.structure_out)) result = Aig::lit_not(result);
        if (r.output_negated) result = Aig::lit_not(result);
        memo = result;
        return memo;
    };

    for (int i = 0; i < aig.num_pos(); ++i) {
        const Lit po = aig.po(i);
        const Lit base = materialize(materialize, Aig::lit_node(po));
        out.add_po(Aig::lit_complemented(po) ? Aig::lit_not(base) : base);
    }
    return out;
}

}  // namespace mvf::synth
