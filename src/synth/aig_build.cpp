#include "synth/aig_build.hpp"

#include <cassert>
#include <vector>

#include "logic/isop.hpp"

namespace mvf::synth {

using logic::FactorKind;
using logic::FactorNode;
using logic::FactorTree;
using logic::TruthTable;
using net::Aig;
using net::Lit;

namespace {

Lit build_factor_node(const FactorTree& tree, int idx,
                      std::span<const Lit> inputs, Aig* aig) {
    const FactorNode& n = tree.node(idx);
    switch (n.kind) {
        case FactorKind::kConst0:
            return Aig::kConst0;
        case FactorKind::kConst1:
            return Aig::kConst1;
        case FactorKind::kLiteral: {
            const Lit l = inputs[static_cast<std::size_t>(n.var)];
            return n.negated ? Aig::lit_not(l) : l;
        }
        case FactorKind::kAnd: {
            std::vector<Lit> terms;
            terms.reserve(n.children.size());
            for (const int c : n.children) {
                terms.push_back(build_factor_node(tree, c, inputs, aig));
            }
            return aig->and_many(terms);
        }
        case FactorKind::kOr: {
            std::vector<Lit> terms;
            terms.reserve(n.children.size());
            for (const int c : n.children) {
                terms.push_back(build_factor_node(tree, c, inputs, aig));
            }
            return aig->or_many(terms);
        }
    }
    assert(false);
    return Aig::kConst0;
}

}  // namespace

Lit build_factored(const FactorTree& tree, std::span<const Lit> inputs,
                   Aig* aig) {
    return build_factor_node(tree, tree.root(), inputs, aig);
}

FactoredCone derive_cone(const TruthTable& function) {
    FactoredCone cone;
    const logic::Sop cover = logic::isop_best_polarity(function, &cone.complemented);
    cone.tree = FactorTree::from_sop(cover);
    return cone;
}

Lit instantiate_cone(const FactoredCone& cone, std::span<const Lit> inputs, Aig* aig) {
    const Lit out = build_factored(cone.tree, inputs, aig);
    return cone.complemented ? Aig::lit_not(out) : out;
}

Lit build_from_tt(const TruthTable& function, std::span<const Lit> inputs,
                  Aig* aig) {
    assert(static_cast<int>(inputs.size()) == function.num_vars());
    return instantiate_cone(derive_cone(function), inputs, aig);
}

Lit build_mux_tree(std::span<const Lit> selects, std::span<const Lit> data,
                   Aig* aig) {
    assert(data.size() == (std::size_t{1} << selects.size()));
    if (selects.empty()) return data[0];
    std::vector<Lit> layer(data.begin(), data.end());
    for (std::size_t s = 0; s < selects.size(); ++s) {
        std::vector<Lit> next(layer.size() / 2);
        for (std::size_t i = 0; i < next.size(); ++i) {
            next[i] = aig->mux(selects[s], layer[2 * i + 1], layer[2 * i]);
        }
        layer = std::move(next);
    }
    return layer[0];
}

}  // namespace mvf::synth
