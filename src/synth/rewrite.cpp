#include "synth/rewrite.hpp"

#include <array>
#include <cassert>
#include <unordered_map>

#include "logic/npn.hpp"
#include "logic/truth_table.hpp"
#include "synth/aig_build.hpp"
#include "synth/replace.hpp"

namespace mvf::synth {

using logic::NpnRebuildWiring;
using net::Aig;
using net::Cut;
using net::CutSet;
using net::Lit;

namespace {

std::vector<RewriteStructure> build_structures() {
    std::vector<RewriteStructure> all;
    all.reserve(logic::npn_classes().size());
    for (const std::uint16_t canon : logic::npn_classes()) {
        logic::TruthTable f(4);
        for (std::uint32_t m = 0; m < 16; ++m) {
            if ((canon >> m) & 1) f.set_bit(m, true);
        }
        RewriteStructure& s = all.emplace_back();
        Aig& aig = s.structure;
        const std::array<Lit, 4> inputs{aig.pi(0), aig.pi(1), aig.pi(2), aig.pi(3)};
        s.out = build_from_tt(f, inputs, &aig);
        aig.add_po(s.out);
        s.num_ands = aig.count_live_ands();
        s.order = reachable_nodes(aig, s.out);
    }
    return all;
}

}  // namespace

const RewriteStructure& rewrite_structure(int class_id) {
    static const std::vector<RewriteStructure> all = build_structures();
    return all[static_cast<std::size_t>(class_id)];
}

int rewrite(Aig* aig, const RewriteParams& params) {
    const int before = aig->count_live_ands();
    std::vector<int> refs = aig->reference_counts();
    const CutSet cuts(*aig, params.cuts);

    std::unordered_map<int, Replacement> decisions;
    // Scratch reused from cut to cut: the candidate, the best so far, the
    // MFFC members and the structure replay.
    Replacement r;
    Replacement best;
    r.leaf_of_input.resize(4);
    r.input_negated.resize(4);
    std::vector<int> mffc_nodes;
    std::vector<Lit> mapped;

    for (int n = aig->num_pis() + 1; n < aig->num_nodes(); ++n) {
        if (refs[static_cast<std::size_t>(n)] == 0) continue;  // dead
        const int min_gain = params.zero_gain ? 0 : 1;
        int best_gain = min_gain - 1;
        bool found = false;

        for (const Cut& cut : cuts.cuts_of(n)) {
            if (cut.size() == 1 && cut.leaf_ids[0] == n) continue;  // trivial
            const logic::NpnEntry canon = logic::npn_canonize(cut.function);
            const RewriteStructure& entry = rewrite_structure(canon.class_id);
            const NpnRebuildWiring wiring = logic::npn_rebuild_wiring(canon.transform);

            r.structure = &entry.structure;
            r.structure_out = entry.out;
            r.structure_order = entry.order;
            r.output_negated = wiring.output_neg;
            for (std::size_t i = 0; i < 4; ++i) {
                const int leaf_pos = wiring.leaf_of_input[i];
                const bool used = leaf_pos < cut.size();
                r.leaf_of_input[i] =
                    used ? cut.leaf_ids[static_cast<std::size_t>(leaf_pos)] : -1;
                r.input_negated[i] = used && wiring.leaf_negated[i];
            }

            const int mffc = mffc_size(*aig, n, cut.leaves(), refs, &mffc_nodes);
            const int added = count_new_nodes(*aig, r, mffc_nodes, mapped);
            const int gain = mffc - added;
            if (gain >= min_gain && gain > best_gain) {
                best_gain = gain;
                best = r;
                found = true;
            }
        }
        if (found) decisions.emplace(n, best);
    }

    if (!decisions.empty()) {
        *aig = apply_replacements(*aig, decisions).cleanup();
    }
    return before - aig->count_live_ands();
}

}  // namespace mvf::synth
