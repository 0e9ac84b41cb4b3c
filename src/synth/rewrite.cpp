#include "synth/rewrite.hpp"

#include <array>
#include <cassert>
#include <unordered_map>

#include "logic/truth_table.hpp"
#include "synth/aig_build.hpp"
#include "synth/replace.hpp"

namespace mvf::synth {

using logic::NpnManager;
using logic::NpnRebuildWiring;
using net::Aig;
using net::Cut;
using net::CutSet;
using net::Lit;

const RewriteLibrary::Entry& RewriteLibrary::structure_for(std::uint16_t canon_tt) {
    return memo_.get(canon_tt, [canon_tt] {
        logic::TruthTable f(4);
        for (std::uint32_t m = 0; m < 16; ++m) {
            if ((canon_tt >> m) & 1) f.set_bit(m, true);
        }
        auto aig = std::make_shared<Aig>(4);
        const std::array<Lit, 4> inputs{aig->pi(0), aig->pi(1), aig->pi(2),
                                        aig->pi(3)};
        Entry entry;
        entry.out = build_from_tt(f, inputs, aig.get());
        aig->add_po(entry.out);
        entry.num_ands = aig->count_live_ands();
        entry.structure = std::move(aig);
        return entry;
    });
}

int rewrite(Aig* aig, NpnManager& npn, RewriteLibrary& lib,
            const RewriteParams& params) {
    const int before = aig->count_live_ands();
    std::vector<int> refs = aig->reference_counts();
    const CutSet cuts(*aig, params.cuts);

    std::unordered_map<int, Replacement> decisions;
    std::vector<int> mffc_nodes;

    for (int n = aig->num_pis() + 1; n < aig->num_nodes(); ++n) {
        if (refs[static_cast<std::size_t>(n)] == 0) continue;  // dead
        const int min_gain = params.zero_gain ? 0 : 1;
        int best_gain = min_gain - 1;
        Replacement best;
        bool found = false;

        for (const Cut& cut : cuts.cuts_of(n)) {
            if (cut.size() == 1 && cut.leaves[0] == n) continue;  // trivial
            const logic::NpnEntry canon = npn.canonize(cut.function);
            const RewriteLibrary::Entry& entry = lib.structure_for(canon.canon);
            const NpnRebuildWiring wiring =
                NpnManager::rebuild_wiring(canon.transform);

            Replacement r;
            r.structure = entry.structure;
            r.structure_out = entry.out;
            r.output_negated = wiring.output_neg;
            r.leaf_of_input.assign(4, -1);
            r.input_negated.assign(4, false);
            for (int i = 0; i < 4; ++i) {
                const int leaf_pos = wiring.leaf_of_input[static_cast<std::size_t>(i)];
                if (leaf_pos < cut.size()) {
                    r.leaf_of_input[static_cast<std::size_t>(i)] =
                        cut.leaves[static_cast<std::size_t>(leaf_pos)];
                    r.input_negated[static_cast<std::size_t>(i)] =
                        wiring.leaf_negated[static_cast<std::size_t>(i)];
                }
            }

            const int mffc = mffc_size(*aig, n, cut.leaves, refs, &mffc_nodes);
            const int added = count_new_nodes(*aig, r, mffc_nodes);
            const int gain = mffc - added;
            if (gain >= min_gain && gain > best_gain) {
                best_gain = gain;
                best = std::move(r);
                found = true;
            }
        }
        if (found) decisions.emplace(n, std::move(best));
    }

    if (!decisions.empty()) {
        *aig = apply_replacements(*aig, decisions).cleanup();
    }
    return before - aig->count_live_ands();
}

}  // namespace mvf::synth
