#include "synth/optimize.hpp"

#include "synth/balance.hpp"
#include "synth/refactor.hpp"
#include "synth/rewrite.hpp"

namespace mvf::synth {

using net::Aig;

int optimize(Aig* aig, Effort effort) {
    const int max_rounds = effort == Effort::kFast ? 2
                           : effort == Effort::kDefault ? 3
                                                        : 5;
    Aig best = aig->cleanup();
    int best_size = best.num_ands();
    for (int round = 0; round < max_rounds; ++round) {
        *aig = balance(*aig);
        rewrite(aig);
        if (effort != Effort::kFast) {
            refactor(aig);
            *aig = balance(*aig);
            rewrite(aig);
        }
        if (effort == Effort::kHigh) {
            // Zero-gain perturbation can climb out of local minima but may
            // also regress; the best-seen snapshot below protects the result.
            RewriteParams zero;
            zero.zero_gain = true;
            rewrite(aig, zero);
            rewrite(aig);
        }
        const int now = aig->count_live_ands();
        if (now < best_size) {
            best = aig->cleanup();
            best_size = best.num_ands();
        } else if (round > 0) {
            break;
        }
    }
    *aig = std::move(best);
    return aig->num_ands();
}

}  // namespace mvf::synth
