#pragma once
// DAG-aware NPN cut rewriting (ABC `rewrite` analogue).
//
// Every 4-feasible cut is classified by exact NPN canonization; a memoized
// library provides one optimized replacement structure per canonical class
// (dual-polarity ISOP + algebraic factoring).  A cut is rewritten when the
// structure adds fewer nodes than the cut's MFFC frees.  Rewriting is the
// main engine for discovering logic sharing across merged viable functions.

#include <cstdint>
#include <memory>

#include "logic/npn.hpp"
#include "net/aig.hpp"
#include "net/cuts.hpp"
#include "util/memo16.hpp"

namespace mvf::synth {

/// Memoized canonical-class -> replacement-structure table.  Share one
/// instance across all rewriting calls of a run; concurrent calls are safe.
class RewriteLibrary {
public:
    struct Entry {
        std::shared_ptr<const net::Aig> structure;  ///< over 4 PIs
        net::Lit out = 0;
        int num_ands = 0;
    };

    /// Best known structure for a canonical 4-variable function.
    const Entry& structure_for(std::uint16_t canon_tt);

private:
    util::Memo16<Entry> memo_;
};

struct RewriteParams {
    net::CutParams cuts{4, 8, true};
    /// Accept replacements of equal size (structure perturbation).
    bool zero_gain = false;
};

/// One rewriting pass; returns the number of AND nodes saved.
int rewrite(net::Aig* aig, logic::NpnManager& npn, RewriteLibrary& lib,
            const RewriteParams& params = {});

}  // namespace mvf::synth
