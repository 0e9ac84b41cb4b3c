#pragma once
// DAG-aware NPN cut rewriting (ABC `rewrite` analogue).
//
// Every 4-feasible cut is classified by exact NPN canonization; a process-
// wide table provides one optimized replacement structure per canonical
// class (dual-polarity ISOP + algebraic factoring).  A cut is rewritten when
// the structure adds fewer nodes than the cut's MFFC frees.  Rewriting is
// the main engine for discovering logic sharing across merged viable
// functions.

#include <vector>

#include "net/aig.hpp"
#include "net/cuts.hpp"

namespace mvf::synth {

/// The replacement structure of one NPN class.
struct RewriteStructure {
    net::Aig structure{4};  ///< over 4 PIs
    net::Lit out = 0;
    int num_ands = 0;
    /// Structure nodes reachable from `out`, in topological order.
    std::vector<int> order;
};

/// The structure of NPN class `class_id` (an index into
/// logic::npn_classes()).  All 222 structures are built together on first
/// use, then shared read-only by every thread.
const RewriteStructure& rewrite_structure(int class_id);

struct RewriteParams {
    net::CutParams cuts{4, 8, true};
    /// Accept replacements of equal size (structure perturbation).
    bool zero_gain = false;
};

/// One rewriting pass; returns the number of AND nodes saved.
int rewrite(net::Aig* aig, const RewriteParams& params = {});

}  // namespace mvf::synth
