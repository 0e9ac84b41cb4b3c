#include "camo/inject.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mvf::camo {

using tech::Netlist;

bool inject_policy_from_name(const std::string& name, InjectPolicy* policy) {
    if (name == "random") {
        *policy = InjectPolicy::kRandom;
    } else if (name == "fanout") {
        *policy = InjectPolicy::kFanout;
    } else if (name == "depth") {
        *policy = InjectPolicy::kDepth;
    } else {
        return false;
    }
    return true;
}

const char* inject_policy_name(InjectPolicy policy) {
    switch (policy) {
        case InjectPolicy::kRandom:
            return "random";
        case InjectPolicy::kFanout:
            return "fanout";
        case InjectPolicy::kDepth:
            return "depth";
    }
    return "?";
}

LookAlike look_alike(const Netlist& mapped, const CamoLibrary& library) {
    assert(mapped.num_selects() == 0);
    LookAlike la{CamoNetlist(library), {}, {}, {}};
    CamoNetlist& out = la.netlist;
    std::vector<int> node_map(static_cast<std::size_t>(mapped.num_nodes()), -1);
    for (int id = 0; id < mapped.num_nodes(); ++id) {
        const Netlist::Node& n = mapped.node(id);
        CamoNetlist::Node inst;
        inst.kind = CamoNetlist::NodeKind::kCell;
        switch (n.kind) {
            case Netlist::NodeKind::kPi:
                node_map[static_cast<std::size_t>(id)] = out.add_pi(n.name);
                la.fixed_nominal.push_back(false);
                continue;
            case Netlist::NodeKind::kConst0:
            case Netlist::NodeKind::kConst1:
                inst.camo_cell_id = library.tie_id();
                inst.config_fn = {n.kind == Netlist::NodeKind::kConst1 ? 1 : 0};
                break;
            case Netlist::NodeKind::kCell: {
                const int camo_id = library.camo_of_nominal(n.cell_id);
                if (camo_id < 0) {
                    throw std::runtime_error(
                        "camo::look_alike: library has no camouflaged variant "
                        "of cell \"" +
                        mapped.library().cell(n.cell_id).name + "\"");
                }
                inst.camo_cell_id = camo_id;
                inst.fanins.reserve(n.fanins.size());
                for (const int f : n.fanins) {
                    inst.fanins.push_back(node_map[static_cast<std::size_t>(f)]);
                }
                inst.used_pin_mask =
                    (1u << library.cell(camo_id).num_pins) - 1;
                inst.config_fn = {0};  // plausible[0] is the nominal function
                break;
            }
        }
        const int nid = out.add_cell(std::move(inst));
        node_map[static_cast<std::size_t>(id)] = nid;
        la.fixed_nominal.push_back(true);
        la.candidates.push_back(nid);
        la.candidate_orig.push_back(id);
    }
    for (int i = 0; i < mapped.num_pos(); ++i) {
        out.add_po(node_map[static_cast<std::size_t>(mapped.po(i))],
                   mapped.po_name(i));
    }
    return la;
}

InjectResult inject(const Netlist& mapped, const CamoLibrary& library,
                    const InjectParams& params) {
    // Candidates are every cell, constants included: a TIE the attacker
    // cannot read is genuine uncertainty.
    LookAlike la = look_alike(mapped, library);
    std::vector<bool>& fixed = la.fixed_nominal;
    const std::vector<int>& candidates = la.candidates;
    const std::vector<int>& candidate_orig = la.candidate_orig;

    // Pick the camouflage budget.
    const int total = static_cast<int>(candidates.size());
    int target;
    if (params.cells > 0) {
        target = std::min(params.cells, total);
    } else {
        target = static_cast<int>(
            std::llround(params.density * static_cast<double>(total)));
        if (params.density > 0.0 && total > 0) target = std::max(target, 1);
        target = std::min(target, total);
    }

    // Order candidates by policy; the first `target` get camouflaged.
    std::vector<int> order(candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<int>(i);
    }
    switch (params.policy) {
        case InjectPolicy::kRandom: {
            util::Rng rng(params.seed);
            rng.shuffle(std::span<int>(order));
            break;
        }
        case InjectPolicy::kFanout: {
            const std::vector<int> fanout = mapped.fanout_counts();
            std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
                const int fa = fanout[static_cast<std::size_t>(
                    candidate_orig[static_cast<std::size_t>(a)])];
                const int fb = fanout[static_cast<std::size_t>(
                    candidate_orig[static_cast<std::size_t>(b)])];
                return fa != fb ? fa > fb : a < b;
            });
            break;
        }
        case InjectPolicy::kDepth: {
            // Logic level per mapped node (PIs/consts at 0); topological
            // node order makes a single forward pass sufficient.
            std::vector<int> level(static_cast<std::size_t>(mapped.num_nodes()),
                                   0);
            for (int id = 0; id < mapped.num_nodes(); ++id) {
                const Netlist::Node& n = mapped.node(id);
                if (n.kind != Netlist::NodeKind::kCell) continue;
                int lv = 0;
                for (const int f : n.fanins) {
                    lv = std::max(lv, level[static_cast<std::size_t>(f)]);
                }
                level[static_cast<std::size_t>(id)] = lv + 1;
            }
            std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
                const int la = level[static_cast<std::size_t>(
                    candidate_orig[static_cast<std::size_t>(a)])];
                const int lb = level[static_cast<std::size_t>(
                    candidate_orig[static_cast<std::size_t>(b)])];
                return la != lb ? la > lb : a < b;
            });
            break;
        }
    }
    for (int k = 0; k < target; ++k) {
        const int nid = candidates[static_cast<std::size_t>(
            order[static_cast<std::size_t>(k)])];
        fixed[static_cast<std::size_t>(nid)] = false;
    }

    InjectResult result{std::move(la.netlist), std::move(fixed), {}, total};
    result.stats.area = result.netlist.area();
    result.stats.num_cells = target;
    result.stats.selects_eliminated = 0;
    double bits = 0.0;
    for (int id = 0; id < result.netlist.num_nodes(); ++id) {
        const CamoNetlist::Node& n = result.netlist.node(id);
        if (n.kind != CamoNetlist::NodeKind::kCell) continue;
        if (result.fixed_nominal[static_cast<std::size_t>(id)]) continue;
        bits += library.cell(n.camo_cell_id).config_bits();
    }
    result.stats.config_space_bits = bits;
    return result;
}

}  // namespace mvf::camo
