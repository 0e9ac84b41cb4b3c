#include "map/tech_map.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace mvf::tech {

using net::Aig;
using net::Cut;
using net::CutSet;
using net::Lit;

std::vector<int> tt16_support(std::uint16_t tt, int k) {
    static constexpr std::uint16_t kMask[4] = {0x5555, 0x3333, 0x0f0f, 0x00ff};
    static constexpr int kShift[4] = {1, 2, 4, 8};
    std::vector<int> support;
    for (int v = 0; v < k; ++v) {
        const std::uint16_t lo = static_cast<std::uint16_t>(tt & kMask[v]);
        const std::uint16_t hi =
            static_cast<std::uint16_t>((tt >> kShift[v]) & kMask[v]);
        if (lo != hi) support.push_back(v);
    }
    return support;
}

namespace {

// Evaluates the function obtained by connecting cell pin p to variable
// vars[p] of the 4-var cut space, complemented per `neg_mask`.
std::uint16_t realize_tt(const logic::TruthTable& cell_fn, int num_pins,
                         const std::array<std::uint8_t, 4>& vars,
                         std::uint32_t neg_mask) {
    std::uint16_t out = 0;
    for (std::uint32_t m = 0; m < 16; ++m) {
        std::uint32_t pins = 0;
        for (int p = 0; p < num_pins; ++p) {
            const std::uint32_t bit =
                ((m >> vars[static_cast<std::size_t>(p)]) & 1) ^ ((neg_mask >> p) & 1);
            pins |= bit << p;
        }
        if (cell_fn.bit(pins)) out |= static_cast<std::uint16_t>(1u << m);
    }
    return out;
}

}  // namespace

const std::vector<CellMatch>& MatchCache::matches(std::uint16_t tt) {
    return memo_.get(tt, [this, tt] { return compute(tt); });
}

std::vector<CellMatch> MatchCache::compute(std::uint16_t tt) const {
    std::vector<CellMatch> result;
    const std::vector<int> support = tt16_support(tt, 4);
    const int k = static_cast<int>(support.size());
    for (int cell_id = 0; cell_id < lib_.num_cells(); ++cell_id) {
        const GateCell& cell = lib_.cell(cell_id);
        if (cell.num_inputs != k || k == 0) continue;
        std::vector<int> perm(support.begin(), support.end());
        do {
            std::array<std::uint8_t, 4> vars{};
            for (int p = 0; p < k; ++p) {
                vars[static_cast<std::size_t>(p)] =
                    static_cast<std::uint8_t>(perm[static_cast<std::size_t>(p)]);
            }
            for (std::uint32_t neg = 0; neg < (1u << k); ++neg) {
                if (realize_tt(cell.function, k, vars, neg) == tt) {
                    CellMatch m;
                    m.cell_id = cell_id;
                    for (int p = 0; p < k; ++p) {
                        m.pin_leaf_pos[static_cast<std::size_t>(p)] =
                            vars[static_cast<std::size_t>(p)];
                        m.pin_neg[static_cast<std::size_t>(p)] = (neg >> p) & 1;
                    }
                    result.push_back(m);
                }
            }
        } while (std::next_permutation(perm.begin(), perm.end()));
    }
    return result;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Choice {
    bool valid = false;
    bool via_inverter = false;  ///< realize from the opposite phase + INV
    Cut cut;
    CellMatch match;
};

struct Mapper {
    const Aig& aig;
    const GateLibrary& lib;
    MatchCache& cache;
    CutSet cut_set;

    std::vector<std::array<double, 2>> cost;    // [node][phase]
    std::vector<std::array<Choice, 2>> choice;  // [node][phase]
    std::vector<double> refs;                   // fanout estimate (area flow)

    Mapper(const Aig& a, MatchCache& c, const TechMapParams& p)
        : aig(a), lib(c.library()), cache(c), cut_set(a, p.cuts) {
        const auto counts = aig.reference_counts();
        refs.assign(counts.size(), 1.0);
        for (std::size_t i = 0; i < counts.size(); ++i) {
            refs[i] = std::max(1, counts[i]);
        }
    }

    void compute_costs() {
        const int n_nodes = aig.num_nodes();
        cost.assign(static_cast<std::size_t>(n_nodes), {kInf, kInf});
        choice.assign(static_cast<std::size_t>(n_nodes), {});

        cost[0] = {0.0, 0.0};  // constants become tie nodes outside cells
        for (int i = 0; i < aig.num_pis(); ++i) {
            const auto node = static_cast<std::size_t>(i + 1);
            cost[node][0] = 0.0;
            cost[node][1] = lib.inv_area();
            choice[node][1].valid = true;
            choice[node][1].via_inverter = true;
        }

        for (int n = aig.num_pis() + 1; n < aig.num_nodes(); ++n) {
            const auto idx = static_cast<std::size_t>(n);
            for (const Cut& cut : cut_set.cuts_of(n)) {
                if (cut.size() == 1 && cut.leaves[0] == n) continue;  // trivial
                for (int phase = 0; phase < 2; ++phase) {
                    const std::uint16_t target =
                        phase ? static_cast<std::uint16_t>(~cut.function)
                              : cut.function;
                    for (const CellMatch& m : cache.matches(target)) {
                        const double c = match_cost(cut, m);
                        if (c < cost[idx][static_cast<std::size_t>(phase)]) {
                            cost[idx][static_cast<std::size_t>(phase)] = c;
                            auto& ch = choice[idx][static_cast<std::size_t>(phase)];
                            ch.valid = true;
                            ch.via_inverter = false;
                            ch.cut = cut;
                            ch.match = m;
                        }
                    }
                }
            }
            // Phase relaxation through inverters (two rounds settle both).
            for (int round = 0; round < 2; ++round) {
                for (int phase = 0; phase < 2; ++phase) {
                    const double via =
                        cost[idx][static_cast<std::size_t>(1 - phase)] + lib.inv_area();
                    if (via < cost[idx][static_cast<std::size_t>(phase)]) {
                        cost[idx][static_cast<std::size_t>(phase)] = via;
                        auto& ch = choice[idx][static_cast<std::size_t>(phase)];
                        ch.valid = true;
                        ch.via_inverter = true;
                    }
                }
            }
            assert(cost[idx][0] < kInf && cost[idx][1] < kInf &&
                   "every AND node must be coverable by the library");
        }
    }

    double match_cost(const Cut& cut, const CellMatch& m) const {
        const GateCell& cell = lib.cell(m.cell_id);
        double c = cell.area;
        for (int p = 0; p < cell.num_inputs; ++p) {
            const int leaf_pos = m.pin_leaf_pos[static_cast<std::size_t>(p)];
            const int leaf = cut.leaves[static_cast<std::size_t>(leaf_pos)];
            const int ph = m.pin_neg[static_cast<std::size_t>(p)] ? 1 : 0;
            c += cost[static_cast<std::size_t>(leaf)][static_cast<std::size_t>(ph)] /
                 refs[static_cast<std::size_t>(leaf)];
        }
        return c;
    }

    Netlist extract(const std::vector<std::string>& pi_names,
                    const std::vector<bool>& pi_is_select,
                    std::vector<std::array<double, 2>>* usage) {
        Netlist netlist(lib);
        std::unordered_map<std::uint64_t, int> built;  // (node<<1|phase) -> id
        std::array<int, 2> const_nodes{-1, -1};

        std::vector<int> pi_ids(static_cast<std::size_t>(aig.num_pis()));
        for (int i = 0; i < aig.num_pis(); ++i) {
            std::string name = i < static_cast<int>(pi_names.size())
                                   ? pi_names[static_cast<std::size_t>(i)]
                                   : "i" + std::to_string(i);
            const bool sel = i < static_cast<int>(pi_is_select.size()) &&
                             pi_is_select[static_cast<std::size_t>(i)];
            pi_ids[static_cast<std::size_t>(i)] = netlist.add_pi(std::move(name), sel);
        }

        const auto build = [&](auto&& self, int node, int phase) -> int {
            const std::uint64_t key =
                (static_cast<std::uint64_t>(node) << 1) | static_cast<unsigned>(phase);
            const auto it = built.find(key);
            if (it != built.end()) return it->second;
            if (usage) {
                (*usage)[static_cast<std::size_t>(node)]
                        [static_cast<std::size_t>(phase)] += 1.0;
            }

            int id = -1;
            if (aig.is_const0(node)) {
                auto& cn = const_nodes[static_cast<std::size_t>(phase)];
                if (cn < 0) cn = netlist.add_const(phase != 0);
                id = cn;
            } else if (aig.is_pi(node)) {
                if (phase == 0) {
                    id = pi_ids[static_cast<std::size_t>(node - 1)];
                } else {
                    const int pos = self(self, node, 0);
                    id = netlist.add_cell(lib.inv_id(), {pos});
                }
            } else {
                const Choice& ch = choice[static_cast<std::size_t>(node)]
                                         [static_cast<std::size_t>(phase)];
                assert(ch.valid);
                if (ch.via_inverter) {
                    const int other = self(self, node, 1 - phase);
                    id = netlist.add_cell(lib.inv_id(), {other});
                } else {
                    const GateCell& cell = lib.cell(ch.match.cell_id);
                    std::vector<int> fanins(static_cast<std::size_t>(cell.num_inputs));
                    for (int p = 0; p < cell.num_inputs; ++p) {
                        const int leaf_pos =
                            ch.match.pin_leaf_pos[static_cast<std::size_t>(p)];
                        const int leaf =
                            ch.cut.leaves[static_cast<std::size_t>(leaf_pos)];
                        const int ph =
                            ch.match.pin_neg[static_cast<std::size_t>(p)] ? 1 : 0;
                        fanins[static_cast<std::size_t>(p)] = self(self, leaf, ph);
                    }
                    id = netlist.add_cell(ch.match.cell_id, std::move(fanins));
                }
            }
            built.emplace(key, id);
            return id;
        };

        for (int i = 0; i < aig.num_pos(); ++i) {
            const Lit po = aig.po(i);
            const int id =
                build(build, Aig::lit_node(po), Aig::lit_complemented(po) ? 1 : 0);
            netlist.add_po(id, "o" + std::to_string(i));
        }
        return netlist;
    }
};

}  // namespace

Netlist tech_map(const net::Aig& aig, MatchCache& cache,
                 const TechMapParams& params,
                 const std::vector<std::string>& pi_names,
                 const std::vector<bool>& pi_is_select) {
    Mapper mapper(aig, cache, params);
    mapper.compute_costs();

    std::vector<std::array<double, 2>> usage(
        static_cast<std::size_t>(aig.num_nodes()), {0.0, 0.0});
    Netlist best = mapper.extract(pi_names, pi_is_select, &usage);

    for (int iter = 0; iter < params.recovery_iterations; ++iter) {
        // Area recovery: redo the DP with reference estimates taken from the
        // actual cover usage, which sharpens the area-flow division.
        for (std::size_t i = 0; i < usage.size(); ++i) {
            mapper.refs[i] = std::max(1.0, usage[i][0] + usage[i][1]);
        }
        mapper.compute_costs();
        std::vector<std::array<double, 2>> next_usage(
            static_cast<std::size_t>(aig.num_nodes()), {0.0, 0.0});
        Netlist candidate = mapper.extract(pi_names, pi_is_select, &next_usage);
        if (candidate.area() < best.area()) {
            best = std::move(candidate);
            usage = std::move(next_usage);
        } else {
            break;
        }
    }
    return best;
}

Netlist tech_map(const net::Aig& aig, const GateLibrary& library,
                 const TechMapParams& params,
                 const std::vector<std::string>& pi_names,
                 const std::vector<bool>& pi_is_select) {
    MatchCache cache(library);
    return tech_map(aig, cache, params, pi_names, pi_is_select);
}

double mapped_area(const net::Aig& aig, MatchCache& cache,
                   const TechMapParams& params) {
    return tech_map(aig, cache, params).area();
}

}  // namespace mvf::tech
