#include "check.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

using mvf::camo::CamoNetlist;

constexpr int kMaxPis = 20;

/// Output words of every PO over all 2^PI patterns: words[q][w] bit b is
/// PO q's value on pattern w * 64 + b (bit i of a pattern = PI i).
using PoWords = std::vector<std::vector<std::uint64_t>>;

int num_words(int num_pis) {
    return num_pis <= 6 ? 1 : 1 << (num_pis - 6);
}

/// Lanes of the last word that hold real patterns.
std::uint64_t lane_mask(int num_pis) {
    return num_pis >= 6 ? ~0ull : (1ull << (1u << num_pis)) - 1;
}

/// Value of PI `i` across the 64 patterns of word `w`.
std::uint64_t pi_word(int i, int w) {
    static constexpr std::uint64_t kLow[6] = {
        0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
        0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
    if (i < 6) return kLow[i];
    return ((w >> (i - 6)) & 1) ? ~0ull : 0ull;
}

/// Index of the trailing decimal number in `name` after `prefix`, or -1.
int suffix_index(const std::string& name, const std::string& prefix) {
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
        return -1;
    }
    int value = 0;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') return -1;
        value = value * 10 + (name[i] - '0');
    }
    return value;
}

/// order[q] = the netlist PO named `prefix<q>`.
std::vector<int> po_order(const CamoNetlist& netlist, const std::string& prefix) {
    std::vector<int> order(static_cast<std::size_t>(netlist.num_pos()), -1);
    for (int i = 0; i < netlist.num_pos(); ++i) {
        const int q = suffix_index(netlist.po_name(i), prefix);
        if (q < 0 || q >= netlist.num_pos() || order[static_cast<std::size_t>(q)] >= 0) {
            throw std::runtime_error("unexpected PO name \"" + netlist.po_name(i) + "\"");
        }
        order[static_cast<std::size_t>(q)] = i;
    }
    return order;
}

/// Expected words of every reference output, in reference order.
PoWords reference_words(const CamoNetlist& netlist, const Reference& ref,
                        int code) {
    const int p = netlist.num_pis();
    const int words = num_words(p);
    const std::uint32_t patterns = 1u << p;
    const int num_out = netlist.num_pos();
    PoWords out(static_cast<std::size_t>(num_out),
                std::vector<std::uint64_t>(static_cast<std::size_t>(words), 0));
    const auto set = [&](int q, std::uint32_t x) {
        out[static_cast<std::size_t>(q)][x >> 6] |= 1ull << (x & 63);
    };

    if (ref.kind == Reference::Kind::kSbox) {
        // pi_of_data[d] = netlist PI carrying data input d.
        std::vector<int> pi_of_data(static_cast<std::size_t>(p), -1);
        for (int i = 0; i < p; ++i) {
            const int d = suffix_index(netlist.node(netlist.pi(i)).name, "i");
            if (d < 0 || d >= p) throw std::runtime_error("unexpected PI name");
            pi_of_data[static_cast<std::size_t>(d)] = i;
        }
        const int k = std::min<int>(code, static_cast<int>(ref.sboxes.size()) - 1);
        const mvf::sbox::Sbox& box = ref.sboxes[static_cast<std::size_t>(k)];
        const std::vector<int>& in_perm =
            ref.assignment.input_perms[static_cast<std::size_t>(k)];
        const std::vector<int>& out_perm =
            ref.assignment.output_perms[static_cast<std::size_t>(k)];
        if (box.num_inputs != p || box.num_outputs != num_out) {
            throw std::runtime_error("netlist width differs from the S-box");
        }
        for (std::uint32_t x = 0; x < patterns; ++x) {
            std::uint32_t v = 0;
            for (int j = 0; j < box.num_inputs; ++j) {
                const int pi = pi_of_data[static_cast<std::size_t>(
                    in_perm[static_cast<std::size_t>(j)])];
                v |= ((x >> pi) & 1u) << j;
            }
            const std::uint32_t y = box.lookup(v);
            for (int j = 0; j < box.num_outputs; ++j) {
                if ((y >> j) & 1u) set(out_perm[static_cast<std::size_t>(j)], x);
            }
        }
        return out;
    }

    // Product: PIs a<i>, b<i>; outputs are the bits of a * b.
    std::vector<int> a_pi(static_cast<std::size_t>(ref.width), -1);
    std::vector<int> b_pi(static_cast<std::size_t>(ref.width), -1);
    for (int i = 0; i < p; ++i) {
        const std::string& name = netlist.node(netlist.pi(i)).name;
        const int ai = suffix_index(name, "a");
        const int bi = suffix_index(name, "b");
        if (ai >= 0 && ai < ref.width) {
            a_pi[static_cast<std::size_t>(ai)] = i;
        } else if (bi >= 0 && bi < ref.width) {
            b_pi[static_cast<std::size_t>(bi)] = i;
        } else {
            throw std::runtime_error("unexpected PI name \"" + name + "\"");
        }
    }
    if (num_out != 2 * ref.width || p != 2 * ref.width) {
        throw std::runtime_error("netlist width differs from the multiplier");
    }
    for (std::uint32_t x = 0; x < patterns; ++x) {
        std::uint32_t a = 0;
        std::uint32_t b = 0;
        for (int i = 0; i < ref.width; ++i) {
            a |= ((x >> a_pi[static_cast<std::size_t>(i)]) & 1u) << i;
            b |= ((x >> b_pi[static_cast<std::size_t>(i)]) & 1u) << i;
        }
        const std::uint32_t product = a * b;
        for (int q = 0; q < num_out; ++q) {
            if ((product >> q) & 1u) set(q, x);
        }
    }
    return out;
}

/// Evaluates `netlist` under `config` (per-node plausible index, as
/// CamoNetlist::Node::config_fn holds them).  Throws std::runtime_error on
/// a malformed netlist (forward fanin, bad configuration index).
PoWords evaluate(const CamoNetlist& netlist, const std::vector<int>& config) {
    const int p = netlist.num_pis();
    if (p > kMaxPis) throw std::runtime_error("too many PIs to evaluate exhaustively");
    if (static_cast<int>(config.size()) != netlist.num_nodes()) {
        throw std::runtime_error("configuration size differs from node count");
    }
    const int words = num_words(p);
    std::vector<int> pi_index(static_cast<std::size_t>(netlist.num_nodes()), -1);
    for (int i = 0; i < p; ++i) pi_index[static_cast<std::size_t>(netlist.pi(i))] = i;

    std::vector<std::vector<std::uint64_t>> value(
        static_cast<std::size_t>(netlist.num_nodes()));
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const CamoNetlist::Node& node = netlist.node(id);
        std::vector<std::uint64_t>& out = value[static_cast<std::size_t>(id)];
        out.assign(static_cast<std::size_t>(words), 0);
        if (node.kind == CamoNetlist::NodeKind::kPi) {
            const int i = pi_index[static_cast<std::size_t>(id)];
            for (int w = 0; w < words; ++w) out[static_cast<std::size_t>(w)] = pi_word(i, w);
            continue;
        }
        for (const int f : node.fanins) {
            if (f < 0 || f >= id) throw std::runtime_error("fanin is not topological");
        }
        const mvf::camo::CamoCell& cell = netlist.library().cell(node.camo_cell_id);
        const int choice = config[static_cast<std::size_t>(id)];
        if (choice < 0 || choice >= static_cast<int>(cell.plausible.size())) {
            throw std::runtime_error("configuration index outside the plausible set");
        }
        const mvf::logic::TruthTable& fn = cell.plausible[static_cast<std::size_t>(choice)];
        const int pins = static_cast<int>(node.fanins.size());
        // Sum of products over the table's minterms, one word at a time.
        for (std::uint32_t m = 0; m < (1u << pins); ++m) {
            if (!fn.bit(m)) continue;
            for (int w = 0; w < words; ++w) {
                std::uint64_t term = ~0ull;
                for (int pin = 0; pin < pins; ++pin) {
                    const std::uint64_t in =
                        value[static_cast<std::size_t>(node.fanins[static_cast<std::size_t>(pin)])]
                             [static_cast<std::size_t>(w)];
                    term &= ((m >> pin) & 1u) ? in : ~in;
                }
                out[static_cast<std::size_t>(w)] |= term;
            }
        }
    }
    PoWords pos;
    for (int q = 0; q < netlist.num_pos(); ++q) {
        pos.push_back(value[static_cast<std::size_t>(netlist.po(q))]);
    }
    return pos;
}

}  // namespace

std::vector<int> recorded_config(const CamoNetlist& netlist, int code) {
    std::vector<int> config(static_cast<std::size_t>(netlist.num_nodes()), -1);
    for (int id = 0; id < netlist.num_nodes(); ++id) {
        const CamoNetlist::Node& node = netlist.node(id);
        if (node.kind != CamoNetlist::NodeKind::kCell) continue;
        if (code >= static_cast<int>(node.config_fn.size())) {
            throw std::runtime_error("cell has no configuration for the code");
        }
        config[static_cast<std::size_t>(id)] = node.config_fn[static_cast<std::size_t>(code)];
    }
    return config;
}

std::string compare(const CamoNetlist& netlist, const std::vector<int>& config,
                    const Reference& ref, int code) {
    try {
        const PoWords got = evaluate(netlist, config);
        const PoWords want = reference_words(netlist, ref, code);
        // Both the mapper and the importer name POs o<q> in declaration
        // order (for the multiplier, o<q> is product bit q).
        const std::vector<int> order = po_order(netlist, "o");
        const std::uint64_t mask = lane_mask(netlist.num_pis());
        for (std::size_t q = 0; q < want.size(); ++q) {
            const std::vector<std::uint64_t>& g = got[static_cast<std::size_t>(order[q])];
            for (std::size_t w = 0; w < g.size(); ++w) {
                if ((g[w] ^ want[q][w]) & mask) {
                    return "output " + std::to_string(q) + " differs from the reference "
                           "(code " + std::to_string(code) + ", patterns " +
                           std::to_string(w * 64) + "..)";
                }
            }
        }
    } catch (const std::exception& e) {
        return std::string("cannot evaluate: ") + e.what();
    }
    return "";
}

std::string self_test(const CamoNetlist& netlist, const std::vector<int>& config,
                      const Reference& ref) {
    for (int q = 0; q < netlist.num_pos(); ++q) {
        const int source = netlist.po(q);
        const CamoNetlist::Node& node = netlist.node(source);
        if (node.kind != CamoNetlist::NodeKind::kCell) continue;
        const mvf::camo::CamoCell& cell = netlist.library().cell(node.camo_cell_id);
        for (std::size_t c = 0; c < cell.plausible.size(); ++c) {
            // Every reference output depends on its inputs, so a constant
            // output must be rejected.
            if (!cell.plausible[c].is_const()) continue;
            std::vector<int> corrupted = config;
            corrupted[static_cast<std::size_t>(source)] = static_cast<int>(c);
            if (compare(netlist, corrupted, ref, 0).empty()) {
                return "the check accepted a configuration whose output " +
                       std::to_string(q) + " is forced constant";
            }
            return "";
        }
    }
    return "no cell-fed PO with a constant plausible function to corrupt";
}

}  // namespace perfbench
