#pragma once
// Phase I: the merged multi-function specification (paper Fig. 2).
//
// Given viable functions f0..f{n-1} (same input/output widths) and a pin
// assignment, the merged circuit shares its data inputs across all
// functions and appends ceil(log2 n) select inputs; output q carries, for
// select code k, the output of function k that the assignment routed to
// position q.  Codes >= n replicate function n-1 so the specification is
// completely defined (no don't-cares).  The AIG is built structurally --
// per-function factored-ISOP cones plus per-output mux trees -- mirroring
// the RTL the paper feeds to synthesis.  The cones depend only on the
// functions, so a pin search derives them once (with_factored_cones) and
// each build only instantiates them on the permuted inputs.

#include <memory>
#include <string>
#include <vector>

#include "ga/genotype.hpp"
#include "logic/truth_table.hpp"
#include "net/aig.hpp"
#include "sbox/sbox.hpp"
#include "synth/aig_build.hpp"

namespace mvf::flow {

/// One viable function: output truth tables over its own inputs.
struct ViableFunction {
    std::string name;
    int num_inputs = 0;
    int num_outputs = 0;
    std::vector<logic::TruthTable> outputs;
    /// The factored cone of each output, when derived in advance (see
    /// with_factored_cones); must then match `outputs`.  Null: the
    /// kFactored build derives the cones itself, with the same result.
    std::shared_ptr<const std::vector<synth::FactoredCone>> cones;
};

ViableFunction from_sbox(const sbox::Sbox& s);
std::vector<ViableFunction> from_sboxes(const std::vector<sbox::Sbox>& s);

/// The functions with every output's factored cone derived, so that the
/// thousands of merged builds of a pin search only instantiate them.
std::vector<ViableFunction> with_factored_cones(std::vector<ViableFunction> functions);

/// How the per-function cones of the merged AIG are constructed.
enum class BuildStyle {
    /// Independent factored-ISOP cones (the paper's per-function RTL).
    kFactored,
    /// Joint cover construction with cross-function shared-divisor
    /// extraction (fast_extract-style); wins on large merges where cubes
    /// of different functions share sub-products.
    kSharedExtract,
};

class MergedSpec {
public:
    /// ceil(log2 n); 0 for a single function.
    static int num_selects(int num_functions);

    MergedSpec(std::vector<ViableFunction> functions,
               ga::PinAssignment assignment);

    int num_functions() const { return static_cast<int>(functions_.size()); }
    int num_inputs() const { return functions_.front().num_inputs; }
    int num_outputs() const { return functions_.front().num_outputs; }
    int select_count() const { return num_selects(num_functions()); }

    const ga::PinAssignment& assignment() const { return assignment_; }
    const std::vector<ViableFunction>& functions() const { return functions_; }

    /// Structural merged AIG.  PI order: data inputs 0..m-1, then selects.
    net::Aig build_aig(BuildStyle style = BuildStyle::kFactored) const;

    /// Specification truth tables of each merged output over m+s variables
    /// (selects are the top s variables), for equivalence checking.
    std::vector<logic::TruthTable> reference_tts() const;

    /// What the camouflaged circuit must implement for select code k:
    /// merged output q as a function of the m data inputs.
    std::vector<logic::TruthTable> expected_outputs_for_code(int code) const;

    /// PI names ("i0".."i{m-1}", "sel0"..) and select flags for mapping.
    std::vector<std::string> pi_names() const;
    std::vector<bool> pi_select_flags() const;

private:
    std::vector<ViableFunction> functions_;
    ga::PinAssignment assignment_;
};

}  // namespace mvf::flow
