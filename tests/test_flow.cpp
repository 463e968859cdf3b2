// End-to-end flow tests: the paper's complete pipeline across generator
// families, moduli, optimization levels and thread counts — plus fault
// injection (the flow must reject corrupted multipliers, not hallucinate a
// polynomial).
#include <gtest/gtest.h>

#include <tuple>

#include "core/flow.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/catalog.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/ports.hpp"
#include "opt/passes.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre::core {
namespace {

using gf2::Poly;

enum class Family { MastrovitoPtr, MastrovitoMatrix, Montgomery, ShiftAdd };
enum class OptLevel { None, Synthesized, TechMapped, PureNand };

std::string family_name(Family f) {
  switch (f) {
    case Family::MastrovitoPtr: return "MastrovitoPtr";
    case Family::MastrovitoMatrix: return "MastrovitoMatrix";
    case Family::Montgomery: return "Montgomery";
    case Family::ShiftAdd: return "ShiftAdd";
  }
  return "?";
}

std::string opt_name(OptLevel o) {
  switch (o) {
    case OptLevel::None: return "Raw";
    case OptLevel::Synthesized: return "Syn";
    case OptLevel::TechMapped: return "Mapped";
    case OptLevel::PureNand: return "Nand";
  }
  return "?";
}

nl::Netlist build(Family family, const gf2m::Field& field) {
  switch (family) {
    case Family::MastrovitoPtr:
      return gen::generate_mastrovito(field);
    case Family::MastrovitoMatrix: {
      gen::MastrovitoOptions options;
      options.style = gen::MastrovitoOptions::Style::Matrix;
      return gen::generate_mastrovito(field, options);
    }
    case Family::Montgomery:
      return gen::generate_montgomery(field);
    case Family::ShiftAdd:
      return gen::generate_shift_add(field);
  }
  throw Error("bad family");
}

nl::Netlist apply_opt(OptLevel level, const nl::Netlist& netlist) {
  switch (level) {
    case OptLevel::None:
      return netlist;
    case OptLevel::Synthesized:
      return opt::synthesize(netlist);
    case OptLevel::TechMapped: {
      opt::SynthesisOptions options;
      options.run_tech_map = true;
      return opt::synthesize(netlist, options);
    }
    case OptLevel::PureNand: {
      opt::SynthesisOptions options;
      options.run_tech_map = true;
      options.tech_map.keep_xor = false;
      return opt::synthesize(netlist, options);
    }
  }
  throw Error("bad opt level");
}

using FlowCase = std::tuple<Family, OptLevel, Poly>;

class FlowSweep : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FlowSweep, RecoversExactPolynomial) {
  const auto [family, level, p] = GetParam();
  const gf2m::Field field(p);
  const auto netlist = apply_opt(level, build(family, field));
  FlowOptions options;
  options.threads = 2;
  const auto report = reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.p, p) << report.summary();
  EXPECT_EQ(report.algorithm2_p, p)
      << "plain Algorithm 2 and extended recovery must agree on "
      << report.summary();
  EXPECT_EQ(report.recovery.circuit_class, CircuitClass::StandardProduct);
  EXPECT_TRUE(report.verification.equivalent);
  EXPECT_EQ(report.m, field.m());
  EXPECT_EQ(report.equations, netlist.num_equations());
}

INSTANTIATE_TEST_SUITE_P(
    Families, FlowSweep,
    ::testing::Combine(
        ::testing::Values(Family::MastrovitoPtr, Family::MastrovitoMatrix,
                          Family::Montgomery, Family::ShiftAdd),
        ::testing::Values(OptLevel::None, OptLevel::Synthesized,
                          OptLevel::TechMapped, OptLevel::PureNand),
        ::testing::Values(Poly{4, 1, 0}, Poly{8, 4, 3, 1, 0},
                          Poly{13, 4, 3, 1, 0})),
    [](const ::testing::TestParamInfo<FlowCase>& info) {
      return family_name(std::get<0>(info.param)) + "_" +
             opt_name(std::get<1>(info.param)) + "_deg" +
             std::to_string(std::get<2>(info.param).degree());
    });

TEST(Flow, EveryIrreduciblePolynomialDegree2To7) {
  // The paper's central claim, exhaustively at small scale: extraction
  // works for *every* irreducible P(x), not just catalog entries.
  for (unsigned m = 2; m <= 7; ++m) {
    for (const Poly& p : gf2::all_irreducible(m)) {
      const gf2m::Field field(p);
      const auto report =
          reverse_engineer(gen::generate_mastrovito(field));
      EXPECT_TRUE(report.success) << p.to_string();
      EXPECT_EQ(report.recovery.p, p);
    }
  }
}

TEST(Flow, RawMontgomeryRecognizedAndSolved) {
  const Poly p{8, 4, 3, 1, 0};
  const gf2m::Field field(p);
  gen::MontgomeryOptions options;
  options.raw = true;
  const auto netlist = gen::generate_montgomery(field, options);
  const auto report = reverse_engineer(netlist);
  EXPECT_TRUE(report.success) << report.summary();
  EXPECT_EQ(report.recovery.circuit_class, CircuitClass::MontgomeryRaw);
  EXPECT_EQ(report.recovery.p, p);
  // Plain Algorithm 2 on a raw Montgomery circuit does NOT yield an
  // irreducible polynomial (P_m lands only on bit 0) — that is exactly the
  // gap the extended recovery closes.
  EXPECT_NE(report.algorithm2_p, p);
}

TEST(Flow, ThreadCountsAgree) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  FlowOptions one;
  one.threads = 1;
  FlowOptions four;
  four.threads = 4;
  const auto r1 = reverse_engineer(netlist, one);
  const auto r4 = reverse_engineer(netlist, four);
  EXPECT_EQ(r1.recovery.p, r4.recovery.p);
  EXPECT_EQ(r1.success, r4.success);
  for (std::size_t i = 0; i < r1.extraction.anfs.size(); ++i) {
    EXPECT_EQ(r1.extraction.anfs[i], r4.extraction.anfs[i]);
  }
}

TEST(Flow, ExtractionAgreesWithTextbookReference) {
  const gf2m::Field field(Poly{8, 4, 3, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const auto report = reverse_engineer(netlist);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.recovery.p, field.modulus());
  const auto ports = nl::multiplier_ports(netlist);
  ASSERT_EQ(report.extraction.anfs.size(), ports.z.bits.size());
  for (std::size_t i = 0; i < ports.z.bits.size(); ++i) {
    EXPECT_EQ(report.extraction.anfs[i],
              test::textbook_anf(netlist, ports.z.bits[i]))
        << "bit " << i;
  }
}

TEST(Flow, CustomPortBases) {
  const gf2m::Field field(Poly{5, 2, 0});
  gen::MastrovitoOptions gen_options;
  gen_options.a_base = "in_a";
  gen_options.b_base = "in_b";
  gen_options.z_base = "out";
  const auto netlist = gen::generate_mastrovito(field, gen_options);
  FlowOptions options;
  options.a_base = "in_a";
  options.b_base = "in_b";
  options.z_base = "out";
  const auto report = reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.recovery.p, field.modulus());
  // With default bases the ports are missing entirely — a flow outcome
  // (fuzzed mutants and batch manifests hit this), not an exception.
  const auto missing = reverse_engineer(netlist);
  EXPECT_FALSE(missing.success);
  EXPECT_EQ(missing.recovery.circuit_class, CircuitClass::NotAMultiplier);
  EXPECT_FALSE(missing.recovery.diagnosis.empty());
}

TEST(Flow, SkipGoldenVerification) {
  const gf2m::Field field(Poly{4, 3, 0});
  const auto netlist = gen::generate_mastrovito(field);
  FlowOptions options;
  options.verify_with_golden = false;
  const auto report = reverse_engineer(netlist, options);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.verification.detail, "skipped");
}

// --- Fault injection ------------------------------------------------------

/// Rebuilds `netlist` with gate `index` replaced by `wrong_type` (arity
/// permitting).
nl::Netlist inject_fault(const nl::Netlist& netlist, std::size_t index,
                         nl::CellType wrong_type) {
  nl::Netlist out(netlist.name() + "_faulty");
  std::vector<nl::Var> map(netlist.num_vars());
  for (nl::Var v : netlist.inputs()) {
    map[v] = out.add_input(netlist.var_name(v));
  }
  std::size_t gate_index = 0;
  for (std::size_t g : netlist.topological_order()) {
    const nl::Gate& gate = netlist.gate(g);
    std::vector<nl::Var> inputs;
    for (nl::Var in : gate.inputs) inputs.push_back(map[in]);
    const nl::CellType type =
        (gate_index == index && nl::arity_ok(wrong_type, inputs.size()))
            ? wrong_type
            : gate.type;
    map[gate.output] =
        out.add_gate(type, std::move(inputs), netlist.var_name(gate.output));
    ++gate_index;
  }
  for (nl::Var v : netlist.outputs()) out.mark_output(map[v]);
  return out;
}

TEST(Flow, FaultInjectionIsRejected) {
  const Poly p{4, 1, 0};
  const gf2m::Field field(p);
  const auto good = gen::generate_mastrovito(field);
  unsigned rejected = 0;
  unsigned trials = 0;
  Prng rng(31337);
  const auto order = good.topological_order();
  for (int round = 0; round < 20; ++round) {
    const std::size_t victim = rng.next_below(good.num_gates());
    // Pick a genuinely different cell of the same arity.
    const nl::Gate& gate = good.gate(order[victim]);
    nl::CellType wrong;
    if (gate.inputs.size() == 1) {
      wrong = gate.type == nl::CellType::Inv ? nl::CellType::Buf
                                             : nl::CellType::Inv;
    } else {
      wrong = rng.next_bool() ? nl::CellType::Or : nl::CellType::Xnor;
      if (wrong == gate.type) wrong = nl::CellType::Nand;
    }
    const auto faulty = inject_fault(good, victim, wrong);
    ++trials;
    const auto report = reverse_engineer(faulty);
    if (!report.success) ++rejected;
  }
  ASSERT_GT(trials, 10u);
  EXPECT_EQ(rejected, trials)
      << "every corrupted multiplier must fail the flow";
}

TEST(Flow, WrongPolynomialGoldenComparison) {
  // Verification against a *different* field's golden model must fail:
  // this is how the flow would catch an implementation bug that still
  // looks like a clean multiplier.
  const gf2m::Field right(Poly{4, 1, 0});
  const gf2m::Field wrong(Poly{4, 3, 0});
  const auto netlist = gen::generate_mastrovito(right);
  const auto ports = nl::multiplier_ports(netlist);
  const auto extraction = extract_all_outputs(netlist, 1);
  const auto result = verify_against_golden(
      extraction.anfs, wrong, ports, CircuitClass::StandardProduct);
  EXPECT_FALSE(result.equivalent);
  EXPECT_FALSE(result.detail.empty());
}

TEST(Flow, SummaryIsHumanReadable) {
  const gf2m::Field field(Poly{4, 1, 0});
  const auto report = reverse_engineer(gen::generate_mastrovito(field));
  const std::string text = report.summary();
  EXPECT_NE(text.find("GF(2^4)"), std::string::npos);
  EXPECT_NE(text.find("x^4+x+1"), std::string::npos);
  EXPECT_NE(text.find("SUCCESS"), std::string::npos);
  EXPECT_GT(report.memory_bytes(), 0u);
}

}  // namespace
}  // namespace gfre::core
