// Cell library consistency: for every cell, the three models — Boolean
// evaluator, 64-way word evaluator, and ANF — must agree on every input
// combination (this is the "correct by inspection" claim behind Eq. (1)
// and Theorem 1, checked exhaustively).  The truth-table matcher every
// reader shares is checked against the same models.
#include <gtest/gtest.h>

#include <array>

#include "anf/anf.hpp"
#include "netlist/cell.hpp"
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace gfre::nl {
namespace {

std::vector<std::size_t> legal_arities(CellType type) {
  std::vector<std::size_t> arities;
  for (std::size_t n = 0; n <= 6; ++n) {
    if (arity_ok(type, n)) arities.push_back(n);
  }
  return arities;
}

class CellConsistency : public ::testing::TestWithParam<CellType> {};

TEST_P(CellConsistency, BoolWordAndAnfModelsAgree) {
  const CellType type = GetParam();
  for (std::size_t n : legal_arities(type)) {
    std::vector<anf::Var> vars(n);
    for (std::size_t i = 0; i < n; ++i) vars[i] = static_cast<anf::Var>(i);
    const anf::Anf anf = cell_anf(type, vars);

    std::array<bool, 6> in{};
    std::vector<std::uint64_t> word_in(n);
    for (std::size_t row = 0; row < (std::size_t{1} << n); ++row) {
      for (std::size_t i = 0; i < n; ++i) {
        in[i] = (row >> i) & 1u;
        word_in[i] = in[i] ? ~0ull : 0ull;
      }
      const bool expect =
          eval_cell(type, std::span<const bool>(in.data(), n));
      // word evaluation (all 64 lanes identical)
      const std::uint64_t word = eval_cell_words(type, word_in);
      EXPECT_EQ(word, expect ? ~0ull : 0ull)
          << cell_name(type) << " arity " << n << " row " << row;
      // ANF evaluation
      const bool via_anf =
          anf.eval([&](anf::Var v) { return in[v]; });
      EXPECT_EQ(via_anf, expect)
          << cell_name(type) << " arity " << n << " row " << row
          << " anf=" << anf.to_string([](anf::Var v) {
               return "x" + std::to_string(v);
             });
    }
  }
}

TEST_P(CellConsistency, AnfMatchesTruthTableTransform) {
  // cell_anf must equal the Möbius transform of the cell's truth table —
  // i.e. the analytic formulas have no transcription errors.
  const CellType type = GetParam();
  for (std::size_t n : legal_arities(type)) {
    if (n == 0) continue;  // constants handled separately
    std::vector<anf::Var> vars(n);
    for (std::size_t i = 0; i < n; ++i) vars[i] = static_cast<anf::Var>(i);
    std::vector<bool> table(std::size_t{1} << n);
    std::array<bool, 6> in{};
    for (std::size_t row = 0; row < table.size(); ++row) {
      for (std::size_t i = 0; i < n; ++i) in[i] = (row >> i) & 1u;
      table[row] = eval_cell(type, std::span<const bool>(in.data(), n));
    }
    EXPECT_EQ(cell_anf(type, vars), anf::Anf::from_truth_table(vars, table))
        << cell_name(type) << " arity " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellConsistency,
                         ::testing::ValuesIn(all_cell_types().begin(),
                                             all_cell_types().end()),
                         [](const ::testing::TestParamInfo<CellType>& info) {
                           return cell_name(info.param);
                         });

TEST(Cell, NameRoundTrip) {
  for (CellType type : all_cell_types()) {
    EXPECT_EQ(cell_from_name(cell_name(type)), type);
  }
}

TEST(Cell, NameAliases) {
  EXPECT_EQ(cell_from_name("not"), CellType::Inv);
  EXPECT_EQ(cell_from_name("AND2"), CellType::And);
  EXPECT_EQ(cell_from_name("nand3"), CellType::Nand);
  EXPECT_EQ(cell_from_name("xor2"), CellType::Xor);
  EXPECT_THROW(cell_from_name("FLIPFLOP"), InvalidArgument);
}

TEST(Cell, ArityRules) {
  EXPECT_TRUE(arity_ok(CellType::Const0, 0));
  EXPECT_FALSE(arity_ok(CellType::Const0, 1));
  EXPECT_TRUE(arity_ok(CellType::Inv, 1));
  EXPECT_FALSE(arity_ok(CellType::Inv, 2));
  EXPECT_TRUE(arity_ok(CellType::And, 2));
  EXPECT_TRUE(arity_ok(CellType::And, 5));
  EXPECT_FALSE(arity_ok(CellType::And, 1));
  EXPECT_TRUE(arity_ok(CellType::Or, 8));
  EXPECT_FALSE(arity_ok(CellType::Or, 9)) << "OR ANF expansion is capped";
  EXPECT_TRUE(arity_ok(CellType::Mux, 3));
  EXPECT_FALSE(arity_ok(CellType::Mux, 2));
  EXPECT_TRUE(arity_ok(CellType::Aoi22, 4));
  EXPECT_FALSE(arity_ok(CellType::Aoi22, 3));
}

TEST(Cell, KnownAnfFormulas) {
  using anf::Anf;
  const std::vector<anf::Var> ab{0, 1};
  const std::vector<anf::Var> abc{0, 1, 2};
  const auto v = [](anf::Var x) { return Anf::var(x); };

  EXPECT_EQ(cell_anf(CellType::Xor, ab), v(0) + v(1));
  EXPECT_EQ(cell_anf(CellType::And, ab), v(0) * v(1));
  EXPECT_EQ(cell_anf(CellType::Or, ab), v(0) + v(1) + v(0) * v(1));
  EXPECT_EQ(cell_anf(CellType::Nand, ab), Anf::one() + v(0) * v(1));
  const std::vector<anf::Var> a_only{0};
  EXPECT_EQ(cell_anf(CellType::Inv, a_only), Anf::one() + v(0));
  // AOI21: 1 + ab + c + abc
  EXPECT_EQ(cell_anf(CellType::Aoi21, abc),
            Anf::one() + v(0) * v(1) + v(2) + v(0) * v(1) * v(2));
  // MAJ3 = ab + ac + bc
  EXPECT_EQ(cell_anf(CellType::Maj3, abc),
            v(0) * v(1) + v(0) * v(2) + v(1) * v(2));
}

TEST(Cell, WordEvalMixedLanes) {
  // Lanes carry independent vectors: AND of 0b0101 and 0b0011 = 0b0001.
  const std::vector<std::uint64_t> in{0x5ull, 0x3ull};
  EXPECT_EQ(eval_cell_words(CellType::And, in), 0x1ull);
  EXPECT_EQ(eval_cell_words(CellType::Xor, in), 0x6ull);
  EXPECT_EQ(eval_cell_words(CellType::Or, in), 0x7ull);
}

// ---------------------------------------------------------------------------
// Truth tables: the matcher behind BLIF covers, Liberty cells and Verilog
// assigns

bool table_bit(const TruthTable& table, std::size_t row) {
  return (table[row / 64] >> (row % 64)) & 1;
}

/// The ANF a Möbius-transformed table encodes, over variables 0..n-1.
anf::Anf anf_of(const TruthTable& coefficients, std::size_t n) {
  std::vector<anf::Monomial> monomials;
  for (std::size_t row = 0; row < (std::size_t{1} << n); ++row) {
    if (!table_bit(coefficients, row)) continue;
    std::vector<anf::Var> vars;
    for (std::size_t i = 0; i < n; ++i) {
      if ((row >> i) & 1) vars.push_back(static_cast<anf::Var>(i));
    }
    monomials.push_back(anf::Monomial::from_vars(std::move(vars)));
  }
  return anf::Anf::from_monomials(std::move(monomials));
}

/// The truth table a one-output netlist computes, by simulating every row.
TruthTable simulated_table(const Netlist& netlist) {
  const sim::Simulator simulator(netlist);
  const std::size_t n = netlist.inputs().size();
  TruthTable table{};
  std::vector<bool> in(n);
  for (std::size_t row = 0; row < (std::size_t{1} << n); ++row) {
    for (std::size_t i = 0; i < n; ++i) in[i] = (row >> i) & 1;
    if (simulator.run_single(in)[0]) table[row / 64] |= 1ull << (row % 64);
  }
  return table;
}

TEST(TruthTable, EveryCellAtEveryArityMatchesItself) {
  for (CellType type : all_cell_types()) {
    for (std::size_t n = 0; n <= kMaxTableInputs; ++n) {
      if (!arity_ok(type, n)) continue;
      const std::string label = cell_name(type) + "/" + std::to_string(n);
      std::vector<TruthTable> inputs;
      for (std::size_t i = 0; i < n; ++i) inputs.push_back(input_table(i));
      const TruthTable table = cell_table(type, inputs);
      std::array<bool, kMaxTableInputs> in{};
      for (std::size_t row = 0; row < (std::size_t{1} << n); ++row) {
        for (std::size_t i = 0; i < n; ++i) in[i] = (row >> i) & 1;
        ASSERT_EQ(table_bit(table, row),
                  eval_cell(type, std::span<const bool>(in.data(), n)))
            << label << " row " << row;
      }
      const auto match = match_truth_table(table, n);
      ASSERT_TRUE(match.has_value()) << label;
      EXPECT_EQ(*match, type) << label;

      std::vector<anf::Var> vars(n);
      for (std::size_t i = 0; i < n; ++i) vars[i] = static_cast<anf::Var>(i);
      EXPECT_EQ(anf_of(mobius_transform(table, n), n), cell_anf(type, vars))
          << label;
    }
  }
}

TEST(TruthTable, RowsPastTheArityAreIgnored) {
  // AND2 padded with garbage above row 3 is still AND2.
  TruthTable table = cell_table(
      CellType::And, std::array<TruthTable, 2>{input_table(0), input_table(1)});
  table[0] |= 0xF0;
  table[3] = ~0ull;
  EXPECT_EQ(match_truth_table(table, 2), CellType::And);
  EXPECT_EQ(mobius_transform(table, 2), (TruthTable{0x8, 0, 0, 0}));
}

TEST(TruthTable, MuxWithTheSelectLastFallsBackToItsAnf) {
  // The hand-written BLIF cover k = a&!c | b&c: a mux whose select is the
  // last pin, which no builtin has.  Its ANF is a + ac + bc.
  const TruthTable& a = input_table(0);
  const TruthTable& b = input_table(1);
  const TruthTable& c = input_table(2);
  TruthTable k{};
  for (std::size_t w = 0; w < k.size(); ++w)
    k[w] = (a[w] & ~c[w]) | (b[w] & c[w]);
  EXPECT_FALSE(match_truth_table(k, 3).has_value());
  const TruthTable anf = mobius_transform(k, 3);
  EXPECT_EQ(anf, (TruthTable{(1ull << 0b001) | (1ull << 0b101) |
                                 (1ull << 0b110),
                             0, 0, 0}));

  Netlist netlist("k");
  std::vector<Var> in;
  for (const char* name : {"a", "b", "c"})
    in.push_back(netlist.add_input(name));
  netlist.mark_output(add_truth_table_gates(netlist, k, in, "k"));
  // XOR(a, AND(a, c), AND(b, c)): two monomial ANDs under one XOR.
  ASSERT_EQ(netlist.num_gates(), 3u);
  EXPECT_EQ(netlist.gates().back().type, CellType::Xor);
  EXPECT_EQ(netlist.var_name(netlist.gates().back().output), "k");
  EXPECT_EQ(simulated_table(netlist)[0] & 0xFF, k[0] & 0xFF);
}

TEST(TruthTable, AnfGatesUseXnorForAConstantTermAndChunkWideXors) {
  // !(a & !b): ANF 1 + a + ab, so an XNOR over the two monomials.
  {
    const TruthTable& a = input_table(0);
    const TruthTable& b = input_table(1);
    TruthTable f{};
    for (std::size_t w = 0; w < f.size(); ++w) f[w] = ~(a[w] & ~b[w]);
    Netlist netlist("f");
    std::vector<Var> in{netlist.add_input("a"), netlist.add_input("b")};
    netlist.mark_output(add_truth_table_gates(netlist, f, in, "f"));
    EXPECT_EQ(netlist.gates().back().type, CellType::Xnor);
    EXPECT_EQ(simulated_table(netlist)[0] & 0xF, f[0] & 0xF);
  }
  // OR8 has 255 monomials: XORs of at most kMaxAndArity below the root.
  std::vector<TruthTable> inputs;
  for (std::size_t i = 0; i < kMaxTableInputs; ++i)
    inputs.push_back(input_table(i));
  const TruthTable or8 = cell_table(CellType::Or, inputs);
  Netlist netlist("or8");
  std::vector<Var> in;
  for (std::size_t i = 0; i < kMaxTableInputs; ++i)
    in.push_back(netlist.add_input("i" + std::to_string(i)));
  netlist.mark_output(add_anf_gates(
      netlist, mobius_transform(or8, kMaxTableInputs), in, "y"));
  for (const Gate& gate : netlist.gates()) {
    EXPECT_LE(gate.inputs.size(), kMaxAndArity);
  }
  EXPECT_EQ(netlist.gates().back().type, CellType::Xor);
  EXPECT_EQ(netlist.gates().back().inputs.size(), 4u);  // ceil(255 / 64)
  EXPECT_EQ(simulated_table(netlist), or8);
  // The matcher itself would have made it one OR gate.
  Netlist matched("or8");
  for (std::size_t i = 0; i < kMaxTableInputs; ++i)
    matched.add_input("i" + std::to_string(i));
  add_truth_table_gates(matched, or8, in, "y");
  ASSERT_EQ(matched.num_gates(), 1u);
  EXPECT_EQ(matched.gate(0).type, CellType::Or);
}

TEST(TruthTable, ConstantAndProjectionFunctionsFallBackCleanly) {
  // A 2-input cover that ignores its inputs, or keeps only one of them,
  // matches no 2-input cell: its ANF is a constant or a single variable.
  Netlist netlist("c");
  std::vector<Var> in{netlist.add_input("a"), netlist.add_input("b")};
  TruthTable ones;
  ones.fill(~0ull);
  add_truth_table_gates(netlist, ones, in, "one");
  add_truth_table_gates(netlist, TruthTable{}, in, "zero");
  add_truth_table_gates(netlist, input_table(1), in, "just_b");
  const std::array<TruthTable, 1> a{input_table(0)};
  add_truth_table_gates(netlist, cell_table(CellType::Inv, a), in, "not_a");
  ASSERT_EQ(netlist.num_gates(), 4u);
  EXPECT_EQ(netlist.gate(0).type, CellType::Const1);
  EXPECT_EQ(netlist.gate(1).type, CellType::Const0);
  EXPECT_EQ(netlist.gate(2).type, CellType::Buf);
  EXPECT_EQ(netlist.gate(2).inputs, std::vector<Var>{in[1]});
  EXPECT_EQ(netlist.gate(3).type, CellType::Inv);
  EXPECT_EQ(netlist.gate(3).inputs, std::vector<Var>{in[0]});
}

}  // namespace
}  // namespace gfre::nl
