// Round-trip and error-handling tests for the three netlist formats:
// .eqn, BLIF and structural Verilog.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/parallel_extract.hpp"
#include "gen/karatsuba.hpp"
#include "gen/mastrovito.hpp"
#include "gen/montgomery_gate.hpp"
#include "gen/shift_add.hpp"
#include "gf2m/field.hpp"
#include "gf2poly/irreducible.hpp"
#include "helpers.hpp"
#include "netlist/io_blif.hpp"
#include "netlist/io_eqn.hpp"
#include "netlist/io_verilog.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace gfre::nl {
namespace {

using test::random_netlist;
using test::same_function;

// ---------------------------------------------------------------------------
// .eqn
// ---------------------------------------------------------------------------

TEST(EqnFormat, WriteContainsDeclarationsAndEquations) {
  const gf2m::Field field(gf2::Poly{4, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string text = write_eqn(netlist);
  EXPECT_NE(text.find("model mastrovito_m4"), std::string::npos);
  EXPECT_NE(text.find("input a0 a1 a2 a3 b0 b1 b2 b3;"), std::string::npos);
  EXPECT_NE(text.find("output z0 z1 z2 z3;"), std::string::npos);
  EXPECT_NE(text.find("pp_0_0 = AND(a0, b0);"), std::string::npos);
}

TEST(EqnFormat, RoundTripPreservesFunction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto parsed = read_eqn(write_eqn(original));
  EXPECT_EQ(parsed.num_gates(), original.num_gates());
  Prng rng(1);
  EXPECT_TRUE(same_function(original, parsed, rng));
}

TEST(EqnFormat, RoundTripRandomNetlists) {
  Prng rng(77);
  for (int i = 0; i < 10; ++i) {
    const auto original = random_netlist(rng, 6, 30, 3);
    const auto parsed = read_eqn(write_eqn(original));
    Prng check(i);
    EXPECT_TRUE(same_function(original, parsed, check)) << "round " << i;
  }
}

TEST(EqnFormat, StatementsInAnyOrder) {
  const std::string text = R"(
      output z;
      z = XOR(t, c);
      t = AND(a, b);
      input a b c;
      model reordered
  )";
  const Netlist netlist = read_eqn(text);
  EXPECT_EQ(netlist.name(), "reordered");
  EXPECT_EQ(netlist.num_gates(), 2u);
  // z = (a&b)^c: check one vector.
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, true, false})[0], true);
  EXPECT_EQ(simulator.run_single({true, false, false})[0], false);
}

TEST(EqnFormat, ConstantsAndComments) {
  const std::string text = R"(
      # a constant-driven netlist
      model consts
      input a;
      output z;
      k1 = 1;      # constant one
      k0 = CONST0();
      t = XOR(a, k1);
      z = OR(t, k0);
  )";
  const Netlist netlist = read_eqn(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({false})[0], true);
  EXPECT_EQ(simulator.run_single({true})[0], false);
}

TEST(EqnFormat, ErrorsAreDiagnosed) {
  EXPECT_THROW(read_eqn("z = AND(a, b);"), ParseError);  // undefined nets
  EXPECT_THROW(read_eqn("input a;\nz = FOO(a);\noutput z;"), ParseError);
  EXPECT_THROW(read_eqn("input a;\nz = AND(a);\noutput z;"), ParseError);
  EXPECT_THROW(read_eqn("input a;\noutput q;"), ParseError);
  EXPECT_THROW(read_eqn("input a;\nx = INV(y);\ny = INV(x);\noutput x;"),
               ParseError);  // cycle
  EXPECT_THROW(read_eqn("input a;\nx = INV(a);\nx = BUF(a);\noutput x;"),
               ParseError);  // double definition
  EXPECT_THROW(read_eqn("input a;\na = INV(a);\noutput a;"), ParseError);
}

TEST(EqnFormat, FileRoundTrip) {
  const gf2m::Field field(gf2::Poly{4, 3, 0});
  const auto original = gen::generate_mastrovito(field);
  const std::string path = ::testing::TempDir() + "/gfre_test.eqn";
  write_eqn_file(original, path);
  const auto parsed = read_eqn_file(path);
  Prng rng(3);
  EXPECT_TRUE(same_function(original, parsed, rng));
  EXPECT_THROW(read_eqn_file("/nonexistent/file.eqn"), Error);
}

// ---------------------------------------------------------------------------
// BLIF
// ---------------------------------------------------------------------------

TEST(BlifFormat, WriteStructure) {
  const gf2m::Field field(gf2::Poly{2, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string text = write_blif(netlist);
  EXPECT_EQ(text.rfind(".model mastrovito_m2", 0), 0u);
  EXPECT_NE(text.find(".inputs a0 a1 b0 b1"), std::string::npos);
  EXPECT_NE(text.find(".outputs z0 z1"), std::string::npos);
  EXPECT_NE(text.find(".end"), std::string::npos);
}

TEST(BlifFormat, RoundTripPreservesFunction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto parsed = read_blif(write_blif(original));
  Prng rng(5);
  EXPECT_TRUE(same_function(original, parsed, rng));
}

TEST(BlifFormat, RoundTripRandomNetlistsWithComplexCells) {
  Prng rng(99);
  for (int i = 0; i < 10; ++i) {
    const auto original = random_netlist(rng, 5, 25, 2);
    const auto parsed = read_blif(write_blif(original));
    Prng check(1000 + i);
    EXPECT_TRUE(same_function(original, parsed, check)) << "round " << i;
  }
}

TEST(BlifFormat, ReadsHandWrittenCovers) {
  const std::string text = R"(
# hand-written
.model demo
.inputs a b c
.outputs y z w k
.names a b t
11 1
.names t c y
0- 1
-0 1
.names z
1
.names a w
0 1
.names a b c k
1-0 1
-11 1
.end
)";
  const Netlist netlist = read_blif(text);
  sim::Simulator simulator(netlist);
  // y = !(t) | !(c) where t = a&b  => y = !(a&b) | !c = !(a&b&c)
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    const bool a = assignment & 1, b = assignment & 2, c = assignment & 4;
    const auto out = simulator.run_single({a, b, c});
    EXPECT_EQ(out[0], !(a && b && c)) << assignment;
    EXPECT_EQ(out[1], true);       // z constant 1
    EXPECT_EQ(out[2], !a);         // w = INV(a)
    EXPECT_EQ(out[3], (a && !c) || (b && c));  // k two-row cover
  }
  // Each cover is one cell when a builtin has its function: t is an AND,
  // y = !t | !c a NAND, w an INV.  k, a mux whose select is the last pin,
  // has no builtin and becomes its ANF a + ac + bc: two ANDs under an XOR.
  const auto histogram = netlist.cell_histogram();
  EXPECT_EQ(histogram.at(CellType::And), 3u);
  EXPECT_EQ(histogram.at(CellType::Nand), 1u);
  EXPECT_EQ(histogram.at(CellType::Inv), 1u);
  EXPECT_EQ(histogram.at(CellType::Xor), 1u);
  EXPECT_EQ(histogram.at(CellType::Const1), 1u);
  EXPECT_EQ(netlist.num_gates(), 7u);
}

TEST(BlifFormat, OutputPolarityZeroCover) {
  const std::string text =
      ".model inv\n.inputs a b\n.outputs z\n.names a b z\n11 0\n.end\n";
  const Netlist netlist = read_blif(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, true})[0], false);
  EXPECT_EQ(simulator.run_single({true, false})[0], true);
}

TEST(BlifFormat, CoverDiagnosticsKeepTheirMessageAndLine) {
  // The same three cover faults, on a cover the truth-table path reads (2
  // columns) and on one past it (9 columns, sum of products), are pinned
  // to the .names line with the same message.
  for (const std::size_t n : {std::size_t{2}, std::size_t{9}}) {
    std::string inputs, columns;
    for (std::size_t i = 0; i < n; ++i) {
      inputs += " i" + std::to_string(i);
      columns += "1";
    }
    const std::string head = ".model x\n.inputs" + inputs +
                             "\n.outputs z\n.names" + inputs + " z\n";
    std::string bad_literal = columns;
    bad_literal[1] = 'x';
    const std::pair<std::string, std::string> cases[] = {
        {"1 1\n", "bad cover row '1 1'"},
        {columns + " 1\n" + std::string(n, '0') + " 0\n",
         "mixed cover polarities"},
        {bad_literal + " 1\n", "bad cover literal '" + bad_literal + "'"},
    };
    for (const auto& [rows, message] : cases) {
      try {
        read_blif(head + rows + ".end\n", "c.blif");
        ADD_FAILURE() << "parsed: " << rows;
      } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 4) << e.what();
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(BlifFormat, ContinuationLines) {
  const std::string text =
      ".model c\n.inputs \\\na b\n.outputs z\n.names a b z\n11 1\n.end\n";
  const Netlist netlist = read_blif(text);
  EXPECT_EQ(netlist.inputs().size(), 2u);
}

TEST(BlifFormat, Errors) {
  EXPECT_THROW(read_blif(".model x\n.latch a b\n.end\n"), ParseError);
  EXPECT_THROW(read_blif(".model x\n11 1\n.end\n"), ParseError);
  EXPECT_THROW(
      read_blif(".model x\n.inputs a\n.outputs z\n.names a z\n1 1\n0 0\n.end"),
      ParseError);  // mixed polarity
  EXPECT_THROW(
      read_blif(".model x\n.inputs a\n.outputs z\n.names a q z\n11 1\n.end"),
      ParseError);  // undefined q
  // Source names never bind to helper nets an earlier .names block
  // auto-named: "01 1" (!a & b, no builtin) becomes its ANF b + ab, whose
  // AND helper is called n0.  Both statement orders must diagnose the
  // same way.
  const std::string inverter = ".names a b x\n01 1\n";
  const std::string reads_n0 = ".names n0 w\n1 1\n";
  const std::string head = ".model x\n.inputs a b\n.outputs x w\n";
  for (const std::string& body :
       {inverter + reads_n0, reads_n0 + inverter}) {
    try {
      read_blif(head + body + ".end\n");
      FAIL() << "w bound to a helper net:\n" << body;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("undefined net 'n0'"),
                std::string::npos)
          << e.what();
    }
  }
  // A primary output never binds to a helper either, whether or not the
  // block that creates it comes first.
  for (const std::string& body :
       {inverter, ".names a w\n1 1\n" + inverter}) {
    try {
      read_blif(".model x\n.inputs a b\n.outputs x n0\n" + body + ".end\n");
      FAIL() << "n0 bound to a helper net:\n" << body;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("undriven output 'n0'"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Verilog
// ---------------------------------------------------------------------------

TEST(VerilogFormat, WriteStructure) {
  const gf2m::Field field(gf2::Poly{2, 1, 0});
  const auto netlist = gen::generate_mastrovito(field);
  const std::string text = write_verilog(netlist);
  EXPECT_NE(text.find("module mastrovito_m2"), std::string::npos);
  EXPECT_NE(text.find("input a0;"), std::string::npos);
  EXPECT_NE(text.find("output z0;"), std::string::npos);
  EXPECT_NE(text.find("assign"), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(VerilogFormat, RoundTripPreservesFunction) {
  const gf2m::Field field(gf2::Poly{8, 4, 3, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto parsed = read_verilog(write_verilog(original));
  Prng rng(7);
  EXPECT_TRUE(same_function(original, parsed, rng));
}

TEST(VerilogFormat, RoundTripRandomNetlists) {
  Prng rng(1234);
  for (int i = 0; i < 10; ++i) {
    const auto original = random_netlist(rng, 5, 20, 2);
    const auto parsed = read_verilog(write_verilog(original));
    Prng check(2000 + i);
    EXPECT_TRUE(same_function(original, parsed, check)) << "round " << i;
  }
}

TEST(VerilogFormat, OperatorPrecedence) {
  // ~ binds tighter than &, & tighter than ^, ^ tighter than |.
  const std::string text = R"(
    module prec(a, b, c, z);
      input a; input b; input c;
      output z;
      assign z = a | b ^ c & ~a;
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  sim::Simulator simulator(netlist);
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    const bool a = assignment & 1, b = assignment & 2, c = assignment & 4;
    const bool expected = a | (b ^ (c & !a));
    EXPECT_EQ(simulator.run_single({a, b, c})[0], expected) << assignment;
  }
}

TEST(VerilogFormat, TernaryAndLiterals) {
  const std::string text = R"(
    module mux(s, a, b, z, k);
      input s; input a; input b;
      output z; output k;
      assign z = s ? a : b;
      assign k = 1'b1 ^ (s & 1'b0);
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true, true, false})[0], true);
  EXPECT_EQ(simulator.run_single({false, true, false})[0], false);
  EXPECT_EQ(simulator.run_single({true, false, false})[1], true);
}

TEST(VerilogFormat, AssignsWithABuiltinFunctionBecomeOneCell) {
  // What write_verilog prints for NAND, XNOR3 and MAJ3 reads back as that
  // one cell; an expression no cell computes keeps one gate per operator.
  const std::string text = R"(
    module cells(a, b, c, n, x, m, p);
      input a; input b; input c;
      output n; output x; output m; output p;
      assign n = ~(a & b);
      assign x = ~(a ^ b ^ c);
      assign m = (a & b) | (a & c) | (b & c);
      assign p = a | b ^ c & ~a;
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  const auto type_of = [&](const char* name) {
    const Var net = *netlist.find_var(name);
    const auto gate = std::find_if(
        netlist.gates().begin(), netlist.gates().end(),
        [net](const Gate& g) { return g.output == net; });
    return gate == netlist.gates().end() ? CellType::Buf : gate->type;
  };
  EXPECT_EQ(type_of("n"), CellType::Nand);
  EXPECT_EQ(type_of("x"), CellType::Xnor);
  EXPECT_EQ(type_of("m"), CellType::Maj3);
  EXPECT_EQ(type_of("p"), CellType::Or);
  EXPECT_EQ(netlist.num_gates(), 3u + 4u);  // p: INV, AND, XOR, OR
}

TEST(VerilogFormat, OutOfOrderAssignsAndComments) {
  const std::string text = R"(
    // comment
    module ooo(a, z);
      input a;
      output z;
      wire t; /* block
                 comment */
      assign z = ~t;
      assign t = ~a;
    endmodule
  )";
  const Netlist netlist = read_verilog(text);
  sim::Simulator simulator(netlist);
  EXPECT_EQ(simulator.run_single({true})[0], true);
}

TEST(VerilogFormat, Errors) {
  EXPECT_THROW(read_verilog("module m(a); input a; assign a = a; endmodule"),
               ParseError);
  EXPECT_THROW(
      read_verilog("module m(z); output z; assign z = q; endmodule"),
      ParseError);  // undefined operand
  EXPECT_THROW(
      read_verilog(
          "module m(z); output z; wire x; wire y;"
          "assign x = ~y; assign y = ~x; assign z = x; endmodule"),
      ParseError);  // combinational cycle
  EXPECT_THROW(read_verilog("module m(z); output z; assign z = 2'b10;"
                            " endmodule"),
               ParseError);  // unsupported literal
}

// Every generator family, from small fields to NIST B-163 size.  Each
// cover write_blif emits reads back as the one cell that wrote it, so a
// BLIF round trip keeps the netlist's own gates and extraction does the
// same work from BLIF as from .eqn.
TEST(CrossFormat, BlifRoundTripKeepsEveryFamilysGates) {
  for (unsigned m : {8u, 16u, 64u, 163u}) {
    const gf2m::Field field(gf2::default_irreducible(m));
    gen::MastrovitoOptions matrix;
    matrix.style = gen::MastrovitoOptions::Style::Matrix;
    gen::MontgomeryOptions raw;
    raw.raw = true;
    const std::pair<const char*, Netlist> families[] = {
        {"mastrovito", gen::generate_mastrovito(field)},
        {"mastrovito_matrix", gen::generate_mastrovito(field, matrix)},
        {"montgomery", gen::generate_montgomery(field)},
        {"montgomery_raw", gen::generate_montgomery(field, raw)},
        {"karatsuba", gen::generate_karatsuba(field)},
        {"shift_add", gen::generate_shift_add(field)},
    };
    for (const auto& [family, netlist] : families) {
      const std::string label = std::string(family) + " m=" +
                                std::to_string(m);
      const Netlist via_eqn = read_eqn(write_eqn(netlist));
      const Netlist via_blif = read_blif(write_blif(netlist));
      EXPECT_EQ(via_blif.num_gates(), netlist.num_gates()) << label;
      EXPECT_EQ(via_blif.cell_histogram(), netlist.cell_histogram()) << label;
      const auto from_eqn = core::extract_all_outputs(via_eqn, 2);
      const auto from_blif = core::extract_all_outputs(via_blif, 2);
      ASSERT_EQ(from_blif.per_bit.size(), from_eqn.per_bit.size()) << label;
      for (std::size_t bit = 0; bit < from_eqn.per_bit.size(); ++bit) {
        EXPECT_EQ(from_blif.per_bit[bit].substitutions,
                  from_eqn.per_bit[bit].substitutions)
            << label << " bit " << bit;
        EXPECT_EQ(from_blif.per_bit[bit].peak_terms,
                  from_eqn.per_bit[bit].peak_terms)
            << label << " bit " << bit;
      }
    }
  }
}

// Cross-format: eqn -> blif -> verilog -> eqn preserves the function.
TEST(CrossFormat, FullConversionChain) {
  const gf2m::Field field(gf2::Poly{4, 1, 0});
  const auto original = gen::generate_mastrovito(field);
  const auto via_eqn = read_eqn(write_eqn(original));
  const auto via_blif = read_blif(write_blif(via_eqn));
  const auto via_verilog = read_verilog(write_verilog(via_blif));
  Prng rng(9);
  EXPECT_TRUE(same_function(original, via_verilog, rng));
}

}  // namespace
}  // namespace gfre::nl
