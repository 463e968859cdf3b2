// Cell library for gate-level netlists.
//
// The paper's circuit model (Section III-A) covers basic gates plus the
// complex standard cells produced by synthesis and technology mapping
// (AOI, OAI, ...).  Each cell here provides:
//   * a Boolean evaluator (single-bit and 64-way bit-parallel), and
//   * an exact ANF model — Eq. (1) generalized to every cell — which is
//     what backward rewriting substitutes.
// The ANF of fixed-function cells is derived analytically; anything new can
// be added through Anf::from_truth_table.
//
// Every reader turns a function given as a table or an expression — a
// BLIF cover, a Liberty cell, a Verilog assign — into cells through one
// matcher: match_truth_table finds the builtin cell with that function,
// and mobius_transform gives the ANF of one that has none.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anf/anf.hpp"

namespace gfre::nl {

/// Supported cell functions.  And/Or/Xor/Xnor/Nand/Nor are variadic
/// (arity >= 2; OR-family arity capped to keep ANF expansion bounded).
enum class CellType {
  Const0,  ///< constant 0 (no inputs)
  Const1,  ///< constant 1 (no inputs)
  Buf,     ///< identity
  Inv,     ///< NOT
  And,     ///< n-input AND
  Or,      ///< n-input OR
  Xor,     ///< n-input XOR
  Xnor,    ///< n-input XNOR
  Nand,    ///< n-input NAND
  Nor,     ///< n-input NOR
  Mux,     ///< Mux(s, d0, d1) = s ? d1 : d0
  Aoi21,   ///< !((a & b) | c)
  Oai21,   ///< !((a | b) & c)
  Aoi22,   ///< !((a & b) | (c & d))
  Oai22,   ///< !((a | b) & (c | d))
  Maj3,    ///< majority of three
};

/// Arity cap of the AND and XOR families (and their negations).
inline constexpr std::size_t kMaxAndArity = 64;

/// Arity cap of the OR family: its ANF has 2^n - 1 monomials, so the cap
/// keeps a malformed netlist from blowing up the rewriter.
inline constexpr std::size_t kMaxOrArity = 8;

/// All cell types, for iteration in tests.
std::span<const CellType> all_cell_types();

/// Canonical upper-case mnemonic ("AND", "AOI21", ...).
std::string cell_name(CellType type);

/// Inverse of cell_name (case-insensitive); throws InvalidArgument on
/// unknown names.
CellType cell_from_name(const std::string& name);

/// Checks whether `arity` inputs are legal for the cell type.
bool arity_ok(CellType type, std::size_t arity);

/// Single-bit evaluation.
bool eval_cell(CellType type, std::span<const bool> inputs);

/// 64-way bit-parallel evaluation (one call simulates 64 input vectors).
std::uint64_t eval_cell_words(CellType type,
                              std::span<const std::uint64_t> inputs);

/// Exact ANF of the cell over the given input variables — the polynomial
/// backward rewriting substitutes for the cell's output variable.
anf::Anf cell_anf(CellType type, std::span<const anf::Var> inputs);

// -- Truth tables -----------------------------------------------------------

/// Most inputs a truth table holds.
inline constexpr std::size_t kMaxTableInputs = 8;

/// Bit-parallel truth table of a function of n <= 8 inputs: bit r (bit
/// r % 64 of word r / 64) is the value at input row r, where input i is
/// bit i of r.  Rows at and above 2^n are ignored.
using TruthTable = std::array<std::uint64_t, 4>;

/// The table of input i alone (i < kMaxTableInputs).
const TruthTable& input_table(std::size_t i);

/// The table of a cell whose inputs have the given tables: 256-way
/// bit-parallel evaluation, so an expression tree of cells over
/// input_table() leaves evaluates to the expression's truth table.
TruthTable cell_table(CellType type, std::span<const TruthTable> inputs);

/// The builtin cell computing `table` over n inputs with the pins in the
/// same order (pin i is input i), or nullopt when no cell of arity n has
/// that function.
std::optional<CellType> match_truth_table(const TruthTable& table,
                                          std::size_t n);

/// The Möbius transform of an n-input table: bit r of the result is the
/// ANF coefficient of the monomial over the inputs set in r (bit 0 is the
/// constant term).  Rows at and above 2^n come out zero.
TruthTable mobius_transform(const TruthTable& table, std::size_t n);

}  // namespace gfre::nl
