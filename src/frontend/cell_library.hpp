// Standard-cell library descriptions: the bridge from foundry-mapped
// netlists to the ANF engine's cell set.
//
// A library is a Liberty-flavored text file defining, per cell, its input
// pins and one output pin with a boolean function:
//
//   /* comments */
//   library (gfre_cells) {
//     cell (AOI22) {
//       pin (a1) { direction : input; }
//       pin (a2) { direction : input; }
//       pin (b1) { direction : input; }
//       pin (b2) { direction : input; }
//       pin (y)  { direction : output; function : "!((a1 & a2) | (b1 & b2))"; }
//     }
//   }
//
// The function grammar: pin names, 0/1 constants, ! or ~ (not), & (and),
// | (or), ^ (xor), ?: (mux), parentheses, and calls to previously usable
// cells — "XNOR2(XOR2(a, b), c)" — which are inlined at load time with
// recursion detection.  Unknown attributes (area, timing, ...) are
// skipped, so trimmed-down fragments of real .lib files load.
//
// After parsing, each cell's truth table goes through nl::match_truth_table
// once: AOI22 above becomes a single Aoi22 gate; a cell with no builtin
// equivalent keeps its ANF and is instantiated as nl::add_anf_gates.  A
// cell has at most nl::kMaxTableInputs input pins.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/source.hpp"
#include "netlist/cell.hpp"

namespace gfre::frontend {

/// Boolean function AST over a cell's input pins.
struct BoolExpr {
  enum class Kind { Const0, Const1, Ref, Not, And, Or, Xor, Mux };

  Kind kind = Kind::Const0;
  unsigned pin = 0;                ///< Ref: input-pin index
  std::vector<BoolExpr> operands;  ///< Not: 1; And/Or/Xor: 2; Mux: s,d0,d1

  static BoolExpr constant(bool one) {
    BoolExpr e;
    e.kind = one ? Kind::Const1 : Kind::Const0;
    return e;
  }
};

/// The truth table of `expr`, pin i being input i of the table.
nl::TruthTable bool_expr_table(const BoolExpr& expr);

/// One library cell: named input pins (declaration order defines the
/// positional pin order) and a single-output boolean function.
struct LibCell {
  std::string name;
  std::vector<std::string> inputs;  ///< input pin names, in order
  std::string output;               ///< output pin name
  BoolExpr function;                ///< over input-pin indices
  /// Builtin cell with the identical truth table, when one exists — the
  /// single-gate fast path.  Filled by nl::match_truth_table at load.
  std::optional<nl::CellType> builtin;
  /// The function's ANF (nl::mobius_transform) when `builtin` is empty.
  nl::TruthTable anf{};

  int find_input(std::string_view pin) const;
};

class CellLibrary {
 public:
  explicit CellLibrary(std::string name = "") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::vector<LibCell>& cells() const { return cells_; }
  std::size_t size() const { return cells_.size(); }

  /// Case-sensitive lookup; nullptr when absent.
  const LibCell* find(std::string_view cell_name) const;

  /// Appends a cell; throws InvalidArgument on duplicate names.
  void add(LibCell cell);

 private:
  std::string name_;
  std::vector<LibCell> cells_;
};

/// Parses library text; `filename` is used in diagnostics.  Cell function
/// calls are inlined and every cell is truth-table matched against the
/// builtin set.
CellLibrary parse_cell_library(const std::string& text,
                               const std::string& filename = "<library>");

/// Reads and parses a library file; throws gfre::Error when unreadable.
CellLibrary load_cell_library_file(const std::string& path);

}  // namespace gfre::frontend
