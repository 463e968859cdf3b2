#include "netlist/cell.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace gfre::nl {

namespace {

constexpr std::array<CellType, 16> kAllCells = {
    CellType::Const0, CellType::Const1, CellType::Buf,   CellType::Inv,
    CellType::And,    CellType::Or,     CellType::Xor,   CellType::Xnor,
    CellType::Nand,   CellType::Nor,    CellType::Mux,   CellType::Aoi21,
    CellType::Oai21,  CellType::Aoi22,  CellType::Oai22, CellType::Maj3,
};

}  // namespace

std::span<const CellType> all_cell_types() { return kAllCells; }

std::string cell_name(CellType type) {
  switch (type) {
    case CellType::Const0: return "CONST0";
    case CellType::Const1: return "CONST1";
    case CellType::Buf: return "BUF";
    case CellType::Inv: return "INV";
    case CellType::And: return "AND";
    case CellType::Or: return "OR";
    case CellType::Xor: return "XOR";
    case CellType::Xnor: return "XNOR";
    case CellType::Nand: return "NAND";
    case CellType::Nor: return "NOR";
    case CellType::Mux: return "MUX";
    case CellType::Aoi21: return "AOI21";
    case CellType::Oai21: return "OAI21";
    case CellType::Aoi22: return "AOI22";
    case CellType::Oai22: return "OAI22";
    case CellType::Maj3: return "MAJ3";
  }
  throw InvalidArgument("unknown cell type");
}

CellType cell_from_name(const std::string& name) {
  std::string up = name;
  std::transform(up.begin(), up.end(), up.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  for (CellType t : kAllCells) {
    if (cell_name(t) == up) return t;
  }
  // Common aliases used by synthesis netlists.
  if (up == "NOT") return CellType::Inv;
  if (up == "BUFF") return CellType::Buf;
  if (up == "AND2" || up == "AND3" || up == "AND4") return CellType::And;
  if (up == "OR2" || up == "OR3" || up == "OR4") return CellType::Or;
  if (up == "XOR2" || up == "XOR3") return CellType::Xor;
  if (up == "XNOR2") return CellType::Xnor;
  if (up == "NAND2" || up == "NAND3" || up == "NAND4") return CellType::Nand;
  if (up == "NOR2" || up == "NOR3") return CellType::Nor;
  if (up == "MUX2") return CellType::Mux;
  throw InvalidArgument("unknown cell name '" + name + "'");
}

bool arity_ok(CellType type, std::size_t arity) {
  switch (type) {
    case CellType::Const0:
    case CellType::Const1:
      return arity == 0;
    case CellType::Buf:
    case CellType::Inv:
      return arity == 1;
    case CellType::And:
    case CellType::Nand:
      return arity >= 2 && arity <= kMaxAndArity;
    case CellType::Or:
    case CellType::Nor:
      return arity >= 2 && arity <= kMaxOrArity;
    case CellType::Xor:
    case CellType::Xnor:
      return arity >= 2 && arity <= kMaxAndArity;
    case CellType::Mux:
    case CellType::Aoi21:
    case CellType::Oai21:
    case CellType::Maj3:
      return arity == 3;
    case CellType::Aoi22:
    case CellType::Oai22:
      return arity == 4;
  }
  return false;
}

bool eval_cell(CellType type, std::span<const bool> in) {
  GFRE_ASSERT(arity_ok(type, in.size()),
              "bad arity " << in.size() << " for " << cell_name(type));
  switch (type) {
    case CellType::Const0: return false;
    case CellType::Const1: return true;
    case CellType::Buf: return in[0];
    case CellType::Inv: return !in[0];
    case CellType::And: {
      for (bool b : in) if (!b) return false;
      return true;
    }
    case CellType::Nand: {
      for (bool b : in) if (!b) return true;
      return false;
    }
    case CellType::Or: {
      for (bool b : in) if (b) return true;
      return false;
    }
    case CellType::Nor: {
      for (bool b : in) if (b) return false;
      return true;
    }
    case CellType::Xor: {
      bool acc = false;
      for (bool b : in) acc ^= b;
      return acc;
    }
    case CellType::Xnor: {
      bool acc = true;
      for (bool b : in) acc ^= b;
      return acc;
    }
    case CellType::Mux: return in[0] ? in[2] : in[1];
    case CellType::Aoi21: return !((in[0] && in[1]) || in[2]);
    case CellType::Oai21: return !((in[0] || in[1]) && in[2]);
    case CellType::Aoi22: return !((in[0] && in[1]) || (in[2] && in[3]));
    case CellType::Oai22: return !((in[0] || in[1]) && (in[2] || in[3]));
    case CellType::Maj3:
      return (in[0] && in[1]) || (in[0] && in[2]) || (in[1] && in[2]);
  }
  throw InvalidArgument("unknown cell type");
}

std::uint64_t eval_cell_words(CellType type,
                              std::span<const std::uint64_t> in) {
  GFRE_ASSERT(arity_ok(type, in.size()),
              "bad arity " << in.size() << " for " << cell_name(type));
  constexpr std::uint64_t kOnes = ~0ull;
  switch (type) {
    case CellType::Const0: return 0;
    case CellType::Const1: return kOnes;
    case CellType::Buf: return in[0];
    case CellType::Inv: return ~in[0];
    case CellType::And: {
      std::uint64_t acc = kOnes;
      for (auto w : in) acc &= w;
      return acc;
    }
    case CellType::Nand: {
      std::uint64_t acc = kOnes;
      for (auto w : in) acc &= w;
      return ~acc;
    }
    case CellType::Or: {
      std::uint64_t acc = 0;
      for (auto w : in) acc |= w;
      return acc;
    }
    case CellType::Nor: {
      std::uint64_t acc = 0;
      for (auto w : in) acc |= w;
      return ~acc;
    }
    case CellType::Xor: {
      std::uint64_t acc = 0;
      for (auto w : in) acc ^= w;
      return acc;
    }
    case CellType::Xnor: {
      std::uint64_t acc = 0;
      for (auto w : in) acc ^= w;
      return ~acc;
    }
    case CellType::Mux: return (in[0] & in[2]) | (~in[0] & in[1]);
    case CellType::Aoi21: return ~((in[0] & in[1]) | in[2]);
    case CellType::Oai21: return ~((in[0] | in[1]) & in[2]);
    case CellType::Aoi22: return ~((in[0] & in[1]) | (in[2] & in[3]));
    case CellType::Oai22: return ~((in[0] | in[1]) & (in[2] | in[3]));
    case CellType::Maj3:
      return (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2]);
  }
  throw InvalidArgument("unknown cell type");
}

namespace {

using anf::Anf;
using anf::Var;

// OR over variables = 1 + prod(1 + v_i); expanding the product yields every
// nonempty subset of the inputs as a monomial.
Anf or_anf(std::span<const Var> in) {
  Anf prod = Anf::one();
  for (Var v : in) {
    prod = prod * (Anf::one() + Anf::var(v));
  }
  return Anf::one() + prod;
}

Anf and_anf(std::span<const Var> in) {
  Anf prod = Anf::one();
  for (Var v : in) prod = prod * Anf::var(v);
  return prod;
}

Anf xor_anf(std::span<const Var> in) {
  Anf sum;
  for (Var v : in) sum += Anf::var(v);
  return sum;
}

}  // namespace

anf::Anf cell_anf(CellType type, std::span<const anf::Var> in) {
  GFRE_ASSERT(arity_ok(type, in.size()),
              "bad arity " << in.size() << " for " << cell_name(type));
  using anf::Anf;
  switch (type) {
    case CellType::Const0: return Anf::zero();
    case CellType::Const1: return Anf::one();
    case CellType::Buf: return Anf::var(in[0]);
    case CellType::Inv: return Anf::one() + Anf::var(in[0]);
    case CellType::And: return and_anf(in);
    case CellType::Nand: return Anf::one() + and_anf(in);
    case CellType::Or: return or_anf(in);
    case CellType::Nor: return Anf::one() + or_anf(in);
    case CellType::Xor: return xor_anf(in);
    case CellType::Xnor: return Anf::one() + xor_anf(in);
    case CellType::Mux:
      // s?d1:d0 = d0 + s*d0 + s*d1
      return Anf::var(in[1]) + Anf::var(in[0]) * Anf::var(in[1]) +
             Anf::var(in[0]) * Anf::var(in[2]);
    case CellType::Aoi21:
    case CellType::Oai21:
    case CellType::Aoi22:
    case CellType::Oai22:
    case CellType::Maj3:
      break;
  }
  // Complex cells: compose from the primitive ANFs (kept out of the switch
  // so each formula reads like its schematic).
  using anf::Var;
  const auto v = [](Var x) { return Anf::var(x); };
  switch (type) {
    case CellType::Aoi21:  // !((a&b) | c)
      return Anf::one() + (v(in[0]) * v(in[1]) + v(in[2]) +
                           v(in[0]) * v(in[1]) * v(in[2]));
    case CellType::Oai21:  // !((a|b) & c)
      return Anf::one() +
             (v(in[0]) + v(in[1]) + v(in[0]) * v(in[1])) * v(in[2]);
    case CellType::Aoi22: {  // !((a&b) | (c&d))
      const Anf ab = v(in[0]) * v(in[1]);
      const Anf cd = v(in[2]) * v(in[3]);
      return Anf::one() + ab + cd + ab * cd;
    }
    case CellType::Oai22: {  // !((a|b) & (c|d))
      const Anf ab = v(in[0]) + v(in[1]) + v(in[0]) * v(in[1]);
      const Anf cd = v(in[2]) + v(in[3]) + v(in[2]) * v(in[3]);
      return Anf::one() + ab * cd;
    }
    case CellType::Maj3:  // ab + ac + bc (mod 2: abc terms cancel pairwise)
      return v(in[0]) * v(in[1]) + v(in[0]) * v(in[2]) +
             v(in[1]) * v(in[2]);
    default:
      break;
  }
  throw InvalidArgument("unknown cell type");
}

// -- Truth tables -----------------------------------------------------------

namespace {

constexpr std::array<TruthTable, kMaxTableInputs> kInputTables = {{
    {0xAAAAAAAAAAAAAAAAull, 0xAAAAAAAAAAAAAAAAull, 0xAAAAAAAAAAAAAAAAull,
     0xAAAAAAAAAAAAAAAAull},
    {0xCCCCCCCCCCCCCCCCull, 0xCCCCCCCCCCCCCCCCull, 0xCCCCCCCCCCCCCCCCull,
     0xCCCCCCCCCCCCCCCCull},
    {0xF0F0F0F0F0F0F0F0ull, 0xF0F0F0F0F0F0F0F0ull, 0xF0F0F0F0F0F0F0F0ull,
     0xF0F0F0F0F0F0F0F0ull},
    {0xFF00FF00FF00FF00ull, 0xFF00FF00FF00FF00ull, 0xFF00FF00FF00FF00ull,
     0xFF00FF00FF00FF00ull},
    {0xFFFF0000FFFF0000ull, 0xFFFF0000FFFF0000ull, 0xFFFF0000FFFF0000ull,
     0xFFFF0000FFFF0000ull},
    {0xFFFFFFFF00000000ull, 0xFFFFFFFF00000000ull, 0xFFFFFFFF00000000ull,
     0xFFFFFFFF00000000ull},
    {0, ~0ull, 0, ~0ull},
    {0, 0, ~0ull, ~0ull},
}};

/// `table` with the rows at and above 2^n cleared.
TruthTable masked(TruthTable table, std::size_t n) {
  if (n < 6) {
    table[0] &= (std::uint64_t{1} << (std::size_t{1} << n)) - 1;
    table[1] = table[2] = table[3] = 0;
  } else {
    for (std::size_t w = std::size_t{1} << (n - 6); w < table.size(); ++w)
      table[w] = 0;
  }
  return table;
}

/// Per arity, the masked table of every builtin cell taking that many
/// inputs, in all_cell_types() order.
using CellTables =
    std::array<std::vector<std::pair<CellType, TruthTable>>,
               kMaxTableInputs + 1>;

const CellTables& builtin_tables() {
  static const CellTables tables = [] {
    CellTables out;
    for (std::size_t n = 0; n <= kMaxTableInputs; ++n) {
      const std::span<const TruthTable> inputs(kInputTables.data(), n);
      for (CellType type : kAllCells) {
        if (arity_ok(type, n))
          out[n].emplace_back(type, masked(cell_table(type, inputs), n));
      }
    }
    return out;
  }();
  return tables;
}

}  // namespace

const TruthTable& input_table(std::size_t i) {
  GFRE_ASSERT(i < kMaxTableInputs, "no truth-table input " << i);
  return kInputTables[i];
}

TruthTable cell_table(CellType type, std::span<const TruthTable> inputs) {
  GFRE_ASSERT(arity_ok(type, inputs.size()),
              "bad arity " << inputs.size() << " for " << cell_name(type));
  std::array<std::uint64_t, kMaxAndArity> words{};
  TruthTable out{};
  for (std::size_t w = 0; w < out.size(); ++w) {
    for (std::size_t i = 0; i < inputs.size(); ++i) words[i] = inputs[i][w];
    out[w] = eval_cell_words(
        type, std::span<const std::uint64_t>(words.data(), inputs.size()));
  }
  return out;
}

std::optional<CellType> match_truth_table(const TruthTable& table,
                                          std::size_t n) {
  GFRE_ASSERT(n <= kMaxTableInputs, "truth table of " << n << " inputs");
  const TruthTable want = masked(table, n);
  for (const auto& [type, cell] : builtin_tables()[n]) {
    if (cell == want) return type;
  }
  return std::nullopt;
}

TruthTable mobius_transform(const TruthTable& table, std::size_t n) {
  GFRE_ASSERT(n <= kMaxTableInputs, "truth table of " << n << " inputs");
  TruthTable anf = masked(table, n);
  // Butterfly per input: every row with input i set absorbs the row
  // without it.  Inputs 0..5 pair bits within a word, 6 and 7 pair words.
  for (std::size_t i = 0; i < std::min<std::size_t>(n, 6); ++i) {
    const std::size_t shift = std::size_t{1} << i;
    const std::uint64_t with_input = kInputTables[i][0];
    for (std::uint64_t& word : anf) word ^= (word << shift) & with_input;
  }
  if (n > 6) {
    anf[1] ^= anf[0];
    anf[3] ^= anf[2];
  }
  if (n > 7) {
    anf[2] ^= anf[0];
    anf[3] ^= anf[1];
  }
  return anf;
}

}  // namespace gfre::nl
