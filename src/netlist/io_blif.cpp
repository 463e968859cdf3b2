#include "netlist/io_blif.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "frontend/graph.hpp"
#include "frontend/source.hpp"
#include "util/error.hpp"

namespace gfre::nl {

namespace {

// -- Writing ---------------------------------------------------------------

/// Emits the SOP cover of a cell.  Rows are over the gate's inputs in order;
/// the final column is the output value.
void write_cover(std::ostream& out, const Gate& gate) {
  const std::size_t n = gate.inputs.size();
  switch (gate.type) {
    case CellType::Const0:
      // Empty cover = constant 0.
      return;
    case CellType::Const1:
      out << "1\n";
      return;
    case CellType::Buf:
      out << "1 1\n";
      return;
    case CellType::Inv:
      out << "0 1\n";
      return;
    case CellType::And:
      out << std::string(n, '1') << " 1\n";
      return;
    case CellType::Nand:
      out << std::string(n, '1') << " 0\n";
      return;
    case CellType::Or:
      for (std::size_t i = 0; i < n; ++i) {
        std::string row(n, '-');
        row[i] = '1';
        out << row << " 1\n";
      }
      return;
    case CellType::Nor:
      out << std::string(n, '0') << " 1\n";
      return;
    default:
      break;
  }
  // Generic fallback: enumerate the truth table rows evaluating to 1.
  GFRE_ASSERT(n <= kMaxTableInputs, "cover enumeration too wide");
  std::array<bool, kMaxTableInputs> in{};
  for (std::size_t row = 0; row < (std::size_t{1} << n); ++row) {
    for (std::size_t i = 0; i < n; ++i) in[i] = (row >> i) & 1;
    if (eval_cell(gate.type, std::span<const bool>(in.data(), n))) {
      std::string bits(n, '0');
      for (std::size_t i = 0; i < n; ++i) {
        if (in[i]) bits[i] = '1';
      }
      out << bits << " 1\n";
    }
  }
}

// -- Reading ---------------------------------------------------------------

struct NamesNode {
  std::vector<std::string> rows;     // cover rows like "1-0 1"
  frontend::Loc loc;
};

/// The whitespace-separated tokens of `line`, as views into it, in
/// `tokens`.
void split_ws(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  for (std::size_t begin = line.find_first_not_of(kSpace);
       begin != std::string_view::npos;) {
    const std::size_t end = std::min(line.find_first_of(kSpace, begin),
                                     line.size());
    tokens.push_back(line.substr(begin, end - begin));
    begin = line.find_first_not_of(kSpace, end);
  }
}

/// Builds gates for one .names node.  `inputs` are the resolved argument
/// nets (cover columns, in order).  A cover of at most kMaxTableInputs
/// columns becomes the gates of its truth table — one builtin cell when
/// one has that function, its ANF otherwise; a wider cover becomes a sum
/// of products, whose shared `inv_cache` keeps one INV per inverted
/// literal across the whole file.
void synthesize_node(Netlist& netlist, const NamesNode& node,
                     const std::vector<Var>& inputs,
                     const std::string& out_name,
                     std::unordered_map<Var, Var>& inv_cache) {
  const std::size_t n = inputs.size();

  // Parse rows into (mask, polarity) pairs.
  struct Row {
    std::string_view bits;
    bool value;
  };
  std::vector<Row> rows;
  std::vector<std::string_view> tokens;
  for (const auto& text : node.rows) {
    split_ws(text, tokens);
    if (n == 0) {
      if (tokens.size() != 1 || (tokens[0] != "0" && tokens[0] != "1")) {
        frontend::fail_at(node.loc, "bad constant cover row");
      }
      rows.push_back(Row{"", tokens[0] == "1"});
      continue;
    }
    if (tokens.size() != 2 || tokens[0].size() != n ||
        (tokens[1] != "0" && tokens[1] != "1")) {
      frontend::fail_at(node.loc, "bad cover row '" + text + "'");
    }
    rows.push_back(Row{tokens[0], tokens[1] == "1"});
  }

  // All rows must share one output polarity (standard BLIF).
  bool polarity = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0) {
      polarity = rows[i].value;
    } else if (rows[i].value != polarity) {
      frontend::fail_at(node.loc, "mixed cover polarities");
    }
  }

  if (rows.empty()) {
    netlist.add_gate(CellType::Const0, {}, out_name);
    return;
  }
  if (n == 0) {
    netlist.add_gate(polarity ? CellType::Const1 : CellType::Const0, {},
                     out_name);
    return;
  }
  const auto bad_literal = [&node](std::string_view bits) {
    frontend::fail_at(node.loc,
                      "bad cover literal '" + std::string(bits) + "'");
  };

  if (n <= kMaxTableInputs) {
    // The ON-set: the OR of the rows' cubes, complemented for polarity 0.
    TruthTable on{};
    for (const auto& row : rows) {
      TruthTable cube;
      cube.fill(~0ull);
      for (std::size_t i = 0; i < n; ++i) {
        const char literal = row.bits[i];
        if (literal == '-') continue;
        if (literal != '0' && literal != '1') bad_literal(row.bits);
        const TruthTable& in = input_table(i);
        for (std::size_t w = 0; w < cube.size(); ++w)
          cube[w] &= literal == '1' ? in[w] : ~in[w];
      }
      for (std::size_t w = 0; w < on.size(); ++w) on[w] |= cube[w];
    }
    if (!polarity) {
      for (std::uint64_t& word : on) word = ~word;
    }
    add_truth_table_gates(netlist, on, inputs, out_name);
    return;
  }

  auto inverted = [&](Var v) -> Var {
    const auto it = inv_cache.find(v);
    if (it != inv_cache.end()) return it->second;
    const Var inv = netlist.add_gate(CellType::Inv, {v});
    inv_cache.emplace(v, inv);
    return inv;
  };

  // Each row -> product term; OR of terms; invert if polarity is 0.
  std::vector<Var> terms;
  for (const auto& row : rows) {
    std::vector<Var> literals;
    for (std::size_t i = 0; i < n; ++i) {
      if (row.bits[i] == '1') {
        literals.push_back(inputs[i]);
      } else if (row.bits[i] == '0') {
        literals.push_back(inverted(inputs[i]));
      } else if (row.bits[i] != '-') {
        bad_literal(row.bits);
      }
    }
    if (literals.empty()) {
      // Row of all don't-cares: tautology.
      terms.push_back(netlist.add_gate(CellType::Const1, {}));
    } else if (literals.size() == 1) {
      terms.push_back(literals[0]);
    } else {
      terms.push_back(netlist.add_gate(CellType::And, literals));
    }
  }

  // OR chain (bounded arity); final gate carries the node's output name.
  auto reduce_or = [&](std::vector<Var> operands, const std::string& name,
                       bool invert) -> Var {
    while (operands.size() > 4) {
      std::vector<Var> next;
      for (std::size_t i = 0; i < operands.size(); i += 4) {
        const std::size_t chunk = std::min<std::size_t>(4, operands.size() - i);
        if (chunk == 1) {
          next.push_back(operands[i]);
        } else {
          next.push_back(netlist.add_gate(
              CellType::Or,
              std::vector<Var>(operands.begin() + i,
                               operands.begin() + i + chunk)));
        }
      }
      operands = std::move(next);
    }
    if (operands.size() == 1) {
      return netlist.add_gate(invert ? CellType::Inv : CellType::Buf,
                              {operands[0]}, name);
    }
    return netlist.add_gate(invert ? CellType::Nor : CellType::Or, operands,
                            name);
  };

  reduce_or(std::move(terms), out_name, !polarity);
}

}  // namespace

std::string write_blif(const Netlist& netlist) {
  std::ostringstream out;
  out << ".model " << netlist.name() << "\n";
  out << ".inputs";
  for (Var v : netlist.inputs()) out << " " << netlist.var_name(v);
  out << "\n.outputs";
  for (Var v : netlist.outputs()) out << " " << netlist.var_name(v);
  out << "\n";
  for (std::size_t g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    out << ".names";
    for (Var in : gate.inputs) out << " " << netlist.var_name(in);
    out << " " << netlist.var_name(gate.output) << "\n";
    write_cover(out, gate);
  }
  out << ".end\n";
  return out.str();
}

Netlist read_blif(const std::string& text, const std::string& filename) {
  frontend::LineScanner scanner(
      text, filename,
      frontend::LineSyntax{.hash_comments = true, .slash_comments = false,
                           .block_comments = true,
                           .backslash_continuation = true});
  std::string model = "top";
  frontend::GraphBuilder builder(model, filename);
  // Every .names block, and one INV per inverted literal shared across the
  // whole file.  The emit closures run inside builder.build() below and
  // reach both through one pointer.
  struct Cover {
    std::vector<NamesNode> nodes;
    std::unordered_map<Var, Var> inv_cache;
  } cover;
  // The .names block being collected: rows attach to it until the next
  // directive.  Its signals are copied (the line views die), the output
  // last.
  bool collecting = false;
  std::vector<std::string> signals;

  auto finish_current = [&]() {
    if (!collecting) return;
    collecting = false;
    const std::size_t index = cover.nodes.size() - 1;
    builder.add_node(
        signals.back(),
        std::span<const std::string>(signals.data(), signals.size() - 1),
        cover.nodes.back().loc,
        [state = &cover, index](Netlist& netlist,
                                const std::vector<Var>& inputs,
                                const std::string& output) {
          synthesize_node(netlist, state->nodes[index], inputs, output,
                          state->inv_cache);
        });
  };

  frontend::Loc loc{filename, 0, 0};
  std::vector<std::string_view> tokens;
  while (auto logical = scanner.next()) {
    loc.line = logical->line;
    split_ws(logical->text, tokens);
    if (tokens.empty()) continue;
    const std::string_view keyword = tokens[0];
    if (keyword == ".model") {
      finish_current();
      if (tokens.size() >= 2) model = tokens[1];
    } else if (keyword == ".inputs") {
      finish_current();
      for (std::size_t i = 1; i < tokens.size(); ++i)
        builder.add_input(tokens[i], loc);
    } else if (keyword == ".outputs") {
      finish_current();
      for (std::size_t i = 1; i < tokens.size(); ++i)
        builder.add_output(tokens[i], loc);
    } else if (keyword == ".names") {
      finish_current();
      if (tokens.size() < 2) frontend::fail_at(loc, ".names without signals");
      signals.assign(tokens.begin() + 1, tokens.end());
      cover.nodes.push_back(NamesNode{{}, loc});
      collecting = true;
    } else if (keyword == ".end") {
      finish_current();
    } else if (keyword[0] == '.') {
      frontend::fail_at(loc, "unsupported BLIF construct '" +
                                 std::string(keyword) + "'");
    } else {
      if (!collecting) frontend::fail_at(loc, "cover row outside .names");
      cover.nodes.back().rows.emplace_back(logical->text);
    }
  }
  finish_current();

  Netlist netlist = builder.build();
  netlist.set_name(model);
  return netlist;
}

void write_blif_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << write_blif(netlist);
}

Netlist read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_blif(buffer.str(), path);
}

}  // namespace gfre::nl
