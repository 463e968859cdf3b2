#include "netlist/io_eqn.hpp"

#include <cctype>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>

#include "frontend/cell_library.hpp"
#include "frontend/graph.hpp"
#include "frontend/source.hpp"
#include "util/error.hpp"

namespace gfre::nl {

std::string write_eqn(const Netlist& netlist) {
  std::ostringstream out;
  out << "# gfre .eqn netlist — " << netlist.num_equations()
      << " equations\n";
  out << "model " << netlist.name() << "\n";
  out << "input";
  for (Var v : netlist.inputs()) out << " " << netlist.var_name(v);
  out << ";\n";
  out << "output";
  for (Var v : netlist.outputs()) out << " " << netlist.var_name(v);
  out << ";\n";
  for (std::size_t g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    out << netlist.var_name(gate.output) << " = " << cell_name(gate.type)
        << "(";
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i != 0) out << ", ";
      out << netlist.var_name(gate.inputs[i]);
    }
    out << ");\n";
  }
  return out.str();
}

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '[' || c == ']' || c == '.' || c == '$';
}

/// The identifier runs of `text`, as views into it, in `names`.
void tokenize_names(std::string_view text,
                    std::vector<std::string_view>& names) {
  names.clear();
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && is_ident_char(text[i])) continue;
    if (i > begin) names.push_back(text.substr(begin, i - begin));
    begin = i + 1;
  }
}

/// Resolves an operator name to the gate(s) it creates and registers the
/// node: builtin mnemonics become single gates; with a library loaded,
/// library cells resolve to their builtin equivalent or to the gates of
/// their ANF.
void add_equation_node(frontend::GraphBuilder& builder, std::string_view lhs,
                       const std::string& op,
                       std::span<const std::string_view> args,
                       const frontend::Loc& loc,
                       const frontend::CellLibrary* library) {
  CellType type{};
  bool builtin = true;
  try {
    type = cell_from_name(op);
  } catch (const InvalidArgument& e) {
    builtin = false;
    if (!library) frontend::fail_at(loc, e.what());
  }
  const auto single_gate = [&builder, lhs, args, &loc](CellType t) {
    builder.add_node(lhs, args, loc,
                     [t](Netlist& netlist, const std::vector<Var>& vars,
                         const std::string& output) {
                       netlist.add_gate(t, vars, output);
                     });
  };
  if (builtin) {
    if (!arity_ok(type, args.size()))
      frontend::fail_at(loc, "bad arity for " + op);
    single_gate(type);
    return;
  }
  const frontend::LibCell* cell = library->find(op);
  if (!cell) {
    // Match the builtin mnemonic error shape, mentioning the library.
    frontend::fail_at(loc, "unknown cell '" + op + "' (not builtin, not in "
                           "library '" + library->name() + "')");
  }
  if (args.size() != cell->inputs.size())
    frontend::fail_at(loc, "cell '" + op + "' expects " +
                               std::to_string(cell->inputs.size()) +
                               " arguments, got " +
                               std::to_string(args.size()));
  if (cell->builtin) {
    single_gate(*cell->builtin);
    return;
  }
  builder.add_node(lhs, args, loc,
                   [cell](Netlist& netlist, const std::vector<Var>& vars,
                          const std::string& output) {
                     add_anf_gates(netlist, cell->anf, vars, output);
                   });
}

/// `line` without the leading `keyword` when it starts with it as a whole
/// word ("input a b" -> " a b"); nullopt otherwise.
std::optional<std::string_view> after_keyword(std::string_view line,
                                              std::string_view keyword) {
  if (!line.starts_with(keyword)) return std::nullopt;
  if (line.size() > keyword.size() && is_ident_char(line[keyword.size()]))
    return std::nullopt;
  return line.substr(keyword.size());
}

}  // namespace

Netlist read_eqn(const std::string& text, const std::string& filename,
                 const frontend::FrontendOptions& options) {
  frontend::LineScanner scanner(
      text, filename,
      frontend::LineSyntax{.hash_comments = true, .slash_comments = true,
                           .block_comments = true});
  std::string model = "top";
  frontend::GraphBuilder builder(model, filename);
  const frontend::CellLibrary* library = options.library.get();
  frontend::Loc loc{filename, 0, 0};
  // Per-line token buffers; the views point into the current line.
  std::vector<std::string_view> names;
  std::vector<std::string_view> op_names;
  std::string op;

  while (auto logical = scanner.next()) {
    std::string_view line = logical->text;
    loc.line = logical->line;
    if (!line.empty() && line.back() == ';') line.remove_suffix(1);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back())))
      line.remove_suffix(1);
    if (line.empty()) continue;

    if (line.starts_with("model ")) {
      std::string_view rest = line.substr(6);
      while (!rest.empty() &&
             std::isspace(static_cast<unsigned char>(rest.front())))
        rest.remove_prefix(1);
      model = rest;
      continue;
    }
    if (const auto rest = after_keyword(line, "input")) {
      tokenize_names(*rest, names);
      for (const std::string_view n : names) builder.add_input(n, loc);
      continue;
    }
    if (const auto rest = after_keyword(line, "output")) {
      tokenize_names(*rest, names);
      for (const std::string_view n : names) builder.add_output(n, loc);
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string_view::npos)
      frontend::fail_at(loc, "unrecognized statement: " + std::string(line));
    tokenize_names(line.substr(0, eq), names);
    if (names.size() != 1)
      frontend::fail_at(loc, "bad equation left-hand side");
    const std::string_view lhs = names[0];
    const std::string_view rhs = line.substr(eq + 1);
    const auto paren = rhs.find('(');
    if (paren == std::string_view::npos) {
      // Constant form: "x = 0" / "x = 1".
      tokenize_names(rhs, op_names);
      if (op_names.size() == 1 && (op_names[0] == "0" || op_names[0] == "1")) {
        op = op_names[0] == "0" ? "CONST0" : "CONST1";
        add_equation_node(builder, lhs, op, {}, loc, library);
        continue;
      }
      frontend::fail_at(loc, "expected OP(args) or 0/1");
    }
    tokenize_names(rhs.substr(0, paren), op_names);
    if (op_names.size() != 1) frontend::fail_at(loc, "bad operator name");
    op = op_names[0];
    const auto close = rhs.rfind(')');
    if (close == std::string_view::npos || close < paren)
      frontend::fail_at(loc, "unbalanced parentheses");
    // `names` still holds the lhs view; the args go to op_names.
    tokenize_names(rhs.substr(paren + 1, close - paren - 1), op_names);
    add_equation_node(builder, lhs, op, op_names, loc, library);
  }
  Netlist netlist = builder.build();
  netlist.set_name(model);
  return netlist;
}

Netlist read_eqn(const std::string& text, const std::string& filename) {
  return read_eqn(text, filename, frontend::FrontendOptions{});
}

void write_eqn_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << write_eqn(netlist);
}

Netlist read_eqn_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_eqn(buffer.str(), path);
}

}  // namespace gfre::nl
