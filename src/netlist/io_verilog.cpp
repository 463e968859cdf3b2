#include "netlist/io_verilog.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "frontend/cell_library.hpp"
#include "frontend/graph.hpp"
#include "frontend/source.hpp"
#include "util/error.hpp"
#include "util/name_table.hpp"

namespace gfre::nl {

using frontend::Token;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::string verilog_ident(const std::string& name) {
  bool simple = !name.empty() &&
                (std::isalpha(static_cast<unsigned char>(name[0])) ||
                 name[0] == '_');
  for (char c : name) {
    if (!simple) break;
    simple = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
             c == '$';
  }
  if (simple) return name;
  return "\\" + name + " ";
}

namespace {

std::string gate_expression(const Netlist& netlist, const Gate& gate) {
  const auto name = [&](Var v) { return verilog_ident(netlist.var_name(v)); };
  const auto join = [&](const char* op) {
    std::string out;
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (i != 0) {
        out += " ";
        out += op;
        out += " ";
      }
      out += name(gate.inputs[i]);
    }
    return out;
  };
  const auto& in = gate.inputs;
  switch (gate.type) {
    case CellType::Const0: return "1'b0";
    case CellType::Const1: return "1'b1";
    case CellType::Buf: return name(in[0]);
    case CellType::Inv: return "~" + name(in[0]);
    case CellType::And: return join("&");
    case CellType::Or: return join("|");
    case CellType::Xor: return join("^");
    case CellType::Xnor: return "~(" + join("^") + ")";
    case CellType::Nand: return "~(" + join("&") + ")";
    case CellType::Nor: return "~(" + join("|") + ")";
    case CellType::Mux:
      return name(in[0]) + " ? " + name(in[2]) + " : " + name(in[1]);
    case CellType::Aoi21:
      return "~((" + name(in[0]) + " & " + name(in[1]) + ") | " +
             name(in[2]) + ")";
    case CellType::Oai21:
      return "~((" + name(in[0]) + " | " + name(in[1]) + ") & " +
             name(in[2]) + ")";
    case CellType::Aoi22:
      return "~((" + name(in[0]) + " & " + name(in[1]) + ") | (" +
             name(in[2]) + " & " + name(in[3]) + "))";
    case CellType::Oai22:
      return "~((" + name(in[0]) + " | " + name(in[1]) + ") & (" +
             name(in[2]) + " | " + name(in[3]) + "))";
    case CellType::Maj3:
      return "(" + name(in[0]) + " & " + name(in[1]) + ") | (" + name(in[0]) +
             " & " + name(in[2]) + ") | (" + name(in[1]) + " & " +
             name(in[2]) + ")";
  }
  throw InvalidArgument("unknown cell type");
}

}  // namespace

std::string write_verilog(const Netlist& netlist) {
  std::ostringstream out;
  out << "// gfre structural netlist — " << netlist.num_equations()
      << " gates\n";
  out << "module " << verilog_ident(netlist.name()) << "(";
  bool first = true;
  for (Var v : netlist.inputs()) {
    if (!first) out << ", ";
    first = false;
    out << verilog_ident(netlist.var_name(v));
  }
  for (Var v : netlist.outputs()) {
    if (!first) out << ", ";
    first = false;
    out << verilog_ident(netlist.var_name(v));
  }
  out << ");\n";
  for (Var v : netlist.inputs()) {
    out << "  input " << verilog_ident(netlist.var_name(v)) << ";\n";
  }
  for (Var v : netlist.outputs()) {
    out << "  output " << verilog_ident(netlist.var_name(v)) << ";\n";
  }
  // Internal wires: driven nets that are not outputs.
  std::vector<bool> is_output(netlist.num_vars(), false);
  for (Var v : netlist.outputs()) is_output[v] = true;
  for (const Gate& g : netlist.gates()) {
    if (!is_output[g.output]) {
      out << "  wire " << verilog_ident(netlist.var_name(g.output)) << ";\n";
    }
  }
  for (std::size_t g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    out << "  assign " << verilog_ident(netlist.var_name(gate.output))
        << " = " << gate_expression(netlist, gate) << ";\n";
  }
  out << "endmodule\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Reader: module ASTs over the lexer's token views, then hierarchy
// elaboration onto a GraphBuilder by interned id.
// ---------------------------------------------------------------------------

namespace {

using frontend::Pos;
using Id = util::NameTable::Id;
constexpr std::uint32_t kNone = util::NameTable::kNone;

// The AST below holds views into the lexer's text (module, instance and
// parameter names), so the lexer outlives both the parse and the
// elaboration.

// -- Integer (parameter) expressions ---------------------------------------

struct IntExpr {
  enum class Kind { Num, Ref, Add, Sub, Mul, Div, Neg };
  Kind kind = Kind::Num;
  std::int64_t value = 0;   ///< Num
  std::string_view name;    ///< Ref (parameter)
  std::vector<IntExpr> operands;
  Pos pos;
};

using ParamEnv = std::map<std::string, std::int64_t, std::less<>>;

// -- Net expressions -------------------------------------------------------

/// One node of a module's flat expression pool; operands are indices into
/// the same pool.
struct Expr {
  enum class Kind : std::uint8_t { Ref, Const, Not, And, Or, Xor, Mux };
  Kind kind = Kind::Ref;
  bool const_one = false;      ///< Const
  std::uint8_t arity = 0;      ///< operators: Not 1, And/Or/Xor 2, Mux 3
  /// Ref: the net or vector name (module-local id) and its bit-select
  /// (into Module::selects, or kNone).  Operators: operand nodes; Mux
  /// operand order is (select, d0, d1): select ? d1 : d0.
  std::array<std::uint32_t, 3> operands{kNone, kNone, kNone};
  Pos pos;

  Id name() const { return operands[0]; }
  std::uint32_t index() const { return operands[1]; }
};

// -- Module AST ------------------------------------------------------------

enum class Dir { Input, Output, Wire };

struct Range {
  IntExpr msb;
  IntExpr lsb;
};

struct NetDecl {
  Dir dir = Dir::Wire;
  std::uint32_t range = kNone;  ///< into Module::ranges; kNone = scalar
  Id name = kNone;
  Pos pos;
};

struct Param {
  bool local = false;
  std::string_view name;
  IntExpr value;
  Pos pos;
};

struct Assign {
  std::uint32_t lhs;  ///< a Ref (optionally indexed)
  std::uint32_t rhs;
  std::uint32_t leaves_begin;  ///< [leaves_begin, leaves_end) in Module::leaves
  std::uint32_t leaves_end;
  Pos pos;
};

struct Conn {
  std::string_view formal;       ///< empty for positional
  std::uint32_t actual = kNone;  ///< into Module::exprs; kNone = unconnected
  Pos pos;
};

struct Instance {
  std::string_view target;  ///< module / cell / primitive name
  std::string_view name;    ///< instance name ("" for anonymous primitives)
  std::vector<std::pair<std::string_view, IntExpr>> overrides;
  std::vector<Conn> conns;
  bool named = false;
  Pos pos;
};

struct Item {
  enum class Kind { Assign, Instance };
  Kind kind;
  std::size_t index;  ///< into assigns / instances
};

struct Module {
  std::string_view name;
  /// Every net and port name the module mentions, by module-local id.
  util::NameTable names;
  std::vector<Id> header_ports;
  std::vector<unsigned char> is_port;  ///< per name id: in header_ports
  std::vector<NetDecl> decls;
  std::vector<Range> ranges;           ///< vector declarations' ranges
  std::vector<Param> params;
  std::vector<Expr> exprs;             ///< every net expression's nodes
  std::vector<IntExpr> selects;        ///< bit-select indices of Refs
  std::vector<std::uint32_t> leaves;   ///< assigns' Ref leaves, DFS order
  std::vector<Assign> assigns;
  std::vector<Instance> instances;
  std::vector<Item> items;
  Pos pos;
};

bool is_primitive(std::string_view word) {
  return word == "and" || word == "or" || word == "nand" || word == "nor" ||
         word == "xor" || word == "xnor" || word == "not" || word == "buf";
}

CellType primitive_cell(std::string_view word) {
  if (word == "and") return CellType::And;
  if (word == "or") return CellType::Or;
  if (word == "nand") return CellType::Nand;
  if (word == "nor") return CellType::Nor;
  if (word == "xor") return CellType::Xor;
  if (word == "xnor") return CellType::Xnor;
  if (word == "not") return CellType::Inv;
  return CellType::Buf;
}

bool is_keyword(std::string_view word) {
  return word == "module" || word == "endmodule" || word == "input" ||
         word == "output" || word == "wire" || word == "assign" ||
         word == "parameter" || word == "localparam" || word == "inout";
}

std::string quoted(std::string_view name) {
  return "'" + std::string(name) + "'";
}

// -- Parser ----------------------------------------------------------------

class VerilogParser {
 public:
  explicit VerilogParser(frontend::Lexer& lexer) : lexer_(lexer) {}

  std::vector<Module> parse() {
    std::vector<Module> modules;
    while (lexer_.peek().kind != Token::Kind::End) {
      Token kw = lexer_.expect_ident("'module'");
      if (kw.text != "module" && kw.text != "macromodule")
        lexer_.fail_at(kw.pos, "expected 'module', got " + quoted(kw.text));
      modules.push_back(parse_module(kw.pos));
    }
    return modules;
  }

 private:
  Module parse_module(const Pos& pos) {
    Module m;
    module_ = &m;
    m.pos = pos;
    reserve(m);
    m.name = lexer_.expect_ident("module name").text;
    if (lexer_.accept_punct('#')) parse_param_ports();
    if (lexer_.accept_punct('(')) parse_port_list();
    lexer_.expect_punct(';');
    for (;;) {
      const Token& t = lexer_.peek();
      if (t.kind == Token::Kind::End)
        lexer_.fail_at(m.pos, "missing 'endmodule'");
      if (t.kind != Token::Kind::Ident)
        lexer_.fail_at(t.pos, "expected a module item, got " + quoted(t.text));
      if (t.text == "endmodule") {
        lexer_.next();
        break;
      }
      if (t.text == "inout")
        lexer_.fail_at(t.pos, "inout ports are not supported");
      if (t.text == "input" || t.text == "output" || t.text == "wire") {
        parse_net_decl();
      } else if (t.text == "parameter" || t.text == "localparam") {
        parse_param_decl(t.text == "localparam");
      } else if (t.text == "assign") {
        parse_assign();
      } else {
        parse_instance();
      }
    }
    m.is_port.assign(m.names.size(), 0);
    for (const Id port : m.header_ports) m.is_port[port] = 1;
    module_ = nullptr;
    return m;
  }

  Id intern(std::string_view name) { return module_->names.intern(name).id; }

  /// Sizes `m`'s tables from the bytes up to the next "endmodule": a
  /// structural netlist spends about 12 bytes per expression node and
  /// 48 per net name.  Growing them one doubling at a time would copy the
  /// pools several times over on a crypto-size module.
  void reserve(Module& m) {
    const std::string_view rest = lexer_.rest();
    const std::size_t bytes = std::min(rest.find("endmodule"), rest.size());
    m.exprs.reserve(bytes / 12);
    m.leaves.reserve(bytes / 24);
    m.names.reserve(bytes / 48);
    m.decls.reserve(bytes / 48);
    m.assigns.reserve(bytes / 48);
    m.items.reserve(bytes / 48);
  }

  void parse_param_ports() {
    // #( parameter NAME = expr, ... )
    lexer_.expect_punct('(');
    if (lexer_.accept_punct(')')) return;
    for (;;) {
      lexer_.accept_ident("parameter");
      Token name = lexer_.expect_ident("parameter name");
      lexer_.expect_punct('=');
      module_->params.push_back(
          Param{false, name.text, parse_int_expr(), name.pos});
      if (lexer_.accept_punct(')')) break;
      lexer_.expect_punct(',');
    }
  }

  void parse_port_list() {
    if (lexer_.accept_punct(')')) return;
    // Non-ANSI (name list) or ANSI (direction-annotated declarations).
    Dir dir = Dir::Wire;
    bool ansi = false;
    std::uint32_t range = kNone;
    for (;;) {
      const Token& t = lexer_.peek();
      if (t.kind != Token::Kind::Ident)
        lexer_.fail_at(t.pos, "expected a port name, got " + quoted(t.text));
      if (t.text == "inout")
        lexer_.fail_at(t.pos, "inout ports are not supported");
      if (t.text == "input" || t.text == "output" || t.text == "wire") {
        ansi = true;
        dir = t.text == "input" ? Dir::Input
              : t.text == "output" ? Dir::Output
                                   : Dir::Wire;
        lexer_.next();
        lexer_.accept_ident("wire");
        range = parse_optional_range();
      }
      Token name = lexer_.expect_ident("port name");
      const Id id = intern(name.text);
      module_->header_ports.push_back(id);
      if (ansi) module_->decls.push_back(NetDecl{dir, range, id, name.pos});
      if (lexer_.accept_punct(')')) break;
      lexer_.expect_punct(',');
    }
  }

  /// An optional "[msb:lsb]", as its index into Module::ranges.
  std::uint32_t parse_optional_range() {
    if (!lexer_.accept_punct('[')) return kNone;
    Range r;
    r.msb = parse_int_expr();
    lexer_.expect_punct(':');
    r.lsb = parse_int_expr();
    lexer_.expect_punct(']');
    module_->ranges.push_back(std::move(r));
    return static_cast<std::uint32_t>(module_->ranges.size() - 1);
  }

  void parse_net_decl() {
    Token kw = lexer_.next();
    Dir dir = kw.text == "input" ? Dir::Input
              : kw.text == "output" ? Dir::Output
                                    : Dir::Wire;
    const std::uint32_t range = parse_optional_range();
    for (;;) {
      Token name = lexer_.expect_ident("net name");
      module_->decls.push_back(
          NetDecl{dir, range, intern(name.text), name.pos});
      if (lexer_.accept_punct(';')) break;
      lexer_.expect_punct(',');
    }
  }

  void parse_param_decl(bool local) {
    lexer_.next();  // parameter / localparam
    for (;;) {
      Token name = lexer_.expect_ident("parameter name");
      lexer_.expect_punct('=');
      module_->params.push_back(
          Param{local, name.text, parse_int_expr(), name.pos});
      if (lexer_.accept_punct(';')) break;
      lexer_.expect_punct(',');
    }
  }

  void parse_assign() {
    Module& m = *module_;
    Assign a;
    a.pos = lexer_.next().pos;  // assign
    a.lhs = parse_primary();
    if (m.exprs[a.lhs].kind != Expr::Kind::Ref)
      lexer_.fail_at(m.exprs[a.lhs].pos, "assign target must be a net");
    lexer_.expect_punct('=');
    a.rhs = parse_expr();
    lexer_.expect_punct(';');
    a.leaves_begin = static_cast<std::uint32_t>(m.leaves.size());
    collect_leaves(a.rhs);
    a.leaves_end = static_cast<std::uint32_t>(m.leaves.size());
    m.items.push_back({Item::Kind::Assign, m.assigns.size()});
    m.assigns.push_back(a);
  }

  /// Appends the Ref leaves under `node` to Module::leaves, operands in
  /// order: the order the emit callback consumes resolved nets in.
  void collect_leaves(std::uint32_t node) {
    const Expr& e = module_->exprs[node];
    if (e.kind == Expr::Kind::Ref) {
      module_->leaves.push_back(node);
      return;
    }
    for (std::size_t i = 0; i < e.arity; ++i) collect_leaves(e.operands[i]);
  }

  void parse_instance() {
    Token target = lexer_.expect_ident("module or cell name");
    if (is_keyword(target.text))
      lexer_.fail_at(target.pos, "unexpected keyword " + quoted(target.text));
    Instance inst;
    inst.target = target.text;
    inst.pos = target.pos;
    if (lexer_.accept_punct('#')) {
      lexer_.expect_punct('(');
      for (;;) {
        lexer_.expect_punct('.');
        Token pname = lexer_.expect_ident("parameter name");
        lexer_.expect_punct('(');
        inst.overrides.emplace_back(pname.text, parse_int_expr());
        lexer_.expect_punct(')');
        if (lexer_.accept_punct(')')) break;
        lexer_.expect_punct(',');
      }
    }
    if (lexer_.peek().kind == Token::Kind::Ident) {
      inst.name = lexer_.next().text;
    } else if (!is_primitive(inst.target)) {
      lexer_.fail("expected an instance name");
    }
    lexer_.expect_punct('(');
    if (!lexer_.accept_punct(')')) {
      bool first = true;
      for (;;) {
        Conn conn;
        conn.pos = lexer_.peek().pos;
        if (lexer_.accept_punct('.')) {
          if (!first && !inst.named)
            lexer_.fail_at(conn.pos,
                           "cannot mix named and positional connections");
          inst.named = true;
          conn.formal = lexer_.expect_ident("port name").text;
          lexer_.expect_punct('(');
          if (!lexer_.accept_punct(')')) {
            conn.actual = parse_expr();
            lexer_.expect_punct(')');
          }
        } else {
          if (inst.named)
            lexer_.fail_at(conn.pos,
                           "cannot mix named and positional connections");
          conn.actual = parse_expr();
        }
        inst.conns.push_back(conn);
        first = false;
        if (lexer_.accept_punct(')')) break;
        lexer_.expect_punct(',');
      }
    }
    lexer_.expect_punct(';');
    module_->items.push_back({Item::Kind::Instance, module_->instances.size()});
    module_->instances.push_back(std::move(inst));
  }

  // -- Expressions (precedence low to high: ?: | ^ & unary primary) ------

  std::uint32_t add(const Expr& e) {
    module_->exprs.push_back(e);
    return static_cast<std::uint32_t>(module_->exprs.size() - 1);
  }

  std::uint32_t add_operator(Expr::Kind kind, const Pos& pos,
                             std::initializer_list<std::uint32_t> operands) {
    Expr e;
    e.kind = kind;
    e.pos = pos;
    e.arity = static_cast<std::uint8_t>(operands.size());
    std::copy(operands.begin(), operands.end(), e.operands.begin());
    return add(e);
  }

  std::uint32_t parse_expr() { return parse_ternary(); }

  std::uint32_t parse_ternary() {
    const std::uint32_t cond = parse_or();
    if (!lexer_.accept_punct('?')) return cond;
    const std::uint32_t then_e = parse_ternary();
    lexer_.expect_punct(':');
    const std::uint32_t else_e = parse_ternary();
    return add_operator(Expr::Kind::Mux, module_->exprs[cond].pos,
                        {cond, else_e, then_e});
  }

  /// One left-associative binary level: `operand (op operand)*`.
  template <typename Operand>
  std::uint32_t parse_binary(char op, Expr::Kind kind, Operand operand) {
    std::uint32_t e = operand();
    while (lexer_.peek().is_punct(op)) {
      const Pos pos = lexer_.next().pos;
      const std::uint32_t rhs = operand();
      e = add_operator(kind, pos, {e, rhs});
    }
    return e;
  }

  std::uint32_t parse_or() {
    return parse_binary('|', Expr::Kind::Or, [this] { return parse_xor(); });
  }
  std::uint32_t parse_xor() {
    return parse_binary('^', Expr::Kind::Xor, [this] { return parse_and(); });
  }
  std::uint32_t parse_and() {
    return parse_binary('&', Expr::Kind::And,
                        [this] { return parse_unary(); });
  }

  std::uint32_t parse_unary() {
    if (lexer_.peek().is_punct('~') || lexer_.peek().is_punct('!')) {
      const Pos pos = lexer_.next().pos;
      return add_operator(Expr::Kind::Not, pos, {parse_unary()});
    }
    return parse_primary();
  }

  std::uint32_t parse_primary() {
    const Token& t = lexer_.peek();
    if (t.is_punct('(')) {
      lexer_.next();
      const std::uint32_t e = parse_expr();
      lexer_.expect_punct(')');
      return e;
    }
    Expr e;
    e.pos = t.pos;
    if (t.kind == Token::Kind::Number) {
      Token num = lexer_.next();
      if (num.value > 1 || (num.width != 0 && num.width != 1))
        lexer_.fail_at(num.pos, "unsupported literal " + quoted(num.text) +
                                    " (only 1-bit constants allowed)");
      e.kind = Expr::Kind::Const;
      e.const_one = num.value == 1;
      return add(e);
    }
    if (t.kind == Token::Kind::Ident) {
      Token id = lexer_.next();
      if (is_keyword(id.text) && !id.escaped)
        lexer_.fail_at(id.pos, "unexpected keyword " + quoted(id.text));
      e.kind = Expr::Kind::Ref;
      e.operands[0] = intern(id.text);
      if (!id.escaped && lexer_.peek().is_punct('[')) {
        lexer_.next();
        e.operands[1] = static_cast<std::uint32_t>(module_->selects.size());
        module_->selects.push_back(parse_int_expr());
        lexer_.expect_punct(']');
      }
      return add(e);
    }
    lexer_.fail_at(t.pos, "expected an operand, got " + quoted(t.text));
  }

  // -- Constant integer expressions ---------------------------------------

  IntExpr parse_int_expr() { return parse_int_add(); }

  IntExpr parse_int_add() {
    IntExpr e = parse_int_mul();
    for (;;) {
      bool add = lexer_.peek().is_punct('+');
      bool sub = lexer_.peek().is_punct('-');
      if (!add && !sub) return e;
      IntExpr joined;
      joined.pos = lexer_.next().pos;
      IntExpr rhs = parse_int_mul();
      joined.kind = add ? IntExpr::Kind::Add : IntExpr::Kind::Sub;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
  }

  IntExpr parse_int_mul() {
    IntExpr e = parse_int_unary();
    for (;;) {
      bool mul = lexer_.peek().is_punct('*');
      bool div = lexer_.peek().is_punct('/');
      if (!mul && !div) return e;
      IntExpr joined;
      joined.pos = lexer_.next().pos;
      IntExpr rhs = parse_int_unary();
      joined.kind = mul ? IntExpr::Kind::Mul : IntExpr::Kind::Div;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
  }

  IntExpr parse_int_unary() {
    const Token& t = lexer_.peek();
    IntExpr e;
    e.pos = t.pos;
    if (t.is_punct('-')) {
      lexer_.next();
      e.kind = IntExpr::Kind::Neg;
      e.operands = {parse_int_unary()};
      return e;
    }
    if (t.is_punct('(')) {
      lexer_.next();
      e = parse_int_expr();
      lexer_.expect_punct(')');
      return e;
    }
    if (t.kind == Token::Kind::Number) {
      e.kind = IntExpr::Kind::Num;
      e.value = static_cast<std::int64_t>(lexer_.next().value);
      return e;
    }
    if (t.kind == Token::Kind::Ident) {
      e.kind = IntExpr::Kind::Ref;
      e.name = lexer_.next().text;
      return e;
    }
    lexer_.fail_at(t.pos,
                   "expected a constant expression, got " + quoted(t.text));
  }

  frontend::Lexer& lexer_;
  Module* module_ = nullptr;  ///< the module being parsed
};

// -- Emitting an assign ----------------------------------------------------

/// The cell an operator node computes.
CellType operator_cell(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::Not: return CellType::Inv;
    case Expr::Kind::And: return CellType::And;
    case Expr::Kind::Or: return CellType::Or;
    case Expr::Kind::Xor: return CellType::Xor;
    case Expr::Kind::Mux: return CellType::Mux;
    case Expr::Kind::Ref:
    case Expr::Kind::Const:
      break;
  }
  GFRE_ASSERT(false, "not an operator");
  return CellType::Buf;
}

/// An assign's gates, built during GraphBuilder::build() from the nets it
/// resolved for the expression's Ref leaves (`vars`, in collect_leaves
/// order).  Holds the expression by pool index: 16 trivially copyable
/// bytes, which std::function stores without allocating.
struct AssignEmit {
  const std::vector<Expr>* exprs;
  std::uint32_t root;

  /// One of several operators whose function is a builtin cell over its
  /// distinct nets in first-use order ("~(a & b)" is a NAND,
  /// "(a & b) | (a & c) | (b & c)" a MAJ3) becomes that one cell — the
  /// matcher the BLIF and Liberty readers use; any other expression is
  /// emitted operator by operator.
  void operator()(Netlist& netlist, const std::vector<Var>& vars,
                  const std::string& out) const {
    const Expr& e = (*exprs)[root];
    const bool one_operator =
        std::all_of(e.operands.begin(), e.operands.begin() + e.arity,
                    [this](std::uint32_t op) {
                      return (*exprs)[op].kind == Expr::Kind::Ref;
                    });
    std::size_t next = 0;
    if (!one_operator) {
      std::vector<Var> leaves;
      if (const auto table = truth_table(root, vars, next, leaves)) {
        if (const auto type = match_truth_table(*table, leaves.size())) {
          netlist.add_gate(*type, std::move(leaves), out);
          return;
        }
      }
      next = 0;
    }
    emit(root, netlist, vars, next, out);
  }

  /// The truth table of node `i` over `leaves`, the distinct nets among
  /// its Ref leaves in first-use order; the leaves' nets are
  /// vars[next...].  nullopt past kMaxTableInputs distinct nets.
  std::optional<TruthTable> truth_table(std::uint32_t i,
                                        const std::vector<Var>& vars,
                                        std::size_t& next,
                                        std::vector<Var>& leaves) const {
    const Expr& e = (*exprs)[i];
    if (e.kind == Expr::Kind::Ref) {
      const Var v = vars[next++];
      auto it = std::find(leaves.begin(), leaves.end(), v);
      if (it == leaves.end()) {
        if (leaves.size() == kMaxTableInputs) return std::nullopt;
        it = leaves.insert(it, v);
      }
      return input_table(static_cast<std::size_t>(it - leaves.begin()));
    }
    if (e.kind == Expr::Kind::Const)
      return cell_table(e.const_one ? CellType::Const1 : CellType::Const0, {});
    std::array<TruthTable, 3> inputs;
    for (std::size_t k = 0; k < e.arity; ++k) {
      const auto table = truth_table(e.operands[k], vars, next, leaves);
      if (!table) return std::nullopt;
      inputs[k] = *table;
    }
    return cell_table(operator_cell(e.kind),
                      std::span<const TruthTable>(inputs.data(), e.arity));
  }

  /// Emits gates for node `i`; its root gate takes `name` ("" = auto).
  Var emit(std::uint32_t i, Netlist& netlist, const std::vector<Var>& vars,
           std::size_t& next, const std::string& name) const {
    const Expr& e = (*exprs)[i];
    switch (e.kind) {
      case Expr::Kind::Ref: {
        const Var v = vars[next++];
        if (name.empty()) return v;
        return netlist.add_gate(CellType::Buf, {v}, name);
      }
      case Expr::Kind::Const:
        return netlist.add_gate(
            e.const_one ? CellType::Const1 : CellType::Const0, {}, name);
      default: {
        std::vector<Var> inputs;
        inputs.reserve(e.arity);
        for (std::size_t k = 0; k < e.arity; ++k)
          inputs.push_back(emit(e.operands[k], netlist, vars, next, ""));
        return netlist.add_gate(operator_cell(e.kind), std::move(inputs),
                                name);
      }
    }
  }
};

// -- Elaboration -----------------------------------------------------------

/// A module-scope net: a (possibly vector) net whose bits are bound to
/// flat (top-level) nets, held as GraphBuilder ids.
struct Symbol {
  bool vector_net = false;
  std::int64_t lsb = 0;          ///< smallest declared index (vectors)
  std::uint32_t bits_begin = 0;  ///< [bits_begin, +width) in Scope::bits;
  std::uint32_t width = 0;       ///< bit i is index lsb+i
  Dir dir = Dir::Wire;
  Pos pos;
};

struct Scope {
  std::string prefix;  ///< "" at top, "u0." below
  ParamEnv params;
  std::vector<std::uint32_t> symbol_of;  ///< per module name id, or kNone
  std::vector<Symbol> symbols;
  std::vector<Id> bits;  ///< every symbol's bits, as GraphBuilder ids
};

/// Port formals bound to flat actual bits, per child-module name id.
struct Bindings {
  std::vector<std::uint32_t> slot;  ///< per name id: into spans, or kNone
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;  ///< in bits
  std::vector<Id> bits;
};

class Elaborator {
 public:
  Elaborator(const std::vector<Module>& modules, const frontend::Lexer& lexer,
             const frontend::FrontendOptions& options)
      : lexer_(lexer), options_(options) {
    for (const Module& m : modules) {
      if (!modules_.emplace(std::string(m.name), &m).second)
        fail(m.pos, "module " + quoted(m.name) + " defined twice");
    }
  }

  Netlist run() {
    const Module& top = select_top();
    builder_ = std::make_unique<frontend::GraphBuilder>(std::string(top.name),
                                                        lexer_.files());
    builder_->reserve(top.names.size(), top.items.size(), top.leaves.size());
    Scope scope;
    elaborate_module(top, scope, /*overrides=*/{}, /*bindings=*/nullptr,
                     top.pos, /*is_top=*/true);
    return builder_->build();
  }

 private:
  [[noreturn]] void fail(const Pos& pos, const std::string& msg) const {
    lexer_.fail_at(pos, msg);
  }

  std::int64_t eval_int(const IntExpr& e, const ParamEnv& env) const {
    switch (e.kind) {
      case IntExpr::Kind::Num:
        return e.value;
      case IntExpr::Kind::Ref: {
        auto it = env.find(e.name);
        if (it == env.end())
          fail(e.pos, "undefined parameter " + quoted(e.name));
        return it->second;
      }
      case IntExpr::Kind::Add:
        return eval_int(e.operands[0], env) + eval_int(e.operands[1], env);
      case IntExpr::Kind::Sub:
        return eval_int(e.operands[0], env) - eval_int(e.operands[1], env);
      case IntExpr::Kind::Mul:
        return eval_int(e.operands[0], env) * eval_int(e.operands[1], env);
      case IntExpr::Kind::Div: {
        std::int64_t d = eval_int(e.operands[1], env);
        if (d == 0) fail(e.pos, "division by zero in constant");
        return eval_int(e.operands[0], env) / d;
      }
      case IntExpr::Kind::Neg:
        return -eval_int(e.operands[0], env);
    }
    return 0;
  }

  const Module& select_top() {
    if (!options_.top.empty()) {
      auto it = modules_.find(options_.top);
      if (it == modules_.end())
        throw InvalidArgument("top module '" + options_.top + "' not found");
      return *it->second;
    }
    if (modules_.size() == 1) return *modules_.begin()->second;
    // The unique uninstantiated module is the top.
    std::unordered_set<std::string_view> instantiated;
    for (const auto& [name, m] : modules_)
      for (const Instance& inst : m->instances)
        instantiated.insert(inst.target);
    const Module* top = nullptr;
    for (const auto& [name, m] : modules_) {
      if (instantiated.count(name)) continue;
      if (top)
        throw InvalidArgument(
            "multiple top-level module candidates (" + quoted(top->name) +
            ", '" + name + "'); select one explicitly");
      top = m;
    }
    if (!top)
      throw InvalidArgument(
          "no top-level module (every module is instantiated)");
    return *top;
  }

  /// The builder id of flat net `prefix + name`; at the top, where the
  /// prefix is empty, the source name itself.
  Id flat_net(const Scope& scope, std::string_view name) {
    if (scope.prefix.empty()) return builder_->intern(name);
    name_buffer_.assign(scope.prefix).append(name);
    return builder_->intern(name_buffer_);
  }

  /// Binds `name` to `sym`, whose bits are already in Scope::bits.
  std::uint32_t add_symbol(Scope& scope, Id name, const Symbol& sym) {
    scope.symbol_of[name] = static_cast<std::uint32_t>(scope.symbols.size());
    scope.symbols.push_back(sym);
    return scope.symbol_of[name];
  }

  /// Elaborates `m` into the builder.  `bindings`, when non-null, binds
  /// formal ports to flat actual bits.
  void elaborate_module(
      const Module& m, Scope& scope,
      const std::vector<std::pair<std::string_view, std::int64_t>>& overrides,
      const Bindings* bindings, const Pos& site, bool is_top = false) {
    if (path_.size() >= 64)
      fail(site, "module hierarchy too deep (limit 64)");
    path_.push_back(&m);

    // Parameters: defaults in declaration order, overridden by name.
    for (const Param& p : m.params) {
      std::int64_t value = eval_int(p.value, scope.params);
      if (!p.local)
        for (const auto& [oname, ovalue] : overrides)
          if (oname == p.name) value = ovalue;
      if (!scope.params.emplace(std::string(p.name), value).second)
        fail(p.pos, "parameter " + quoted(p.name) + " defined twice");
    }
    for (const auto& [oname, ovalue] : overrides) {
      bool known = false;
      for (const Param& p : m.params)
        known = known || (!p.local && p.name == oname);
      if (!known)
        fail(site, "module " + quoted(m.name) + " has no parameter " +
                       quoted(oname));
    }

    // Net declarations.
    scope.symbol_of.assign(m.names.size(), kNone);
    scope.symbols.reserve(m.decls.size());
    scope.bits.reserve(m.decls.size());
    for (const NetDecl& d : m.decls) {
      const std::string_view name = m.names.name(d.name);
      Symbol sym;
      sym.dir = d.dir;
      sym.pos = d.pos;
      sym.width = 1;
      if (d.range != kNone) {
        const Range& range = m.ranges[d.range];
        std::int64_t msb = eval_int(range.msb, scope.params);
        std::int64_t lsb = eval_int(range.lsb, scope.params);
        if (msb < lsb) std::swap(msb, lsb);
        if (msb - lsb + 1 > 4096)
          fail(d.pos, "vector " + quoted(name) + " too wide");
        sym.vector_net = true;
        sym.lsb = lsb;
        sym.width = static_cast<std::uint32_t>(msb - lsb + 1);
      }
      if (d.dir != Dir::Wire && !m.is_port[d.name])
        fail(d.pos, "port " + quoted(name) +
                        " is not in the module port list");
      // Port formals bound to parent actuals alias the parent nets.
      const std::pair<std::uint32_t, std::uint32_t>* bound = nullptr;
      if (bindings && d.dir != Dir::Wire &&
          bindings->slot[d.name] != kNone) {
        bound = &bindings->spans[bindings->slot[d.name]];
        if (bound->second != sym.width)
          fail(d.pos, "port " + quoted(name) + " is " +
                          std::to_string(sym.width) +
                          " bits wide but connects to " +
                          std::to_string(bound->second) + " bits");
      }
      const std::uint32_t existing = scope.symbol_of[d.name];
      if (existing == kNone) {
        sym.bits_begin = static_cast<std::uint32_t>(scope.bits.size());
        if (bound) {
          scope.bits.insert(
              scope.bits.end(), bindings->bits.begin() + bound->first,
              bindings->bits.begin() + bound->first + bound->second);
        } else if (sym.vector_net) {
          for (std::int64_t i = sym.lsb; i < sym.lsb + sym.width; ++i)
            scope.bits.push_back(flat_net(
                scope, std::string(name) + "[" + std::to_string(i) + "]"));
        } else {
          scope.bits.push_back(flat_net(scope, name));
        }
        add_symbol(scope, d.name, sym);
      } else if (d.dir == Dir::Wire &&
                 scope.symbols[existing].dir != Dir::Wire) {
        // "output z; wire z;" — the wire redeclaration of a port is legal
        // non-ANSI style; the port symbol stays.
      } else {
        fail(d.pos, "net " + quoted(name) + " declared twice");
      }
    }
    for (const Id port : m.header_ports) {
      const std::uint32_t s = scope.symbol_of[port];
      if (s == kNone || scope.symbols[s].dir == Dir::Wire)
        fail(m.pos, "port " + quoted(m.names.name(port)) +
                        " has no direction declaration");
    }

    // Primary IO is registered before the items elaborate, so driving an
    // input is diagnosed at the offending statement.  Header port order
    // defines bit order (vector bits LSB-first).
    if (is_top) {
      for (const Dir dir : {Dir::Input, Dir::Output}) {
        for (const Id port : m.header_ports) {
          const Symbol& sym = scope.symbols[scope.symbol_of[port]];
          if (sym.dir != dir) continue;
          for (std::uint32_t i = 0; i < sym.width; ++i) {
            const Id bit = scope.bits[sym.bits_begin + i];
            if (dir == Dir::Input)
              builder_->add_input(bit, sym.pos);
            else
              builder_->add_output(bit, sym.pos);
          }
        }
      }
    }

    // Items in source order.
    for (const Item& item : m.items) {
      if (item.kind == Item::Kind::Assign)
        elaborate_assign(m, m.assigns[item.index], scope);
      else
        elaborate_instance(m, m.instances[item.index], scope);
    }
    path_.pop_back();
  }

  /// Scope lookup; scalar nets referenced before declaration are created
  /// implicitly (matching common netlist-writer behavior).
  const Symbol& lookup(const Module& m, Id name, Scope& scope,
                       const Pos& pos, bool implicit_ok) {
    std::uint32_t s = scope.symbol_of[name];
    if (s == kNone) {
      const std::string_view text = m.names.name(name);
      if (scope.params.count(text))
        fail(pos, "parameter " + quoted(text) + " used as a net");
      if (!implicit_ok) fail(pos, "undeclared vector net " + quoted(text));
      Symbol sym;
      sym.pos = pos;
      sym.width = 1;
      sym.bits_begin = static_cast<std::uint32_t>(scope.bits.size());
      scope.bits.push_back(flat_net(scope, text));
      s = add_symbol(scope, name, sym);
    }
    return scope.symbols[s];
  }

  /// Resolves a Ref expression to a single flat bit.
  Id resolve_bit(const Module& m, const Expr& e, Scope& scope) {
    GFRE_ASSERT(e.kind == Expr::Kind::Ref, "resolve_bit on non-ref");
    const Symbol& sym = lookup(m, e.name(), scope, e.pos, e.index() == kNone);
    if (e.index() != kNone) {
      if (!sym.vector_net)
        fail(e.pos,
             "bit-select on scalar net " + quoted(m.names.name(e.name())));
      std::int64_t idx = eval_int(m.selects[e.index()], scope.params);
      std::int64_t off = idx - sym.lsb;
      if (off < 0 || off >= static_cast<std::int64_t>(sym.width))
        fail(e.pos, "index " + std::to_string(idx) + " out of range for " +
                        quoted(m.names.name(e.name())));
      return scope.bits[sym.bits_begin + static_cast<std::uint32_t>(off)];
    }
    if (sym.width != 1)
      fail(e.pos, "vector net " + quoted(m.names.name(e.name())) +
                      " used as a scalar");
    return scope.bits[sym.bits_begin];
  }

  /// The flat net holding constant 0/1, creating its node on first use.
  Id const_net(bool one) {
    const Id net = builder_->intern(one ? "$const1" : "$const0");
    bool& made = one ? made_const1_ : made_const0_;
    if (!made) {
      builder_->add_node(
          net, {}, Pos{0, 0, 0},
          [one](Netlist& netlist, const std::vector<Var>&,
                const std::string& out) {
            netlist.add_gate(one ? CellType::Const1 : CellType::Const0, {},
                             out);
          });
      made = true;
    }
    return net;
  }

  void elaborate_assign(const Module& m, const Assign& a, Scope& scope) {
    const Id lhs = resolve_bit(m, m.exprs[a.lhs], scope);
    args_.clear();
    for (std::uint32_t i = a.leaves_begin; i < a.leaves_end; ++i)
      args_.push_back(resolve_bit(m, m.exprs[m.leaves[i]], scope));
    builder_->add_node(lhs, args_, a.pos, AssignEmit{&m.exprs, a.rhs});
  }

  void elaborate_instance(const Module& m, const Instance& inst,
                          Scope& scope) {
    auto mod_it = modules_.find(std::string(inst.target));
    if (mod_it != modules_.end()) {
      elaborate_module_instance(m, inst, *mod_it->second, scope);
      return;
    }
    if (is_primitive(inst.target)) {
      elaborate_primitive(m, inst, scope);
      return;
    }
    const frontend::LibCell* cell =
        options_.library ? options_.library->find(inst.target) : nullptr;
    if (cell) {
      elaborate_cell(m, inst, *cell, scope);
      return;
    }
    if (options_.library)
      fail(inst.pos, "unknown module or cell " + quoted(inst.target) +
                         " (not in library '" + options_.library->name() +
                         "')");
    fail(inst.pos,
         "unknown module " + quoted(inst.target) + " (no cell library loaded)");
  }

  void elaborate_module_instance(const Module& m, const Instance& inst,
                                 const Module& child, Scope& scope) {
    for (const Module* frame : path_)
      if (frame == &child)
        fail(inst.pos,
             "recursive instantiation of module " + quoted(child.name));
    // Evaluate parameter overrides in the parent scope.
    std::vector<std::pair<std::string_view, std::int64_t>> overrides;
    for (const auto& [pname, pexpr] : inst.overrides)
      overrides.emplace_back(pname, eval_int(pexpr, scope.params));
    // Bind formals to flat actual bits.
    Bindings bindings;
    bindings.slot.assign(child.names.size(), kNone);
    auto bind = [&](Id formal, const Conn& conn) {
      if (bindings.slot[formal] != kNone)
        fail(conn.pos,
             "port " + quoted(child.names.name(formal)) + " connected twice");
      if (conn.actual == kNone) return;  // explicitly unconnected
      const auto begin = static_cast<std::uint32_t>(bindings.bits.size());
      append_actual(m, m.exprs[conn.actual], scope, bindings.bits);
      bindings.slot[formal] =
          static_cast<std::uint32_t>(bindings.spans.size());
      bindings.spans.emplace_back(
          begin, static_cast<std::uint32_t>(bindings.bits.size()) - begin);
    };
    if (inst.named) {
      for (const Conn& conn : inst.conns) {
        const Id formal = child.names.find(conn.formal);
        if (formal == kNone || !child.is_port[formal])
          fail(conn.pos, "module " + quoted(child.name) + " has no port " +
                             quoted(conn.formal));
        bind(formal, conn);
      }
    } else {
      if (inst.conns.size() > child.header_ports.size())
        fail(inst.pos, "module " + quoted(child.name) + " has " +
                           std::to_string(child.header_ports.size()) +
                           " ports but " + std::to_string(inst.conns.size()) +
                           " connections given");
      for (std::size_t i = 0; i < inst.conns.size(); ++i)
        bind(child.header_ports[i], inst.conns[i]);
    }
    Scope child_scope;
    child_scope.prefix = scope.prefix + instance_prefix(inst) + ".";
    elaborate_module(child, child_scope, overrides, &bindings, inst.pos);
  }

  std::string instance_prefix(const Instance& inst) {
    if (!inst.name.empty()) return std::string(inst.name);
    return "$" + std::string(inst.target) + std::to_string(anon_counter_++);
  }

  /// Appends a port-connection actual's flat bits to `out`.  Only nets,
  /// bit-selects and 1-bit constants are supported.
  void append_actual(const Module& m, const Expr& e, Scope& scope,
                     std::vector<Id>& out) {
    if (e.kind == Expr::Kind::Const) {
      out.push_back(const_net(e.const_one));
      return;
    }
    if (e.kind != Expr::Kind::Ref)
      fail(e.pos, "port connections must be nets, bit-selects or constants");
    if (e.index() != kNone) {
      out.push_back(resolve_bit(m, e, scope));
      return;
    }
    const Symbol& sym = lookup(m, e.name(), scope, e.pos, /*implicit_ok=*/true);
    const auto bits = scope.bits.begin() + sym.bits_begin;
    out.insert(out.end(), bits, bits + sym.width);
  }

  void elaborate_primitive(const Module& m, const Instance& inst,
                           Scope& scope) {
    if (!inst.overrides.empty())
      fail(inst.pos,
           "gate primitive " + quoted(inst.target) + " takes no parameters");
    if (inst.named)
      fail(inst.pos, "gate primitive " + quoted(inst.target) +
                         " uses positional connections");
    CellType type = primitive_cell(inst.target);
    if (inst.conns.size() < 1 || !arity_ok(type, inst.conns.size() - 1))
      fail(inst.pos, "wrong connection count for gate primitive " +
                         quoted(inst.target));
    const Id out = connection_bit(m, inst.conns[0], scope);
    std::vector<Id> args;
    for (std::size_t i = 1; i < inst.conns.size(); ++i)
      args.push_back(connection_bit(m, inst.conns[i], scope));
    builder_->add_node(out, args, inst.pos,
                       [type](Netlist& netlist,
                              const std::vector<Var>& vars,
                              const std::string& out) {
                         netlist.add_gate(type, vars, out);
                       });
  }

  Id connection_bit(const Module& m, const Conn& conn, Scope& scope) {
    if (conn.actual == kNone)
      fail(conn.pos, "connection must not be empty here");
    const Expr& actual = m.exprs[conn.actual];
    if (actual.kind == Expr::Kind::Const) return const_net(actual.const_one);
    if (actual.kind != Expr::Kind::Ref)
      fail(actual.pos,
           "port connections must be nets, bit-selects or constants");
    return resolve_bit(m, actual, scope);
  }

  void elaborate_cell(const Module& m, const Instance& inst,
                      const frontend::LibCell& cell, Scope& scope) {
    if (!inst.overrides.empty())
      fail(inst.pos, "'" + cell.name +
                         "' is a library cell and takes no parameters");
    // Collect one actual per input pin plus the output actual.
    std::vector<std::optional<Id>> pin_actual(cell.inputs.size());
    std::optional<Id> out_actual;
    if (inst.named) {
      for (const Conn& conn : inst.conns) {
        int pin = cell.find_input(conn.formal);
        if (pin >= 0) {
          if (pin_actual[static_cast<std::size_t>(pin)])
            fail(conn.pos, "pin " + quoted(conn.formal) + " connected twice");
          if (conn.actual != kNone)
            pin_actual[static_cast<std::size_t>(pin)] =
                connection_bit(m, conn, scope);
        } else if (conn.formal == cell.output) {
          if (out_actual)
            fail(conn.pos, "pin " + quoted(conn.formal) + " connected twice");
          if (conn.actual != kNone)
            out_actual = connection_bit(m, conn, scope);
        } else {
          fail(conn.pos, "cell '" + cell.name + "' has no pin " +
                             quoted(conn.formal));
        }
      }
    } else {
      // Positional convention matches Verilog primitives: output first,
      // then inputs in pin order.
      if (inst.conns.size() != cell.inputs.size() + 1)
        fail(inst.pos, "cell '" + cell.name + "' expects " +
                           std::to_string(cell.inputs.size() + 1) +
                           " connections (output first), got " +
                           std::to_string(inst.conns.size()));
      out_actual = connection_bit(m, inst.conns[0], scope);
      for (std::size_t i = 0; i < cell.inputs.size(); ++i)
        pin_actual[i] = connection_bit(m, inst.conns[i + 1], scope);
    }
    for (std::size_t i = 0; i < pin_actual.size(); ++i)
      if (!pin_actual[i])
        fail(inst.pos, "cell '" + cell.name + "' input pin '" +
                           cell.inputs[i] + "' is unconnected");
    const Id out =
        out_actual ? *out_actual
                   : builder_->intern(scope.prefix + instance_prefix(inst) +
                                      "." + cell.output);
    std::vector<Id> args;
    for (const auto& a : pin_actual) args.push_back(*a);
    const frontend::LibCell* cell_ptr = &cell;
    builder_->add_node(
        out, args, inst.pos,
        [cell_ptr](Netlist& netlist, const std::vector<Var>& vars,
                   const std::string& out) {
          if (cell_ptr->builtin) {
            netlist.add_gate(*cell_ptr->builtin, vars, out);
          } else {
            add_anf_gates(netlist, cell_ptr->anf, vars, out);
          }
        });
  }

  const frontend::Lexer& lexer_;
  const frontend::FrontendOptions& options_;
  std::unordered_map<std::string, const Module*> modules_;
  std::unique_ptr<frontend::GraphBuilder> builder_;
  std::vector<const Module*> path_;  ///< modules on the elaboration stack
  std::vector<Id> args_;             ///< an assign's resolved leaves
  std::string name_buffer_;          ///< a prefixed flat name being built
  bool made_const0_ = false;
  bool made_const1_ = false;
  unsigned anon_counter_ = 0;
};

}  // namespace

Netlist read_verilog(const std::string& text, const std::string& filename,
                     const frontend::FrontendOptions& options) {
  frontend::Lexer lexer(text, filename,
                        frontend::LexSyntax{.slash_comments = true,
                                            .verilog_numbers = true,
                                            .escaped_idents = true,
                                            .directives = true},
                        frontend::filesystem_include_resolver());
  const std::vector<Module> modules = VerilogParser(lexer).parse();
  if (modules.empty())
    throw ParseError(filename, 1, "no module definition found");
  return Elaborator(modules, lexer, options).run();
}

Netlist read_verilog(const std::string& text, const std::string& filename) {
  return read_verilog(text, filename, frontend::FrontendOptions{});
}

void write_verilog_file(const Netlist& netlist, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << write_verilog(netlist);
  if (!out) throw Error("failed writing '" + path + "'");
}

Netlist read_verilog_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return read_verilog(ss.str(), path);
}

}  // namespace gfre::nl
