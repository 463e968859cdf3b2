#include "frontend/cell_library.hpp"

#include <array>
#include <fstream>
#include <span>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "util/error.hpp"

namespace gfre::frontend {

nl::TruthTable bool_expr_table(const BoolExpr& expr) {
  const auto table = [](nl::CellType type,
                        const std::vector<BoolExpr>& operands) {
    std::array<nl::TruthTable, 3> inputs;
    for (std::size_t i = 0; i < operands.size(); ++i)
      inputs[i] = bool_expr_table(operands[i]);
    return nl::cell_table(type, std::span<const nl::TruthTable>(
                                    inputs.data(), operands.size()));
  };
  switch (expr.kind) {
    case BoolExpr::Kind::Const0: return table(nl::CellType::Const0, {});
    case BoolExpr::Kind::Const1: return table(nl::CellType::Const1, {});
    case BoolExpr::Kind::Ref: return nl::input_table(expr.pin);
    case BoolExpr::Kind::Not: return table(nl::CellType::Inv, expr.operands);
    case BoolExpr::Kind::And: return table(nl::CellType::And, expr.operands);
    case BoolExpr::Kind::Or: return table(nl::CellType::Or, expr.operands);
    case BoolExpr::Kind::Xor: return table(nl::CellType::Xor, expr.operands);
    case BoolExpr::Kind::Mux: return table(nl::CellType::Mux, expr.operands);
  }
  return {};
}

int LibCell::find_input(const std::string& pin) const {
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (inputs[i] == pin) return static_cast<int>(i);
  return -1;
}

const LibCell* CellLibrary::find(const std::string& cell_name) const {
  for (const LibCell& c : cells_)
    if (c.name == cell_name) return &c;
  return nullptr;
}

void CellLibrary::add(LibCell cell) {
  if (find(cell.name))
    throw InvalidArgument("cell library already defines '" + cell.name + "'");
  cells_.push_back(std::move(cell));
}

namespace {

// ---------------------------------------------------------------------------
// Function expression parsing
//
// Parsed in two stages: a named AST (pins and cell calls by name) built
// from the attribute string, then resolution — calls inlined with cycle
// detection, pin names bound to indices.
// ---------------------------------------------------------------------------

struct NamedExpr {
  enum class Kind { Const0, Const1, Ref, Not, And, Or, Xor, Mux, Call };
  Kind kind = Kind::Const0;
  std::string name;  ///< Ref: pin name; Call: cell name
  std::vector<NamedExpr> operands;
  Loc loc;
};

class FunctionParser {
 public:
  FunctionParser(const std::string& text, const Loc& site)
      : lexer_(text, site.file, LexSyntax{}), site_(site) {
    // The function string lives inside an attribute on `site_`'s line; the
    // inner lexer restarts line numbering, so diagnostics are pinned to
    // the attribute's own location instead.
  }

  NamedExpr parse() {
    NamedExpr e = ternary();
    if (lexer_.peek().kind != Token::Kind::End)
      fail("unexpected '" + lexer_.peek().text + "' in cell function");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const { fail_at(site_, msg); }

  NamedExpr ternary() {
    NamedExpr cond = or_expr();
    if (!lexer_.accept_punct('?')) return cond;
    NamedExpr d1 = ternary();
    if (!lexer_.accept_punct(':')) fail("expected ':' in cell function");
    NamedExpr d0 = ternary();
    NamedExpr e;
    e.kind = NamedExpr::Kind::Mux;
    e.operands = {std::move(cond), std::move(d0), std::move(d1)};
    return e;
  }

  NamedExpr or_expr() {
    NamedExpr e = xor_expr();
    while (lexer_.accept_punct('|') || lexer_.accept_punct('+')) {
      NamedExpr rhs = xor_expr();
      NamedExpr joined;
      joined.kind = NamedExpr::Kind::Or;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
    return e;
  }

  NamedExpr xor_expr() {
    NamedExpr e = and_expr();
    while (lexer_.accept_punct('^')) {
      NamedExpr rhs = and_expr();
      NamedExpr joined;
      joined.kind = NamedExpr::Kind::Xor;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
    return e;
  }

  NamedExpr and_expr() {
    NamedExpr e = unary();
    while (lexer_.accept_punct('&') || lexer_.accept_punct('*')) {
      NamedExpr rhs = unary();
      NamedExpr joined;
      joined.kind = NamedExpr::Kind::And;
      joined.operands = {std::move(e), std::move(rhs)};
      e = std::move(joined);
    }
    return e;
  }

  NamedExpr unary() {
    if (lexer_.accept_punct('!') || lexer_.accept_punct('~')) {
      NamedExpr e;
      e.kind = NamedExpr::Kind::Not;
      e.operands = {unary()};
      return e;
    }
    return primary();
  }

  NamedExpr primary() {
    const Token& t = lexer_.peek();
    if (t.is_punct('(')) {
      lexer_.next();
      NamedExpr e = ternary();
      if (!lexer_.accept_punct(')')) fail("expected ')' in cell function");
      return e;
    }
    if (t.kind == Token::Kind::Number) {
      Token num = lexer_.next();
      if (num.value > 1) fail("only 0/1 constants allowed in cell functions");
      NamedExpr e;
      e.kind = num.value ? NamedExpr::Kind::Const1 : NamedExpr::Kind::Const0;
      return e;
    }
    if (t.kind == Token::Kind::Ident) {
      Token id = lexer_.next();
      NamedExpr e;
      e.loc = site_;
      if (lexer_.accept_punct('(')) {
        e.kind = NamedExpr::Kind::Call;
        e.name = id.text;
        if (!lexer_.accept_punct(')')) {
          for (;;) {
            e.operands.push_back(ternary());
            if (lexer_.accept_punct(')')) break;
            if (!lexer_.accept_punct(','))
              fail("expected ',' or ')' in cell call");
          }
        }
        return e;
      }
      e.kind = NamedExpr::Kind::Ref;
      e.name = id.text;
      return e;
    }
    fail("expected a pin, constant or '(' in cell function, got '" + t.text +
         "'");
  }

  mutable Lexer lexer_;
  Loc site_;
};

/// Per-cell parse state before resolution.
struct RawCell {
  LibCell cell;          ///< function not yet filled
  NamedExpr function;    ///< named form
  Loc loc;
  bool resolved = false;
  bool resolving = false;
};

class Resolver {
 public:
  explicit Resolver(std::vector<RawCell>& raw) : raw_(raw) {
    for (std::size_t i = 0; i < raw.size(); ++i)
      index_.emplace(raw[i].cell.name, i);
  }

  void resolve_all() {
    for (RawCell& rc : raw_) resolve(rc);
  }

 private:
  void resolve(RawCell& rc) {
    if (rc.resolved) return;
    if (rc.resolving)
      fail_at(rc.loc, "recursive cell definition '" + rc.cell.name + "'");
    rc.resolving = true;
    rc.cell.function = bind(rc.function, rc);
    rc.resolving = false;
    rc.resolved = true;
  }

  BoolExpr bind(const NamedExpr& e, RawCell& context) {
    BoolExpr out;
    switch (e.kind) {
      case NamedExpr::Kind::Const0:
        out.kind = BoolExpr::Kind::Const0;
        return out;
      case NamedExpr::Kind::Const1:
        out.kind = BoolExpr::Kind::Const1;
        return out;
      case NamedExpr::Kind::Ref: {
        int pin = context.cell.find_input(e.name);
        if (pin < 0)
          fail_at(context.loc, "cell '" + context.cell.name +
                                   "' function references unknown pin '" +
                                   e.name + "'");
        out.kind = BoolExpr::Kind::Ref;
        out.pin = static_cast<unsigned>(pin);
        return out;
      }
      case NamedExpr::Kind::Not:
        out.kind = BoolExpr::Kind::Not;
        out.operands = {bind(e.operands[0], context)};
        return out;
      case NamedExpr::Kind::And:
      case NamedExpr::Kind::Or:
      case NamedExpr::Kind::Xor:
        out.kind = e.kind == NamedExpr::Kind::And  ? BoolExpr::Kind::And
                   : e.kind == NamedExpr::Kind::Or ? BoolExpr::Kind::Or
                                                   : BoolExpr::Kind::Xor;
        out.operands = {bind(e.operands[0], context),
                        bind(e.operands[1], context)};
        return out;
      case NamedExpr::Kind::Mux:
        out.kind = BoolExpr::Kind::Mux;
        out.operands = {bind(e.operands[0], context),
                        bind(e.operands[1], context),
                        bind(e.operands[2], context)};
        return out;
      case NamedExpr::Kind::Call: {
        auto it = index_.find(e.name);
        if (it == index_.end())
          fail_at(context.loc, "cell '" + context.cell.name +
                                   "' function calls unknown cell '" + e.name +
                                   "'");
        RawCell& callee = raw_[it->second];
        if (callee.resolving || &callee == &context)
          fail_at(context.loc, "recursive cell definition '" +
                                   context.cell.name + "' (via '" + e.name +
                                   "')");
        resolve(callee);
        if (callee.cell.inputs.size() != e.operands.size())
          fail_at(context.loc,
                  "cell call '" + e.name + "' expects " +
                      std::to_string(callee.cell.inputs.size()) +
                      " arguments, got " + std::to_string(e.operands.size()));
        std::vector<BoolExpr> actuals;
        actuals.reserve(e.operands.size());
        for (const NamedExpr& op : e.operands)
          actuals.push_back(bind(op, context));
        return substitute(callee.cell.function, actuals);
      }
    }
    return out;
  }

  /// Replaces each Ref pin i in `body` with actuals[i].
  static BoolExpr substitute(const BoolExpr& body,
                             const std::vector<BoolExpr>& actuals) {
    if (body.kind == BoolExpr::Kind::Ref) return actuals[body.pin];
    BoolExpr out;
    out.kind = body.kind;
    out.pin = body.pin;
    out.operands.reserve(body.operands.size());
    for (const BoolExpr& op : body.operands)
      out.operands.push_back(substitute(op, actuals));
    return out;
  }

  std::vector<RawCell>& raw_;
  std::unordered_map<std::string, std::size_t> index_;
};

// ---------------------------------------------------------------------------
// Library file parsing (Liberty-flavored group/attribute syntax)
// ---------------------------------------------------------------------------

class LibraryParser {
 public:
  LibraryParser(const std::string& text, const std::string& filename)
      : lexer_(text, filename, LexSyntax{.slash_comments = true}) {}

  CellLibrary parse() {
    Token kw = lexer_.expect_ident("'library'");
    if (kw.text != "library") fail_at(kw.loc, "expected 'library ( name )'");
    lexer_.expect_punct('(');
    Token name = lexer_.expect_ident("library name");
    lexer_.expect_punct(')');
    lexer_.expect_punct('{');
    std::vector<RawCell> raw;
    std::unordered_set<std::string> names;
    while (!lexer_.accept_punct('}')) {
      Token item = lexer_.expect_ident("'cell' or '}'");
      if (item.text == "cell") {
        RawCell rc = parse_cell(item.loc);
        if (!names.insert(rc.cell.name).second)
          fail_at(rc.loc, "cell '" + rc.cell.name + "' defined twice");
        raw.push_back(std::move(rc));
      } else {
        skip_group_or_attribute(item);
      }
    }
    if (lexer_.peek().kind != Token::Kind::End)
      fail_at(lexer_.peek().loc, "trailing text after library group");
    Resolver(raw).resolve_all();
    CellLibrary lib(name.text);
    for (RawCell& rc : raw) {
      const std::size_t pins = rc.cell.inputs.size();
      const nl::TruthTable table = bool_expr_table(rc.cell.function);
      rc.cell.builtin = nl::match_truth_table(table, pins);
      if (!rc.cell.builtin) rc.cell.anf = nl::mobius_transform(table, pins);
      lib.add(std::move(rc.cell));
    }
    return lib;
  }

 private:
  RawCell parse_cell(const Loc& loc) {
    lexer_.expect_punct('(');
    Token name = lexer_.expect_ident("cell name");
    lexer_.expect_punct(')');
    lexer_.expect_punct('{');
    RawCell rc;
    rc.cell.name = name.text;
    rc.loc = name.loc;
    bool have_function = false;
    while (!lexer_.accept_punct('}')) {
      Token item = lexer_.expect_ident("'pin' or '}'");
      if (item.text != "pin") {
        skip_group_or_attribute(item);
        continue;
      }
      lexer_.expect_punct('(');
      Token pin = lexer_.expect_ident("pin name");
      lexer_.expect_punct(')');
      lexer_.expect_punct('{');
      bool is_output = false;
      bool have_direction = false;
      std::optional<std::string> function;
      Loc function_loc;
      while (!lexer_.accept_punct('}')) {
        Token attr = lexer_.expect_ident("pin attribute");
        lexer_.expect_punct(':');
        if (attr.text == "direction") {
          Token dir = lexer_.expect_ident("pin direction");
          if (dir.text == "output") is_output = true;
          else if (dir.text == "input") is_output = false;
          else fail_at(dir.loc, "pin direction must be input or output");
          have_direction = true;
        } else if (attr.text == "function") {
          const Token& v = lexer_.peek();
          if (v.kind != Token::Kind::String)
            fail_at(v.loc, "function attribute must be a quoted string");
          function = v.text;
          function_loc = v.loc;
          lexer_.next();
        } else {
          skip_attribute_value();
        }
        lexer_.expect_punct(';');
      }
      if (!have_direction)
        fail_at(pin.loc, "pin '" + pin.text + "' has no direction");
      if (is_output) {
        if (have_function)
          fail_at(pin.loc,
                  "cell '" + rc.cell.name + "' has multiple output pins");
        if (!function)
          fail_at(pin.loc, "output pin '" + pin.text + "' has no function");
        rc.cell.output = pin.text;
        rc.function = FunctionParser(*function, function_loc).parse();
        have_function = true;
      } else {
        if (rc.cell.find_input(pin.text) >= 0)
          fail_at(pin.loc, "pin '" + pin.text + "' declared twice");
        rc.cell.inputs.push_back(pin.text);
      }
    }
    if (!have_function)
      fail_at(loc, "cell '" + rc.cell.name + "' has no output pin");
    if (rc.cell.inputs.size() > nl::kMaxTableInputs)
      fail_at(loc, "cell '" + rc.cell.name + "' has " +
                       std::to_string(rc.cell.inputs.size()) +
                       " input pins; at most " +
                       std::to_string(nl::kMaxTableInputs) +
                       " are supported");
    return rc;
  }

  /// Skips an unrecognized `name : value ;` attribute or `name (...) {...}`
  /// group so real .lib fragments (area, timing) load.
  void skip_group_or_attribute(const Token& name) {
    if (lexer_.accept_punct(':')) {
      skip_attribute_value();
      lexer_.expect_punct(';');
      return;
    }
    if (lexer_.peek().is_punct('(')) {
      int depth = 0;
      do {
        const Token& t = lexer_.peek();
        if (t.kind == Token::Kind::End)
          fail_at(name.loc, "unterminated group");
        if (t.is_punct('(')) ++depth;
        if (t.is_punct(')')) --depth;
        lexer_.next();
      } while (depth > 0);
      if (lexer_.accept_punct(';')) return;
      if (!lexer_.peek().is_punct('{'))
        fail_at(name.loc, "expected '{' or ';' after group header");
    }
    if (lexer_.accept_punct('{')) {
      int depth = 1;
      while (depth > 0) {
        const Token& t = lexer_.peek();
        if (t.kind == Token::Kind::End)
          fail_at(name.loc, "unterminated group");
        if (t.is_punct('{')) ++depth;
        if (t.is_punct('}')) --depth;
        lexer_.next();
      }
      return;
    }
    fail_at(name.loc, "expected attribute or group after '" + name.text + "'");
  }

  void skip_attribute_value() {
    const Token& t = lexer_.peek();
    if (t.kind == Token::Kind::End || t.is_punct(';'))
      fail_at(t.loc, "missing attribute value");
    while (!lexer_.peek().is_punct(';') &&
           lexer_.peek().kind != Token::Kind::End)
      lexer_.next();
  }

  Lexer lexer_;
};

}  // namespace

CellLibrary parse_cell_library(const std::string& text,
                               const std::string& filename) {
  return LibraryParser(text, filename).parse();
}

CellLibrary load_cell_library_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open cell library '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_cell_library(ss.str(), path);
}

}  // namespace gfre::frontend
