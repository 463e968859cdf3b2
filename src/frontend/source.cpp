#include "frontend/source.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace gfre::frontend {

void fail_at(const Loc& loc, const std::string& msg) {
  if (loc.column > 0) throw ParseError(loc.file, loc.line, loc.column, msg);
  throw ParseError(loc.file, loc.line, msg);
}

// ---------------------------------------------------------------------------
// LineScanner
// ---------------------------------------------------------------------------

LineScanner::LineScanner(std::string_view text, std::string file,
                         LineSyntax syntax)
    : text_(text), file_(std::move(file)), syntax_(syntax) {}

namespace {

void rstrip(std::string& s) {
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.pop_back();
}

constexpr std::string_view kLineSpace = " \t\r";

}  // namespace

std::optional<std::string_view> LineScanner::plain_line(
    std::string_view line) const {
  if (syntax_.hash_comments && line.find('#') != std::string_view::npos)
    return std::nullopt;
  for (std::size_t slash = line.find('/');
       slash != std::string_view::npos && slash + 1 < line.size();
       slash = line.find('/', slash + 1)) {
    const char c = line[slash + 1];
    if ((syntax_.slash_comments && c == '/') ||
        (syntax_.block_comments && c == '*'))
      return std::nullopt;
  }
  const std::size_t last = line.find_last_not_of(kLineSpace);
  line = line.substr(0, last == std::string_view::npos ? 0 : last + 1);
  if (syntax_.backslash_continuation && !line.empty() && line.back() == '\\')
    return std::nullopt;
  return line;
}

std::optional<LogicalLine> LineScanner::next() {
  while (pos_ < text_.size() || in_block_comment_) {
    if (in_block_comment_ && pos_ >= text_.size()) break;
    const int start_line = line_;
    // Fast path: a line with nothing to strip or join is returned as a
    // view into text_, without a copy.
    const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
    const auto plain = in_block_comment_
                           ? std::nullopt
                           : plain_line(text_.substr(pos_, eol - pos_));
    if (plain) {
      pos_ = eol;
      if (pos_ < text_.size()) {  // consume the '\n'
        ++pos_;
        ++line_;
      }
      const std::size_t first = plain->find_first_not_of(" \t");
      if (first == std::string_view::npos) continue;
      return LogicalLine{plain->substr(first), start_line};
    }
    std::string& out = buffer_;
    out.clear();
    bool more = true;   // keep appending physical lines (continuation)
    while (more) {
      more = false;
      // One physical line into `out`, honoring comments.
      while (pos_ < text_.size() && text_[pos_] != '\n') {
        char c = text_[pos_];
        if (in_block_comment_) {
          if (c == '*' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
            in_block_comment_ = false;
            pos_ += 2;
            continue;
          }
          ++pos_;
          continue;
        }
        if (syntax_.hash_comments && c == '#') {
          while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
          break;
        }
        if (syntax_.slash_comments && c == '/' && pos_ + 1 < text_.size() &&
            text_[pos_ + 1] == '/') {
          while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
          break;
        }
        if (syntax_.block_comments && c == '/' && pos_ + 1 < text_.size() &&
            text_[pos_ + 1] == '*') {
          in_block_comment_ = true;
          block_comment_line_ = line_;
          pos_ += 2;
          continue;
        }
        out += c;
        ++pos_;
      }
      if (pos_ < text_.size()) {  // consume the '\n'
        ++pos_;
        ++line_;
      }
      rstrip(out);
      if (syntax_.backslash_continuation && !out.empty() &&
          out.back() == '\\' && (pos_ < text_.size() || in_block_comment_)) {
        out.pop_back();
        rstrip(out);
        out += ' ';
        more = true;
      } else if (syntax_.backslash_continuation && !out.empty() &&
                 out.back() == '\\') {
        out.pop_back();  // trailing continuation at EOF: drop it
        rstrip(out);
      }
      if (more && pos_ >= text_.size() && !in_block_comment_) more = false;
    }
    // Strip leading whitespace.
    std::size_t first = out.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    return LogicalLine{std::string_view(out).substr(first), start_line};
  }
  if (in_block_comment_)
    throw ParseError(file_, block_comment_line_,
                     "unterminated block comment");
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

IncludeResolver filesystem_include_resolver() {
  return [](const std::string& target, const Loc& site,
            std::string* resolved) -> std::optional<std::string> {
    namespace fs = std::filesystem;
    fs::path p(target);
    if (p.is_relative()) {
      fs::path base = fs::path(site.file).parent_path();
      p = base / p;
    }
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(p, ec);
    *resolved = ec ? p.string() : canon.string();
    std::ifstream in(p, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
}

Lexer::Lexer(std::string_view text, std::string file, LexSyntax syntax,
             IncludeResolver resolver)
    : syntax_(syntax), resolver_(std::move(resolver)) {
  files_.push_back(std::move(file));
  frames_.push_back(Frame{text, 0});
  lex_token();
}

void Lexer::fail_at(const Pos& pos, const std::string& msg) const {
  frontend::fail_at(loc(pos), msg);
}

Pos Lexer::here() const {
  const Frame& f = frames_.back();
  return Pos{f.file, f.line, f.col};
}

void Lexer::advance() {
  Frame& f = top();
  if (f.pos >= f.text.size()) return;
  if (f.text[f.pos] == '\n') {
    ++f.line;
    f.col = 1;
  } else {
    ++f.col;
  }
  ++f.pos;
}

template <typename Pred>
std::string_view Lexer::take_while(Pred pred) {
  Frame& f = top();
  const std::size_t begin = f.pos;
  std::size_t end = begin;
  while (end < f.text.size() && pred(f.text[end])) ++end;
  f.pos = end;
  f.col += static_cast<int>(end - begin);
  return f.text.substr(begin, end - begin);
}

namespace {

constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alnum(char c) { return is_alpha(c) || is_digit(c); }
char to_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

bool ident_start(char c) { return is_alpha(c) || c == '_'; }

/// Characters that continue an identifier, by byte: the lexer's hottest
/// test, so a table lookup.
constexpr auto kIdentChar = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 256; ++c)
    table[static_cast<std::size_t>(c)] =
        is_alnum(static_cast<char>(c)) || c == '_' || c == '$' || c == '.';
  return table;
}();

}  // namespace

void Lexer::skip_trivia() {
  for (;;) {
    Frame& f = top();
    const std::string_view text = f.text;
    // Whitespace, counted in locals: a store to a Frame member may alias
    // the text, so the loop would otherwise reload every field per byte.
    std::size_t pos = f.pos;
    int line = f.line;
    int col = f.col;
    for (; pos < text.size(); ++pos) {
      const char c = text[pos];
      if (c == '\n') {
        ++line;
        col = 1;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++col;
      } else {
        break;
      }
    }
    f.pos = pos;
    f.line = line;
    f.col = col;
    if (f.pos >= text.size()) {
      if (frames_.size() > 1) {
        frames_.pop_back();
        continue;
      }
      return;
    }
    const char c = text[f.pos];
    const bool line_comment =
        (syntax_.hash_comments && c == '#') ||
        (syntax_.slash_comments && c == '/' && f.pos + 1 < text.size() &&
         text[f.pos + 1] == '/');
    if (line_comment) {
      take_while([](char ch) { return ch != '\n'; });
      continue;
    }
    if (syntax_.slash_comments && c == '/' && f.pos + 1 < text.size() &&
        text[f.pos + 1] == '*') {
      const Pos open = here();
      const std::size_t close = text.find("*/", f.pos + 2);
      if (close == std::string_view::npos)
        fail_at(open, "unterminated block comment");
      while (f.pos < close + 2) advance();
      continue;
    }
    if (syntax_.directives && c == '`') {
      handle_directive();
      continue;
    }
    return;
  }
}

void Lexer::handle_directive() {
  const Pos site = here();
  advance();  // backtick
  const std::string_view name =
      take_while([](char c) { return is_alnum(c) || c == '_'; });
  if (name != "include")
    fail_at(site, "unsupported compiler directive '`" + std::string(name) +
                      "'");
  // Expect a quoted filename.
  take_while([](char c) { return c == ' ' || c == '\t'; });
  if (frame_eof() || cur() != '"')
    fail_at(site, "`include expects a quoted filename");
  advance();
  const std::string target(
      take_while([](char c) { return c != '"' && c != '\n'; }));
  if (frame_eof() || cur() != '"')
    fail_at(site, "unterminated `include filename");
  advance();
  if (!resolver_)
    fail_at(site, "`include is not available in this context");
  if (frames_.size() >= 16)
    fail_at(site, "`include nesting too deep (limit 16)");
  std::string resolved;
  auto text = resolver_(target, loc(site), &resolved);
  if (!text)
    fail_at(site, "cannot open `include file \"" + target + "\"");
  for (const Frame& f : frames_)
    if (files_[f.file] == resolved)
      fail_at(site, "`include cycle through \"" + target + "\"");
  const auto known = std::find(files_.begin(), files_.end(), resolved);
  const auto file = static_cast<std::uint32_t>(known - files_.begin());
  if (known == files_.end()) files_.push_back(std::move(resolved));
  owned_.push_back(std::move(*text));
  frames_.push_back(Frame{owned_.back(), file});
}

void Lexer::lex_token() {
  skip_trivia();
  Token& t = tok_;
  t.value = 0;
  t.width = 0;
  t.escaped = false;
  t.pos = here();
  if (frame_eof()) {
    t.kind = Token::Kind::End;
    t.text = "<end of input>";
    return;
  }
  const char c = cur();
  if (syntax_.escaped_idents && c == '\\') {
    advance();
    t.text = take_while([](char ch) {
      return ch != ' ' && ch != '\t' && ch != '\r' && ch != '\n';
    });
    if (t.text.empty()) fail_at(t.pos, "empty escaped identifier");
    t.kind = Token::Kind::Ident;
    t.escaped = true;
    return;
  }
  if (ident_start(c)) {
    t.kind = Token::Kind::Ident;
    t.text = take_while([](char ch) {
      return kIdentChar[static_cast<unsigned char>(ch)];
    });
    return;
  }
  if (is_digit(c)) {
    const std::size_t begin = top().pos;
    const std::string_view digits =
        take_while([](char ch) { return is_digit(ch); });
    std::uint64_t value = 0;
    for (char d : digits) value = value * 10 + static_cast<unsigned>(d - '0');
    t.kind = Token::Kind::Number;
    t.text = digits;
    t.value = value;
    if (syntax_.verilog_numbers && !frame_eof() && cur() == '\'') {
      // Sized literal: <width>'<base><digits>
      advance();
      if (frame_eof()) fail_at(t.pos, "truncated sized literal");
      const char base = to_lower(cur());
      advance();
      unsigned radix = 0;
      if (base == 'b') radix = 2;
      else if (base == 'o') radix = 8;
      else if (base == 'd') radix = 10;
      else if (base == 'h') radix = 16;
      else fail_at(t.pos, std::string("bad literal base '") + base + "'");
      // Diagnostics spell the literal with its base and digits lowercase
      // and its '_' separators dropped.
      std::string spelled = std::string(digits) + "'" + base;
      std::uint64_t v = 0;
      while (!frame_eof() && (is_alnum(cur()) || cur() == '_')) {
        const char d = to_lower(cur());
        advance();
        if (d == '_') continue;
        unsigned digit;
        if (d >= '0' && d <= '9') digit = static_cast<unsigned>(d - '0');
        else if (d >= 'a' && d <= 'f') digit = static_cast<unsigned>(d - 'a') + 10;
        else fail_at(t.pos, std::string("bad digit '") + d + "' in literal");
        if (digit >= radix)
          fail_at(t.pos,
                  std::string("digit '") + d + "' out of range for base");
        v = v * radix + digit;
        spelled += d;
      }
      if (spelled.size() == digits.size() + 2)
        fail_at(t.pos, "sized literal has no digits");
      t.width = static_cast<unsigned>(value);
      if (t.width == 0 || t.width > 64)
        fail_at(t.pos, "unsupported literal width " + std::string(digits));
      t.value = v;
      const std::string_view raw = top().text.substr(begin, top().pos - begin);
      if (raw == spelled) {
        t.text = raw;
      } else {
        owned_.push_back(std::move(spelled));
        t.text = owned_.back();
      }
    }
    return;
  }
  if (c == '"') {
    advance();
    t.text = take_while([](char ch) { return ch != '"' && ch != '\n'; });
    if (frame_eof() || cur() != '"') fail_at(t.pos, "unterminated string");
    advance();
    t.kind = Token::Kind::String;
    return;
  }
  t.kind = Token::Kind::Punct;
  t.text = top().text.substr(top().pos, 1);
  advance();
}

Token Lexer::next() {
  Token prev = tok_;
  lex_token();
  return prev;
}

Token Lexer::expect_ident(const char* what) {
  if (tok_.kind != Token::Kind::Ident)
    fail(std::string("expected ") + what + ", got '" + std::string(tok_.text) +
         "'");
  return next();
}

void Lexer::expect_punct(char c) {
  if (!tok_.is_punct(c))
    fail(std::string("expected '") + c + "', got '" + std::string(tok_.text) +
         "'");
  lex_token();
}

bool Lexer::accept_punct(char c) {
  if (!tok_.is_punct(c)) return false;
  lex_token();
  return true;
}

bool Lexer::accept_ident(std::string_view s) {
  if (!tok_.is_ident(s)) return false;
  lex_token();
  return true;
}

}  // namespace gfre::frontend
