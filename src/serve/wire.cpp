#include "serve/wire.hpp"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>

#include "util/error.hpp"
#include "util/options.hpp"

namespace gfre::serve {

namespace {

/// Recursive-descent scanner over one line.  No recursion is actually
/// needed — the grammar is flat by design — but the cursor/expect shape
/// keeps error messages precise.
class Scanner {
 public:
  explicit Scanner(std::string_view s) : s_(s) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool done() const { return pos_ >= s_.size(); }
  char peek() const { return done() ? '\0' : s_[pos_]; }
  char take() {
    if (done()) fail("unexpected end of message");
    return s_[pos_++];
  }

  void expect(char c) {
    if (take() != c)
      fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("wire: " + what + " at byte " + std::to_string(pos_));
  }

  std::size_t pos() const { return pos_; }
  std::string_view view() const { return s_; }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  }
}

unsigned parse_hex4(Scanner& sc) {
  unsigned v = 0;
  for (int i = 0; i < 4; ++i) {
    char c = sc.take();
    v <<= 4;
    if (c >= '0' && c <= '9')
      v |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      v |= static_cast<unsigned>(c - 'A' + 10);
    else
      sc.fail("bad \\u escape digit");
  }
  return v;
}

std::string parse_string(Scanner& sc) {
  sc.expect('"');
  std::string out;
  for (;;) {
    char c = sc.take();
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20)
      sc.fail("unescaped control character in string");
    if (c != '\\') {
      out += c;
      continue;
    }
    char esc = sc.take();
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned cp = parse_hex4(sc);
        if (cp >= 0xd800 && cp <= 0xdbff) {
          // High surrogate: a low surrogate must follow.
          if (!(sc.take() == '\\' && sc.take() == 'u'))
            sc.fail("unpaired high surrogate");
          unsigned lo = parse_hex4(sc);
          if (lo < 0xdc00 || lo > 0xdfff) sc.fail("bad low surrogate");
          cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
          sc.fail("unpaired low surrogate");
        }
        append_utf8(out, cp);
        break;
      }
      default: sc.fail("bad escape character");
    }
  }
}

WireValue parse_value(Scanner& sc) {
  sc.skip_ws();
  char c = sc.peek();
  WireValue v;
  if (c == '"') {
    v.kind = WireValue::Kind::String;
    v.text = parse_string(sc);
    return v;
  }
  if (c == 't') {
    if (!sc.consume_literal("true")) sc.fail("bad literal");
    v.kind = WireValue::Kind::Bool;
    v.boolean = true;
    return v;
  }
  if (c == 'f') {
    if (!sc.consume_literal("false")) sc.fail("bad literal");
    v.kind = WireValue::Kind::Bool;
    v.boolean = false;
    return v;
  }
  if (c == 'n') {
    if (!sc.consume_literal("null")) sc.fail("bad literal");
    v.kind = WireValue::Kind::Null;
    return v;
  }
  if (c == '{' || c == '[')
    sc.fail("nested values are not part of the wire format");
  if (c == '-' || (c >= '0' && c <= '9')) {
    std::size_t start = sc.pos();
    sc.take();  // sign or first digit
    auto number_char = [](char ch) {
      return (ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' ||
             ch == 'E' || ch == '+' || ch == '-';
    };
    while (!sc.done() && number_char(sc.peek())) sc.take();
    v.kind = WireValue::Kind::Number;
    v.text = std::string(sc.view().substr(start, sc.pos() - start));
    // Validate the token is a real JSON number, not e.g. "-" or "1..2".
    double d;
    auto [p, ec] =
        std::from_chars(v.text.data(), v.text.data() + v.text.size(), d);
    if (ec != std::errc{} || p != v.text.data() + v.text.size())
      sc.fail("malformed number '" + v.text + "'");
    // JSON forbids leading zeros ("01"); from_chars accepts them.
    std::string_view digits(v.text);
    if (!digits.empty() && digits.front() == '-') digits.remove_prefix(1);
    if (digits.size() > 1 && digits[0] == '0' && digits[1] >= '0' &&
        digits[1] <= '9')
      sc.fail("number '" + v.text + "' has a leading zero");
    return v;
  }
  sc.fail("unexpected character");
}

}  // namespace

std::uint64_t WireValue::as_u64() const {
  if (kind != Kind::Number)
    throw Error("wire: expected a number, got a " +
                std::string(kind == Kind::String ? "string"
                            : kind == Kind::Bool ? "bool"
                                                 : "null"));
  return parse_uint("wire: number", text);
}

double WireValue::as_double() const {
  if (kind != Kind::Number) throw Error("wire: expected a number");
  double v = 0;
  auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || p != text.data() + text.size())
    throw Error("wire: malformed number '" + text + "'");
  return v;
}

WireObject parse_wire_object(std::string_view line) {
  Scanner sc(line);
  sc.skip_ws();
  sc.expect('{');
  WireObject obj;
  sc.skip_ws();
  if (sc.peek() == '}') {
    sc.take();
  } else {
    for (;;) {
      sc.skip_ws();
      std::string key = parse_string(sc);
      sc.skip_ws();
      sc.expect(':');
      WireValue value = parse_value(sc);
      if (!obj.emplace(std::move(key), std::move(value)).second)
        sc.fail("duplicate key");
      sc.skip_ws();
      char c = sc.take();
      if (c == '}') break;
      if (c != ',') sc.fail("expected ',' or '}'");
    }
  }
  sc.skip_ws();
  if (!sc.done()) sc.fail("trailing bytes after object");
  return obj;
}

const WireValue* find(const WireObject& obj, const std::string& key) {
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

std::string get_string(const WireObject& obj, const std::string& key,
                       const std::string& fallback) {
  const WireValue* v = find(obj, key);
  if (!v || v->kind == WireValue::Kind::Null) return fallback;
  if (v->kind != WireValue::Kind::String)
    throw Error("wire: field '" + key + "' must be a string");
  return v->text;
}

std::uint64_t get_u64(const WireObject& obj, const std::string& key,
                      std::uint64_t fallback) {
  const WireValue* v = find(obj, key);
  if (!v || v->kind == WireValue::Kind::Null) return fallback;
  return v->as_u64();
}

bool get_bool(const WireObject& obj, const std::string& key, bool fallback) {
  const WireValue* v = find(obj, key);
  if (!v || v->kind == WireValue::Kind::Null) return fallback;
  if (v->kind != WireValue::Kind::Bool)
    throw Error("wire: field '" + key + "' must be a bool");
  return v->boolean;
}

std::string require_string(const WireObject& obj, const std::string& key) {
  const WireValue* v = find(obj, key);
  if (!v || v->kind == WireValue::Kind::Null)
    throw Error("wire: missing required field '" + key + "'");
  if (v->kind != WireValue::Kind::String)
    throw Error("wire: field '" + key + "' must be a string");
  return v->text;
}

std::optional<std::string> FdLineReader::read_line() {
  for (;;) {
    auto nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      // Compact once the consumed prefix dominates, so a long-lived
      // connection doesn't grow the buffer without bound.
      if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return line;
    }
    if (eof_) return std::nullopt;
    char chunk[4096];
    ssize_t n;
    do {
      n = ::read(fd_, chunk, sizeof chunk);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) {
      eof_ = true;
      // Anything left is an unterminated fragment from a dead peer.
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool write_line(int fd, std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    ssize_t n = ::write(fd, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace gfre::serve
