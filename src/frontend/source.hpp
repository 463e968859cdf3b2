// Shared lexing/diagnostics substrate for every netlist frontend.
//
// The three dialect parsers (.eqn, BLIF, Verilog) and the cell-library
// reader all sit on the primitives here, so source bookkeeping is written
// exactly once:
//  - Loc (file/line/column) and fail_at() -> ParseError with full position
//  - CRLF and trailing-whitespace transparency
//  - comment stripping: '#' line comments, '//' line comments and
//    '/* ... */' block comments, selected per dialect but implemented once
//  - escaped Verilog identifiers ("\foo[0] ": backslash to whitespace)
//  - `include expansion with cycle detection (token lexer only)
//
// Two access shapes are provided: LineScanner for the line-oriented
// dialects (.eqn, BLIF) and Lexer for the token-oriented ones (Verilog,
// cell libraries).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace gfre::frontend {

/// A source position with its file name, as diagnostics report it.
/// `column` is 1-based; 0 means line-granular.
struct Loc {
  std::string file = "<input>";
  int line = 1;
  int column = 0;
};

/// Throws ParseError carrying the position.
[[noreturn]] void fail_at(const Loc& loc, const std::string& msg);

// ---------------------------------------------------------------------------
// LineScanner: logical lines for .eqn / BLIF
// ---------------------------------------------------------------------------

/// Comment/continuation policy for a line-oriented dialect.
struct LineSyntax {
  bool hash_comments = true;        ///< '#' to end of line
  bool slash_comments = false;      ///< '//' to end of line
  bool block_comments = false;      ///< '/* ... */' (may span lines)
  bool backslash_continuation = false;  ///< trailing '\' joins lines
};

/// One logical line: comments stripped, CR/trailing whitespace removed,
/// continuations joined.  `line` is the physical line the logical line
/// started on.  `text` is valid until the scanner's next next() call: a
/// line with no comment or continuation is a view into the scanned text,
/// any other is a view into the scanner's own buffer.
struct LogicalLine {
  std::string_view text;
  int line = 0;
};

/// Splits text into logical lines under a dialect's LineSyntax.  Blank
/// (post-strip) lines are skipped.
class LineScanner {
 public:
  LineScanner(std::string_view text, std::string file, LineSyntax syntax);

  /// Next non-empty logical line, or nullopt at end of input.
  /// Throws ParseError on an unterminated block comment.
  std::optional<LogicalLine> next();

  const std::string& file() const { return file_; }

 private:
  /// `line` (one physical line) with trailing space trimmed, when it needs
  /// no comment stripping or continuation joining; nullopt otherwise.
  std::optional<std::string_view> plain_line(std::string_view line) const;

  std::string_view text_;
  std::string buffer_;  ///< backs lines that needed stripping or joining
  std::string file_;
  LineSyntax syntax_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool in_block_comment_ = false;
  int block_comment_line_ = 0;
};

// ---------------------------------------------------------------------------
// Lexer: tokens for Verilog / cell libraries
// ---------------------------------------------------------------------------

/// A compact source position: `file` indexes a file table (a Lexer's
/// files(), or a GraphBuilder's), `column` is 1-based with 0 meaning
/// line-granular.  A Loc, which holds the file name, is made from it only
/// when a diagnostic is thrown.
struct Pos {
  std::uint32_t file = 0;
  int line = 1;
  int column = 0;
};

struct Token {
  enum class Kind {
    Ident,   ///< identifier or keyword (text holds the name)
    Number,  ///< integer literal; value/width filled in
    String,  ///< double-quoted string (text holds the unquoted content)
    Punct,   ///< single punctuation character in text[0]
    End,     ///< end of input
  };

  Kind kind = Kind::End;
  /// A view into the lexer's text (or, for a sized literal written with
  /// '_' or capitals, its normalized spelling held by the lexer): valid
  /// for the lexer's lifetime.
  std::string_view text;
  std::uint64_t value = 0;  ///< Number: numeric value
  unsigned width = 0;       ///< Number: declared width (0 = unsized)
  bool escaped = false;     ///< Ident: came from a '\' escaped identifier
  Pos pos;

  bool is_punct(char c) const {
    return kind == Kind::Punct && text.size() == 1 && text[0] == c;
  }
  bool is_ident(std::string_view s) const {
    return kind == Kind::Ident && text == s;
  }
};

/// Resolves an `include target.  Returns the file's text, and fills
/// `resolved` with the canonical path used for cycle detection.  Returns
/// nullopt when the file cannot be found/read.
using IncludeResolver = std::function<std::optional<std::string>(
    const std::string& target, const Loc& site, std::string* resolved)>;

/// Filesystem resolver: `target` relative to the including file's
/// directory (absolute paths pass through).
IncludeResolver filesystem_include_resolver();

/// Token policy knobs per dialect.
struct LexSyntax {
  bool slash_comments = true;   ///< '//' and '/* */'
  bool hash_comments = false;   ///< '#' to end of line
  bool verilog_numbers = false; ///< sized literals: 4'b1010, 8'hff, 1'd1
  bool escaped_idents = false;  ///< '\name ' escaped identifiers
  bool directives = false;      ///< backtick directives (`include)
};

/// Streaming tokenizer with position tracking and (optionally) `include
/// expansion.  Include cycles and unreadable files are diagnosed with the
/// location of the `include directive.
///
/// Tokens are views: the lexer does not copy `text`, which must outlive
/// it, and keeps every `include'd file's text alive for its own lifetime,
/// so tokens (and anything a parser builds from their views) stay valid
/// until the lexer is destroyed.
class Lexer {
 public:
  Lexer(std::string_view text, std::string file, LexSyntax syntax,
        IncludeResolver resolver = nullptr);
  /// A temporary would die before the tokens that view it.
  Lexer(std::string&& text, std::string file, LexSyntax syntax,
        IncludeResolver resolver = nullptr) = delete;

  /// The current token (initially the first one).
  const Token& peek() const { return tok_; }

  /// Advances and returns the previous token.
  Token next();

  // -- Convenience expect/accept helpers ---------------------------------
  Token expect_ident(const char* what);
  void expect_punct(char c);
  bool accept_punct(char c);
  bool accept_ident(std::string_view s);

  /// The text of the file being read that follows the current token: a
  /// sizing hint for parsers.
  std::string_view rest() const {
    return frames_.back().text.substr(frames_.back().pos);
  }

  /// The files positions index: the lexed file first, then each
  /// `include'd file (by resolved path) in first-include order.
  const std::vector<std::string>& files() const { return files_; }
  Loc loc(const Pos& pos) const {
    return Loc{files_[pos.file], pos.line, pos.column};
  }
  [[noreturn]] void fail_at(const Pos& pos, const std::string& msg) const;
  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(tok_.pos, msg);
  }

 private:
  struct Frame {
    std::string_view text;
    std::uint32_t file = 0;  ///< index into files_ (cycle detection key)
    std::size_t pos = 0;
    int line = 1;
    int col = 1;
  };

  Frame& top() { return frames_.back(); }
  bool frame_eof() const { return frames_.back().pos >= frames_.back().text.size(); }
  char cur() const { return frames_.back().text[frames_.back().pos]; }
  void advance();
  /// The run of characters from the current one on that satisfy `pred`,
  /// consumed; it must not span a newline.
  template <typename Pred>
  std::string_view take_while(Pred pred);
  void skip_trivia();          ///< whitespace, comments, frame pops
  void handle_directive();     ///< backtick directives (`include ...)
  void lex_token();            ///< the next token of the input into tok_
  Pos here() const;

  LexSyntax syntax_;
  IncludeResolver resolver_;
  std::vector<std::string> files_;
  /// `include'd texts and normalized literal spellings tokens view; a
  /// deque never moves its elements.
  std::deque<std::string> owned_;
  std::vector<Frame> frames_;
  Token tok_;
};

}  // namespace gfre::frontend
