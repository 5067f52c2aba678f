#include "lexer.hpp"

#include <array>
#include <cctype>
#include <string>

namespace intox::analyze {
namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// Longest-match punctuator table, three-char entries first.
constexpr std::array<std::string_view, 5> kPunct3 = {"<<=", ">>=", "...",
                                                     "->*", "<=>"};
constexpr std::array<std::string_view, 19> kPunct2 = {
    "++", "--", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->"};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  TokenStream run() {
    TokenStream out;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '\\' && pos_ + 1 < src_.size() &&
          (src_[pos_ + 1] == '\n' ||
           (src_[pos_ + 1] == '\r' && pos_ + 2 < src_.size() &&
            src_[pos_ + 2] == '\n'))) {
        // Line continuation outside a directive: skip it.
        pos_ += (src_[pos_ + 1] == '\r') ? 3 : 2;
        ++line_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        skip_line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        skip_block_comment();
        continue;
      }
      if (c == '#' && at_line_start_) {
        lex_preprocessor(out);
        continue;
      }
      at_line_start_ = false;
      if (c == '"' || is_string_prefix_at(pos_)) {
        lex_string(out);
        continue;
      }
      if (c == '\'') {
        lex_char(out);
        continue;
      }
      if (is_ident_start(c)) {
        lex_identifier(out);
        continue;
      }
      if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
        lex_number(out);
        continue;
      }
      lex_punct(out);
    }
    return out;
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  // Detects encoding/raw prefixes (R", u8R", L", ...) so prefixed
  // literals are lexed as strings instead of identifier + string.
  bool is_string_prefix_at(std::size_t p) const {
    std::size_t q = p;
    if (q < src_.size() && (src_[q] == 'u' || src_[q] == 'U' ||
                            src_[q] == 'L')) {
      if (src_[q] == 'u' && q + 1 < src_.size() && src_[q + 1] == '8') ++q;
      ++q;
    }
    if (q < src_.size() && src_[q] == 'R') ++q;
    return q > p && q < src_.size() && src_[q] == '"';
  }

  void skip_line_comment() {
    while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
  }

  void skip_block_comment() {
    pos_ += 2;
    while (pos_ < src_.size()) {
      if (src_[pos_] == '\n') ++line_;
      if (src_[pos_] == '*' && peek(1) == '/') {
        pos_ += 2;
        return;
      }
      ++pos_;
    }
  }

  void lex_preprocessor(TokenStream& out) {
    const int start_line = line_;
    std::string text;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\\' && (peek(1) == '\n' ||
                        (peek(1) == '\r' && peek(2) == '\n'))) {
        pos_ += (peek(1) == '\r') ? 3 : 2;
        ++line_;
        text += ' ';
        continue;
      }
      if (c == '\n') break;  // leave the newline for run()
      if (c == '/' && peek(1) == '/') {
        skip_line_comment();
        break;
      }
      if (c == '/' && peek(1) == '*') {
        skip_block_comment();
        text += ' ';
        continue;
      }
      text += c;
      ++pos_;
    }
    out.push_back({TokenKind::kPreprocessor, text, start_line});
  }

  void lex_string(TokenStream& out) {
    const int start_line = line_;
    // Skip the prefix up to the opening quote.
    bool raw = false;
    while (src_[pos_] != '"') {
      if (src_[pos_] == 'R') raw = true;
      ++pos_;
    }
    ++pos_;  // opening quote
    std::string text;
    if (raw) {
      std::string delim;
      while (pos_ < src_.size() && src_[pos_] != '(') delim += src_[pos_++];
      ++pos_;  // '('
      const std::string closer = ")" + delim + "\"";
      while (pos_ < src_.size() &&
             src_.compare(pos_, closer.size(), closer) != 0) {
        if (src_[pos_] == '\n') ++line_;
        text += src_[pos_++];
      }
      pos_ += closer.size();
    } else {
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
          text += src_[pos_];
          text += src_[pos_ + 1];
          pos_ += 2;
          continue;
        }
        if (src_[pos_] == '\n') ++line_;  // unterminated; keep scanning
        text += src_[pos_++];
      }
      if (pos_ < src_.size()) ++pos_;  // closing quote
    }
    out.push_back({TokenKind::kString, text, start_line});
  }

  void lex_char(TokenStream& out) {
    const int start_line = line_;
    std::string text;
    ++pos_;  // opening quote
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
        text += src_[pos_];
        text += src_[pos_ + 1];
        pos_ += 2;
        continue;
      }
      text += src_[pos_++];
    }
    if (pos_ < src_.size()) ++pos_;
    out.push_back({TokenKind::kCharLiteral, text, start_line});
  }

  void lex_identifier(TokenStream& out) {
    const int start_line = line_;
    std::string text;
    while (pos_ < src_.size() && is_ident_char(src_[pos_]))
      text += src_[pos_++];
    out.push_back({TokenKind::kIdentifier, text, start_line});
  }

  void lex_number(TokenStream& out) {
    const int start_line = line_;
    std::string text;
    // pp-number: digits, idents, dots, digit separators, and signs that
    // directly follow an exponent marker.
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (is_ident_char(c) || c == '.' || c == '\'') {
        text += c;
        ++pos_;
        continue;
      }
      if ((c == '+' || c == '-') && !text.empty()) {
        const char prev = text.back();
        if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
          text += c;
          ++pos_;
          continue;
        }
      }
      break;
    }
    out.push_back({TokenKind::kNumber, text, start_line});
  }

  void lex_punct(TokenStream& out) {
    const int start_line = line_;
    for (std::string_view p : kPunct3) {
      if (src_.compare(pos_, p.size(), p) == 0) {
        out.push_back({TokenKind::kPunct, std::string(p), start_line});
        pos_ += p.size();
        return;
      }
    }
    // "::" is not in kPunct2 because it needs no disambiguation from
    // ":" pairs — but checks rely on it being one token.
    if (src_.compare(pos_, 2, "::") == 0) {
      out.push_back({TokenKind::kPunct, "::", start_line});
      pos_ += 2;
      return;
    }
    for (std::string_view p : kPunct2) {
      if (src_.compare(pos_, p.size(), p) == 0) {
        out.push_back({TokenKind::kPunct, std::string(p), start_line});
        pos_ += p.size();
        return;
      }
    }
    out.push_back({TokenKind::kPunct, std::string(1, src_[pos_]), start_line});
    ++pos_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

}  // namespace

TokenStream tokenize(std::string_view source) { return Lexer(source).run(); }

}  // namespace intox::analyze
