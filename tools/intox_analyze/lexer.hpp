// Tokenizer for intox_analyze. The tool does not parse C++: it scans a
// token stream plus raw lines, which is exactly enough for the
// project-specific conventions it enforces and keeps it dependency-free
// so it builds everywhere CI does (no libclang). Comments and literals
// are handled exactly (including raw strings and line continuations),
// so checks never fire on commented-out or quoted code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace intox::analyze {

enum class TokenKind {
  kIdentifier,   // foo, std, INTOX_INVARIANT
  kNumber,       // 42, 0x1f, 1e-3, 42ull
  kString,       // "..." (text excludes quotes; raw strings unescaped)
  kCharLiteral,  // 'x'
  kPunct,        // one operator/punctuator per token ("++", "<<=", "(")
  kPreprocessor, // one token per logical directive line ("#pragma once")
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;  // 1-based line of the token's first character
};

using TokenStream = std::vector<Token>;

/// Tokenizes a translation unit. Comments are skipped (suppression
/// pragmas are read from raw lines by the driver, not from tokens);
/// each preprocessor directive becomes a single kPreprocessor token
/// whose text is the whole logical line, continuations folded.
TokenStream tokenize(std::string_view source);

}  // namespace intox::analyze
