// Minimal recursive-descent JSON reader for our own schema-versioned
// artifacts (point records, flightrec dumps). Counterpart to the
// JsonWriter in obs/json.hpp; not a general-purpose parser — it accepts
// exactly the JSON we emit (UTF-8, \uXXXX limited to the BMP) and
// reports the first error with a byte offset.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace intox::obs {

/// Parsed JSON node. Object members keep source order so deterministic
/// inputs produce deterministic traversals.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                               // kArray
  std::vector<std::pair<std::string, JsonValue>> members;     // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const;

  /// Value as u64 (truncating); 0 for non-numbers.
  std::uint64_t as_u64() const;
  /// Value as double; 0.0 for non-numbers.
  double as_number() const;
};

/// Parses `input` into `*out`. On failure returns false and describes
/// the first error (with byte offset) in `*error` when non-null.
bool json_parse(std::string_view input, JsonValue* out, std::string* error);

/// Reads the whole file at `path` into `*out`; false if it cannot be
/// opened or read.
bool read_file(const std::string& path, std::string* out);

/// Reads and parses a whole file; distinguishes I/O from syntax errors
/// in `*error`.
bool json_parse_file(const std::string& path, JsonValue* out,
                     std::string* error);

}  // namespace intox::obs
