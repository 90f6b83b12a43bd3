// A minimal JSON value + recursive-descent parser.
//
// Powers the trace reader (NDJSON lines, trace/reader.h), so it only needs
// to parse what libdhc itself writes: objects, arrays, strings with
// \"/\\/\uXXXX escapes (every writer escapes with json_escape, below, and
// a raw control character is an error), numbers, true/false/null.
// Numbers are kept both ways — as double and, when the text is integral and
// in range, as uint64 — because trace counters are 64-bit and must not
// round-trip through a double.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dhc::support {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/// std::map keeps keys sorted — iteration order is deterministic, which the
/// trace tools rely on when re-emitting objects.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_integer(std::uint64_t u);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(JsonArray a);
  static JsonValue make_object(JsonObject o);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  /// True when the source text was integral and fits uint64 (as_u64 is safe).
  bool is_integral() const { return kind_ == Kind::kNumber && has_int_; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::invalid_argument on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  /// The exact integer when the source text was integral; throws if the
  /// number was written as a fraction/exponent or is out of uint64 range.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member lookup; throws std::invalid_argument when `key` is absent
  /// (get) or returns nullptr (find).
  const JsonValue& get(const std::string& key) const;
  const JsonValue* find(const std::string& key) const;

  /// Convenience: get(key).as_u64() / as_string().
  std::uint64_t u64(const std::string& key) const { return get(key).as_u64(); }
  const std::string& str(const std::string& key) const { return get(key).as_string(); }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t int_ = 0;
  bool has_int_ = false;
  std::string str_;
  // Indirect so JsonValue stays movable-cheap despite the recursive types.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parses one JSON document from `text`; requires the whole string to be
/// consumed (trailing whitespace allowed).  Throws std::invalid_argument with
/// a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

/// `s` as the body of a JSON string literal: `"` and `\` are
/// backslash-escaped, control characters become \u00XX, every other byte
/// (UTF-8 included) passes through.  parse_json reads it back to `s`.
std::string json_escape(const std::string& s);

}  // namespace dhc::support
