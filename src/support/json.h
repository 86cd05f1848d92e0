// Minimal JSON value model, parser, and serializer.
//
// Device-cloud message bodies are predominantly JSON (§II-A, Listing 2); the
// cloud simulator parses incoming bodies with this module, and the message
// reconstructor serializes inferred formats with it. Object keys preserve
// insertion order because field *order* is part of what FIRMRES recovers
// (§IV-D "Inferring the message format (with the correct order of the
// fields) is necessary as it is strictly checked by the cloud").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "support/error.h"

namespace firmres::support {

class Json;

/// Deepest array/object nesting Json::parse accepts. The parser and the
/// DOM recurse once per level, so without a bound a few hundred kilobytes
/// of `[` overflow the stack; deeper input raises ParseError instead.
inline constexpr int kJsonMaxDepth = 512;

using JsonArray = std::vector<Json>;
/// Insertion-ordered object representation.
using JsonObject = std::vector<std::pair<std::string, Json>>;

/// A JSON value. Value-semantic; copies are deep.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::Null; }
  bool is_object() const { return type() == Type::Object; }
  bool is_array() const { return type() == Type::Array; }
  bool is_string() const { return type() == Type::String; }
  bool is_number() const { return type() == Type::Number; }
  bool is_bool() const { return type() == Type::Bool; }

  /// Typed accessors; FIRMRES_CHECK on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& as_array();
  JsonObject& as_object();

  /// Object lookup; returns nullptr when absent or not an object.
  const Json* find(std::string_view key) const;

  /// Object insert-or-overwrite, preserving the position of existing keys.
  void set(std::string key, Json value);

  /// Number of object keys / array elements (0 for scalars).
  std::size_t size() const;

  /// Serialize. `pretty` adds two-space indentation, starting at `indent`
  /// levels: a value dumped at indent 1 is byte-for-byte what it looks like
  /// as an element of a pretty-printed top-level array.
  std::string dump(bool pretty = false, int indent = 0) const;

  /// Parse a complete JSON document. Throws ParseError on malformed input,
  /// including nesting deeper than kJsonMaxDepth.
  static Json parse(std::string_view text);

  /// Parse, returning nullopt instead of throwing (for probing code paths
  /// where malformed bodies are an expected outcome).
  static std::optional<Json> try_parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;

  void dump_to(std::string& out, bool pretty, int indent) const;
};

}  // namespace firmres::support
