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
#include <limits>
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

/// Deepest array/object nesting JsonReader accepts. Its callers (the DOM
/// builder, the DOM itself, skip()) recurse once per level, so without a
/// bound a few hundred kilobytes of `[` overflow the stack; deeper input
/// raises ParseError instead.
inline constexpr int kJsonMaxDepth = 512;

/// Pull tokenizer over one JSON document, and the one JSON tokenizer:
/// Json::parse builds its DOM over it, and decoders that know their schema
/// (ir::program_from_json) read values straight from it with no DOM in
/// between. Malformed input raises ParseError "JSON parse error
/// at offset N: …"; nesting deeper than kJsonMaxDepth is malformed.
///
/// peek() names the kind of the next value; the caller then consumes it
/// with the matching read_* call, walks it as a container, or skip()s it:
///
///   r.begin_object();
///   for (std::string_view key; r.next_member(key);) { /* one value */ }
///   r.begin_array();
///   while (r.next_element()) { /* one value */ }
///
/// A reader is a small value; a copy is a bookmark that reads on from
/// where the copy was made (over the same text, which must outlive both).
class JsonReader {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Byte offset of the next unread character.
  std::size_t offset() const { return pos_; }

  /// Kind of the next value (whitespace skipped). A character that starts
  /// no value reads as Number, so read_number reports it.
  Kind peek() {
    skip_ws();
    switch (next_char()) {
      case '{': return Kind::Object;
      case '[': return Kind::Array;
      case '"': return Kind::String;
      case 't':
      case 'f': return Kind::Bool;
      case 'n': return Kind::Null;
      default: return Kind::Number;
    }
  }

  void read_null();
  bool read_bool();
  /// Parsed with std::from_chars, accepting what std::stod accepts over
  /// the same characters: out-of-range magnitudes (1e999) and subnormal
  /// results (1e-310) are malformed.
  double read_number();
  /// The next string, unescaped. The view points into the document when
  /// the string has no escapes and into the reader's scratch buffer
  /// otherwise; it stays valid until the next read_string or next_member.
  std::string_view read_string();

  /// Enter an array; then next_element() before each element, which
  /// returns false (having consumed the `]`) after the last.
  void begin_array();
  bool next_element();
  /// Enter an object; then next_member() before each value, which sets
  /// `key` (valid like a read_string view) or returns false (having
  /// consumed the `}`) after the last member.
  void begin_object();
  bool next_member(std::string_view& key);

  /// Consume the next value, whatever its kind, checking its syntax.
  void skip();

  /// Require that only whitespace follows the value just read.
  void finish();

  [[noreturn]] void fail(std::string_view msg) const;

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }
  /// The character at pos_; fails at end of input.
  char next_char() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (next_char() != c) fail_expected(c);
    ++pos_;
  }
  [[noreturn]] void fail_expected(char c) const;
  void enter(char open);
  /// Shared by next_element/next_member: false after consuming `close`.
  bool next_in(char close);
  std::string_view read_escaped(std::size_t start);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool first_ = false;  ///< a container was just entered
  std::string scratch_;
};

/// `d` cast to the integer type T exactly as static_cast does, or nullopt
/// when `d` is negative or the cast would overflow T (undefined behaviour).
/// JSON carries integers as doubles; every integer the loaders read is a
/// non-negative id, count, offset or address.
template <class T>
std::optional<T> checked_integer(double d) {
  // 2^digits, built without shifting a 64-bit one by 64.
  constexpr double kLimit =
      2.0 * static_cast<double>(std::uint64_t{1}
                                << (std::numeric_limits<T>::digits - 1));
  if (!(d >= 0.0 && d < kLimit)) return std::nullopt;
  return static_cast<T>(d);
}

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

  /// Parse a complete JSON document into a DOM (built over JsonReader).
  /// Throws ParseError on malformed input, including nesting deeper than
  /// kJsonMaxDepth.
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
