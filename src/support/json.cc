#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace firmres::support {

namespace {

/// Length of the well-formed UTF-8 sequence at s[i], or 0 when the bytes
/// there are not valid UTF-8 (bad lead byte, truncated or wrong
/// continuation bytes, overlong encoding, surrogate, or > U+10FFFF).
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char lead = byte(i);
  std::size_t len;
  unsigned code_min;
  if (lead < 0xC2) return 0;  // continuation byte or overlong C0/C1 lead
  if (lead < 0xE0) { len = 2; code_min = 0x80; }
  else if (lead < 0xF0) { len = 3; code_min = 0x800; }
  else if (lead < 0xF5) { len = 4; code_min = 0x10000; }
  else return 0;  // would encode above U+10FFFF
  if (i + len > s.size()) return 0;
  unsigned code = lead & (0x7Fu >> len);
  for (std::size_t k = 1; k < len; ++k) {
    if ((byte(i + k) & 0xC0) != 0x80) return 0;
    code = (code << 6) | (byte(i + k) & 0x3Fu);
  }
  if (code < code_min || code > 0x10FFFF) return 0;
  if (code >= 0xD800 && code <= 0xDFFF) return 0;  // surrogate
  return len;
}

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (std::size_t i = 0; i < s.size();) {
    // Copy the run of printable ASCII that needs no escape in one append.
    std::size_t run = i;
    while (run < s.size() && static_cast<unsigned char>(s[run]) >= 0x20 &&
           static_cast<unsigned char>(s[run]) < 0x80 && s[run] != '"' &&
           s[run] != '\\')
      ++run;
    out.append(s.substr(i, run - i));
    i = run;
    if (i == s.size()) break;
    const char c = s[i];
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      default: break;
    }
    const unsigned char byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", byte);
      out += buf;
      ++i;
    } else if (const std::size_t len = utf8_sequence_length(s, i); len > 0) {
      // Well-formed multi-byte sequence: copy through unescaped.
      out.append(s, i, len);
      i += len;
    } else {
      // Invalid UTF-8 (firmware strings carry arbitrary bytes): replace
      // the byte with U+FFFD so the emitted document is always valid.
      out += "\\ufffd";
      ++i;
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[24];
    const auto end =
        std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d)).ptr;
    out.append(buf, end);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

/// Build a DOM value from the reader's next value.
Json build(JsonReader& r) {
  switch (r.peek()) {
    case JsonReader::Kind::Null: r.read_null(); return Json(nullptr);
    case JsonReader::Kind::Bool: return Json(r.read_bool());
    case JsonReader::Kind::Number: return Json(r.read_number());
    case JsonReader::Kind::String: return Json(r.read_string());
    case JsonReader::Kind::Array: {
      JsonArray arr;
      r.begin_array();
      while (r.next_element()) arr.push_back(build(r));
      return Json(std::move(arr));
    }
    case JsonReader::Kind::Object: {
      JsonObject obj;
      r.begin_object();
      for (std::string_view key; r.next_member(key);) {
        std::string owned(key);
        obj.emplace_back(std::move(owned), build(r));
      }
      return Json(std::move(obj));
    }
  }
  return Json();  // unreachable: peek() returns one of the kinds above
}

}  // namespace

// --- JsonReader ---------------------------------------------------------------

void JsonReader::fail(std::string_view msg) const {
  throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                   ": " + std::string(msg));
}

void JsonReader::fail_expected(char c) const {
  fail(std::string("expected '") + c + "'");
}

void JsonReader::read_null() {
  skip_ws();
  if (text_.substr(pos_, 4) != "null") fail("bad literal");
  pos_ += 4;
}

bool JsonReader::read_bool() {
  skip_ws();
  if (text_.substr(pos_, 4) == "true") {
    pos_ += 4;
    return true;
  }
  if (text_.substr(pos_, 5) == "false") {
    pos_ += 5;
    return false;
  }
  fail("bad literal");
}

double JsonReader::read_number() {
  skip_ws();
  const std::size_t start = pos_;
  const auto digit = [&] {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  };
  const bool negative = pos_ < text_.size() && text_[pos_] == '-';
  if (negative) ++pos_;
  if (!digit()) fail("expected a value");
  const std::size_t digits_start = pos_;
  std::uint64_t whole = 0;  // wraps past 19 digits; only read up to 15
  while (digit()) whole = whole * 10 + static_cast<unsigned>(text_[pos_++] - '0');
  const std::size_t digits_end = pos_;
  while (digit() || (pos_ < text_.size() &&
                     (text_[pos_] == '.' || text_[pos_] == 'e' ||
                      text_[pos_] == 'E' || text_[pos_] == '+' ||
                      text_[pos_] == '-')))
    ++pos_;
  // A plain integer of at most 15 digits is exact in a double, so it needs
  // no general conversion (ids, offsets and sizes are these).
  if (pos_ == digits_end && digits_end - digits_start <= 15) {
    const auto d = static_cast<double>(whole);
    return negative ? -d : d;
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  double d = 0;
  const auto [end, ec] = std::from_chars(first, last, d);
  // std::stod rejected what from_chars flags out of range and also every
  // subnormal result (ERANGE); keep rejecting both.
  if (ec != std::errc() || end != last || std::fpclassify(d) == FP_SUBNORMAL)
    fail("bad number: " + std::string(first, last));
  return d;
}

std::string_view JsonReader::read_string() {
  skip_ws();
  expect('"');
  const std::size_t start = pos_;
  while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\')
    ++pos_;
  if (pos_ >= text_.size()) fail("unterminated string");
  if (text_[pos_] == '"') return text_.substr(start, pos_++ - start);
  return read_escaped(start);
}

// The string from `start` (just past the opening quote) up to pos_ has no
// escapes; pos_ is at a backslash. Decode the rest into scratch_.
std::string_view JsonReader::read_escaped(std::size_t start) {
  scratch_.assign(text_, start, pos_ - start);
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch_;
    if (c != '\\') {
      scratch_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    switch (text_[pos_++]) {
      case '"': scratch_.push_back('"'); break;
      case '\\': scratch_.push_back('\\'); break;
      case '/': scratch_.push_back('/'); break;
      case 'n': scratch_.push_back('\n'); break;
      case 't': scratch_.push_back('\t'); break;
      case 'r': scratch_.push_back('\r'); break;
      case 'b': scratch_.push_back('\b'); break;
      case 'f': scratch_.push_back('\f'); break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else fail("bad hex digit in \\u escape");
        }
        // Encode as UTF-8 (BMP only; surrogate pairs unsupported — the
        // synthesized corpora are ASCII).
        if (code < 0x80) {
          scratch_.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          scratch_.push_back(static_cast<char>(0xC0 | (code >> 6)));
          scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          scratch_.push_back(static_cast<char>(0xE0 | (code >> 12)));
          scratch_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          scratch_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
}

void JsonReader::enter(char open) {
  skip_ws();
  if (++depth_ > kJsonMaxDepth)
    fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
  expect(open);
  first_ = true;
}

void JsonReader::begin_array() { enter('['); }
void JsonReader::begin_object() { enter('{'); }

bool JsonReader::next_in(char close) {
  skip_ws();
  if (next_char() == close) {
    ++pos_;
    --depth_;
    first_ = false;
    return false;
  }
  if (first_) first_ = false;
  else expect(',');
  return true;
}

bool JsonReader::next_element() { return next_in(']'); }

bool JsonReader::next_member(std::string_view& key) {
  if (!next_in('}')) return false;
  key = read_string();
  skip_ws();
  expect(':');
  return true;
}

void JsonReader::skip() {
  switch (peek()) {
    case Kind::Null: read_null(); break;
    case Kind::Bool: read_bool(); break;
    case Kind::Number: read_number(); break;
    case Kind::String: read_string(); break;
    case Kind::Array:
      begin_array();
      while (next_element()) skip();
      break;
    case Kind::Object:
      begin_object();
      for (std::string_view key; next_member(key);) skip();
      break;
  }
}

void JsonReader::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after JSON value");
}

// --- Json -------------------------------------------------------------------

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::Null;
    case 1: return Type::Bool;
    case 2: return Type::Number;
    case 3: return Type::String;
    case 4: return Type::Array;
    default: return Type::Object;
  }
}

bool Json::as_bool() const {
  FIRMRES_CHECK_MSG(is_bool(), "Json::as_bool on non-bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  FIRMRES_CHECK_MSG(is_number(), "Json::as_number on non-number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  FIRMRES_CHECK_MSG(is_string(), "Json::as_string on non-string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  FIRMRES_CHECK_MSG(is_array(), "Json::as_array on non-array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  FIRMRES_CHECK_MSG(is_object(), "Json::as_object on non-object");
  return std::get<JsonObject>(value_);
}

JsonArray& Json::as_array() {
  FIRMRES_CHECK_MSG(is_array(), "Json::as_array on non-array");
  return std::get<JsonArray>(value_);
}

JsonObject& Json::as_object() {
  FIRMRES_CHECK_MSG(is_object(), "Json::as_object on non-object");
  return std::get<JsonObject>(value_);
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string key, Json value) {
  if (!is_object()) value_ = JsonObject{};
  auto& obj = as_object();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void Json::dump_to(std::string& out, bool pretty, int indent) const {
  // Pretty output puts each element on its own line, indented two spaces
  // per level, and the closing bracket on a line at the container's level.
  const auto newline = [&](int level) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(level) * 2, ' ');
  };
  switch (type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += as_bool() ? "true" : "false"; break;
    case Type::Number: append_number(out, as_number()); break;
    case Type::String: append_escaped(out, as_string()); break;
    case Type::Array: {
      const auto& arr = as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(indent + 1);
        arr[i].dump_to(out, pretty, indent + 1);
      }
      newline(indent);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const auto& obj = as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline(indent + 1);
        append_escaped(out, obj[i].first);
        out += pretty ? ": " : ":";
        obj[i].second.dump_to(out, pretty, indent + 1);
      }
      newline(indent);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(bool pretty, int indent) const {
  std::string out;
  dump_to(out, pretty, indent);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonReader reader(text);
  Json doc = build(reader);
  reader.finish();
  return doc;
}

std::optional<Json> Json::try_parse(std::string_view text) {
  try {
    return parse(text);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

bool Json::operator==(const Json& other) const { return value_ == other.value_; }

}  // namespace firmres::support
