#include "support/json.h"

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
    } else if (byte < 0x80) {
      out.push_back(c);
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
    out += std::to_string(static_cast<std::int64_t>(d));
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  // Entered at each '[' / '{'; the matching return leaves.
  void descend() {
    if (++depth_ > kJsonMaxDepth)
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
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
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("expected a value");
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    try {
      std::size_t consumed = 0;
      const double d = std::stod(num, &consumed);
      if (consumed != num.size()) fail("bad number: " + num);
      return Json(d);
    } catch (const std::exception&) {
      fail("bad number: " + num);
    }
  }

  Json parse_array() {
    descend();
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ']') {
        ++pos_;
        --depth_;
        return Json(std::move(arr));
      }
      expect(',');
    }
  }

  Json parse_object() {
    descend();
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == '}') {
        ++pos_;
        --depth_;
        return Json(std::move(obj));
      }
      expect(',');
    }
  }
};

}  // namespace

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
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) * 2, ' ') : "";
  const std::string pad_in =
      pretty ? std::string(static_cast<std::size_t>(indent + 1) * 2, ' ') : "";
  const char* nl = pretty ? "\n" : "";
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
      out += "[";
      out += nl;
      for (std::size_t i = 0; i < arr.size(); ++i) {
        out += pad_in;
        arr[i].dump_to(out, pretty, indent + 1);
        if (i + 1 < arr.size()) out += ",";
        out += nl;
      }
      out += pad;
      out += "]";
      break;
    }
    case Type::Object: {
      const auto& obj = as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += "{";
      out += nl;
      for (std::size_t i = 0; i < obj.size(); ++i) {
        out += pad_in;
        append_escaped(out, obj[i].first);
        out += pretty ? ": " : ":";
        obj[i].second.dump_to(out, pretty, indent + 1);
        if (i + 1 < obj.size()) out += ",";
        out += nl;
      }
      out += pad;
      out += "}";
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
  return Parser(text).parse_document();
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
