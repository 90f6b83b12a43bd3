#include "support/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace dhc::support {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("json parse error at byte " + std::to_string(pos) + ": " + what);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters after document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t i = 0;
    while (lit[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != lit[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail(pos_, "bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue::make_object(std::move(obj));
      }
      fail(pos_, "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue::make_array(std::move(arr));
      }
      fail(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail(pos_ - 1, "unescaped control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_ - 1, "bad hex digit in \\u escape");
          }
          // libdhc only ever escapes control characters, so a plain UTF-8
          // encoding of the BMP code point suffices (no surrogate pairs).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default: fail(pos_ - 1, "unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail(start, "expected a value");
    }
    const std::string tok = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || errno == ERANGE) fail(start, "bad number");
    if (integral && tok[0] != '-') {
      errno = 0;
      const unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
      if (end == tok.c_str() + tok.size() && errno != ERANGE) {
        return JsonValue::make_integer(static_cast<std::uint64_t>(u));
      }
    }
    return JsonValue::make_number(d);
  }
};

[[noreturn]] void kind_error(const char* want) {
  throw std::invalid_argument(std::string("json value is not ") + want);
}

}  // namespace

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_integer(std::uint64_t u) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = static_cast<double>(u);
  v.int_ = u;
  v.has_int_ = true;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(JsonArray a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::make_shared<JsonArray>(std::move(a));
  return v;
}

JsonValue JsonValue::make_object(JsonObject o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::make_shared<JsonObject>(std::move(o));
  return v;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  if (!has_int_) kind_error("an integral number");
  return int_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const JsonArray& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return *arr_;
}

const JsonObject& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return *obj_;
}

const JsonValue& JsonValue::get(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) throw std::invalid_argument("json object has no key \"" + key + '"');
  return *v;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("an object");
  const auto it = obj_->find(key);
  return it == obj_->end() ? nullptr : &it->second;
}

JsonValue parse_json(const std::string& text) { return Parser(text).parse_document(); }

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

}  // namespace dhc::support
