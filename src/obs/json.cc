#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/checked.h"

namespace bss::obs::json {

Value::Value(std::uint64_t value) {
  if (value <= static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max())) {
    kind_ = Kind::kInt;
    int_ = static_cast<std::int64_t>(value);
  } else {
    kind_ = Kind::kDouble;
    double_ = static_cast<double>(value);
  }
}

bool Value::as_bool() const {
  expects(is_bool(), "json::Value::as_bool on non-bool");
  return bool_;
}

std::int64_t Value::as_int() const {
  expects(is_int(), "json::Value::as_int on non-integer");
  return int_;
}

double Value::as_double() const {
  expects(is_number(), "json::Value::as_double on non-number");
  return is_int() ? static_cast<double>(int_) : double_;
}

const std::string& Value::as_string() const {
  expects(is_string(), "json::Value::as_string on non-string");
  return string_;
}

const Array& Value::as_array() const {
  expects(is_array(), "json::Value::as_array on non-array");
  return array_;
}

const Object& Value::as_object() const {
  expects(is_object(), "json::Value::as_object on non-object");
  return object_;
}

Array& Value::as_array() {
  expects(is_array(), "json::Value::as_array on non-array");
  return array_;
}

Object& Value::as_object() {
  expects(is_object(), "json::Value::as_object on non-object");
  return object_;
}

const Value* Value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

bool Value::operator==(const Value& other) const {
  if (kind_ != other.kind_) {
    // Numeric cross-kind equality (1 == 1.0) would make round-trip tests
    // lie about representation; require exact kind.
    return false;
  }
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kInt:
      return int_ == other.int_;
    case Kind::kDouble:
      return double_ == other.double_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kObject:
      return object_ == other.object_;
  }
  return false;
}

void append_quoted(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

namespace {

void append_double(std::string& out, double value) {
  expects(std::isfinite(value), "json: NaN/Inf cannot be serialized");
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
  // Keep doubles visibly doubles: "1" would re-parse as an integer and
  // break the round-trip fixed point.
  std::string_view written(buf, static_cast<std::size_t>(result.ptr - buf));
  if (written.find('.') == std::string_view::npos &&
      written.find('e') == std::string_view::npos &&
      written.find("inf") == std::string_view::npos) {
    out += ".0";
  }
}

void dump_value(const Value& value, std::string& out, int indent, int depth) {
  const auto newline_pad = [&](int levels) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };
  switch (value.kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      const auto result =
          std::to_chars(buf, buf + sizeof buf, value.as_int());
      out.append(buf, result.ptr);
      break;
    }
    case Kind::kDouble:
      append_double(out, value.as_double());
      break;
    case Kind::kString:
      append_quoted(out, value.as_string());
      break;
    case Kind::kArray: {
      const Array& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const Value& element : array) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        dump_value(element, out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      const Object& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : object) {
        if (!first) out.push_back(',');
        first = false;
        newline_pad(depth + 1);
        append_quoted(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        dump_value(member, out, indent, depth + 1);
      }
      newline_pad(depth);
      out.push_back('}');
      break;
    }
  }
}

// ------------------------------------------------------------------ parser

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) == literal) {
      pos += literal.size();
      return true;
    }
    return fail("invalid literal");
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape digit");
      }
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos;
        continue;
      }
      ++pos;
      if (pos >= text.size()) return fail("truncated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos + 1 >= text.size() || text[pos] != '\\' ||
                text[pos + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  /// Consumes one or more digits; false if there is none.
  bool digits() {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    return pos > start;
  }

  /// RFC 8259's number grammar:
  /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    if (pos < text.size() && text[pos] == '0') {
      ++pos;  // a leading zero is the whole integer part: no 00, 01, -01
      if (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        return fail("invalid number");
      }
    } else if (!digits()) {
      return fail("invalid number");
    }
    bool integral = true;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (!digits()) return fail("invalid number");
      integral = false;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digits()) return fail("invalid number");
      integral = false;
    }
    const std::string_view token = text.substr(start, pos - start);
    if (integral) {
      std::int64_t value = 0;
      const auto result =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (result.ec == std::errc() &&
          result.ptr == token.data() + token.size()) {
        out = Value(value);
        return true;
      }
      // Out-of-int64-range integers fall through to double.
    }
    double value = 0;
    const auto result =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (result.ec != std::errc() ||
        result.ptr != token.data() + token.size() || !std::isfinite(value)) {
      return fail("invalid number");
    }
    out = Value(value);
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case 'n':
        if (!parse_literal("null")) return false;
        out = Value(nullptr);
        return true;
      case 't':
        if (!parse_literal("true")) return false;
        out = Value(true);
        return true;
      case 'f':
        if (!parse_literal("false")) return false;
        out = Value(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case '[': {
        ++pos;
        Array array;
        skip_ws();
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          out = Value(std::move(array));
          return true;
        }
        for (;;) {
          Value element;
          if (!parse_value(element, depth + 1)) return false;
          array.push_back(std::move(element));
          skip_ws();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          if (!consume(']')) return false;
          out = Value(std::move(array));
          return true;
        }
      }
      case '{': {
        ++pos;
        Object object;
        skip_ws();
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          out = Value(std::move(object));
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          Value member;
          if (!parse_value(member, depth + 1)) return false;
          if (!object.emplace(std::move(key), std::move(member)).second) {
            return fail("duplicate object key");
          }
          skip_ws();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          if (!consume('}')) return false;
          out = Value(std::move(object));
          return true;
        }
      }
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
        return fail("unexpected character");
    }
  }
};

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  return out;
}

std::optional<Value> Value::parse(std::string_view text, std::string* error) {
  Parser parser{text, 0, {}};
  Value value;
  if (!parser.parse_value(value, 0)) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    parser.fail("trailing garbage after document");
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  return value;
}

// ------------------------------------------------------------------ reader

Reader::Reader(const Value& value, std::string where,
               std::vector<std::string>& errors)
    : where_(std::move(where)), errors_(&errors) {
  if (value.is_object()) {
    object_ = &value.as_object();
  } else {
    fail("is not an object");
  }
}

const Object& Reader::members() const {
  static const Object kEmpty;
  return object_ != nullptr ? *object_ : kEmpty;
}

bool Reader::has(std::string_view key) const {
  return object_ != nullptr && object_->count(std::string(key)) != 0;
}

const Value* Reader::value(std::string_view key, Presence presence) {
  if (object_ == nullptr) return nullptr;
  const auto it = object_->find(std::string(key));
  if (it == object_->end()) {
    if (presence == kRequired) {
      errors_->push_back("missing required " + where_ + " key \"" +
                         std::string(key) + "\"");
    }
    return nullptr;
  }
  read_.push_back(&it->second);
  return &it->second;
}

bool Reader::boolean(std::string_view key, Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return false;
  if (member->is_bool()) return member->as_bool();
  fail(key, "is not a boolean");
  return false;
}

std::string Reader::string(std::string_view key, Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return {};
  if (member->is_string()) return member->as_string();
  fail(key, "is not a string");
  return {};
}

std::string Reader::one_of(std::string_view key,
                           std::initializer_list<std::string_view> names,
                           Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return {};
  if (!member->is_string()) {
    fail(key, "is not a string");
    return {};
  }
  if (std::find(names.begin(), names.end(), member->as_string()) ==
      names.end()) {
    std::string listed;
    for (const std::string_view name : names) {
      listed += (listed.empty() ? "" : " / ") + std::string(name);
    }
    fail(key, "is not one of " + listed);
  }
  return member->as_string();
}

double Reader::rate(std::string_view key, Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return 0;
  if (!member->is_number()) {
    fail(key, "is not a number");
    return 0;
  }
  const double parsed = member->as_double();
  if (parsed >= 0.0 && parsed <= 1e308) return parsed;
  fail(key, "is negative or not finite");
  return 0;
}

Reader Reader::object(std::string_view key, Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return Reader(path(key), *errors_);
  if (!member->is_object()) {
    fail(key, "is not an object");
    return Reader(path(key), *errors_);
  }
  return Reader(*member, path(key), *errors_);
}

const Array* Reader::array(std::string_view key, Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return nullptr;
  if (member->is_array()) return &member->as_array();
  fail(key, "is not an array");
  return nullptr;
}

Reader Reader::item(std::string_view key, std::size_t index,
                    const Value& value) const {
  return Reader(value, path(key) + "[" + std::to_string(index) + "]",
                *errors_);
}

void Reader::fail(std::string_view key, std::string_view what) {
  errors_->push_back(where_ + " key \"" + std::string(key) + "\" " +
                     std::string(what));
}

void Reader::fail(std::string_view what) {
  errors_->push_back(where_ + ": " + std::string(what));
}

void Reader::finish() {
  if (object_ == nullptr) return;
  for (const auto& [key, member] : *object_) {
    if (std::find(read_.begin(), read_.end(), &member) == read_.end()) {
      errors_->push_back("unknown " + where_ + " key \"" + key +
                         "\" (schema drift? bump the version)");
    }
  }
}

std::string Reader::path(std::string_view key) const {
  if (where_ == "top-level") return std::string(key);
  return where_ + "." + std::string(key);
}

std::optional<Value> parse_document(std::string_view text,
                                    std::vector<std::string>& errors) {
  std::string error;
  std::optional<Value> document = Value::parse(text, &error);
  if (!document.has_value()) errors.push_back("parse error: " + error);
  return document;
}

Reader read_schema(const Value& document, std::string_view schema,
                   std::vector<std::string>& errors) {
  if (!document.is_object()) {
    errors.emplace_back("document is not a JSON object");
    return Reader("top-level", errors);
  }
  Reader root(document, "top-level", errors);
  const Value* line = document.find("schema");
  if (line == nullptr || !line->is_string()) {
    errors.emplace_back("missing schema version key \"schema\"");
  } else if (line->as_string() != schema) {
    errors.push_back("unknown schema version '" + line->as_string() +
                     "' (this build reads '" + std::string(schema) + "')");
  }
  (void)root.value("schema", kOptional);
  return root;
}

}  // namespace bss::obs::json
