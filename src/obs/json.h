// Minimal JSON for the telemetry layer's artifacts (the `bss-runreport v1`
// and `bss-status v1` documents, the Chrome trace export): a variant value
// type, a writer with canonical output, and a strict parser for round-trips
// and CI schema validation.
//
// Canonical output means byte-stable for equal values: object members are
// stored in a sorted map (so key order never depends on insertion order),
// integers print as integers, and doubles print shortest-round-trip via
// std::to_chars.  parse(dump(v)) == v and dump(parse(t)) is a fixed point,
// which is what lets tests assert artifact round-trips by string equality.
//
// Deliberately not a general-purpose library: no comments, no trailing
// commas, no NaN/Inf (rejected on write and parse), numbers outside int64
// fall back to double.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bss::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}  // NOLINT(google-explicit-constructor)
  Value(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  Value(std::int64_t value) : kind_(Kind::kInt), int_(value) {}  // NOLINT
  Value(int value) : kind_(Kind::kInt), int_(value) {}  // NOLINT
  Value(std::uint64_t value);  // NOLINT  int64 when it fits, else double
  Value(double value) : kind_(Kind::kDouble), double_(value) {}  // NOLINT
  Value(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}  // NOLINT
  Value(const char* value) : kind_(Kind::kString), string_(value) {}  // NOLINT
  Value(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}  // NOLINT
  Value(Object value) : kind_(Kind::kObject), object_(std::move(value)) {}  // NOLINT

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; InvariantError on kind mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  ///< accepts kInt too (widening)
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  bool operator==(const Value& other) const;

  /// Canonical serialization.  indent == 0 is compact (no whitespace);
  /// indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Strict parse of exactly one JSON document (trailing garbage is an
  /// error).  On failure returns nullopt and, when `error` is non-null,
  /// stores a one-line description with the byte offset.
  static std::optional<Value> parse(std::string_view text,
                                    std::string* error = nullptr);

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Appends the JSON escaping of `text` (quotes included) to `out`.
void append_quoted(std::string& out, std::string_view text);

}  // namespace bss::obs::json
