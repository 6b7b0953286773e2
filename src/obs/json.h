// Minimal JSON for the artifacts (the `bss-runreport v1`, `bss-status v1`
// and `bss-checkpoint v1` documents, the Chrome trace export): a variant
// value type, a writer with canonical output, a strict parser, and the one
// field Reader every artifact format is read through.
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

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

// ------------------------------------------------------------------ reader
//
// Each artifact format is read by one walk over its document.  A Reader
// wraps one JSON object and hands out its members by name through typed
// accessors.  An accessor marks its member read; a wrong-typed member, or
// a missing one the walk requires, records one error under the Reader's
// location label in the walk's shared list and yields an empty value, so
// the walk goes on and collects every error.  finish() reports each member
// nothing read as an unknown key.  A format's key names therefore appear
// once, in its walk, and the walk's error list is both the validator's
// findings and the parser's verdict: the document is valid iff it is empty.

enum Presence { kRequired, kOptional };

class Reader {
 public:
  /// Reads `value` under the label `where` ("top-level", "progress",
  /// "frontier[3]").  A non-object records "<where> is not an object" and
  /// yields a reader whose members are all absent.
  Reader(const Value& value, std::string where,
         std::vector<std::string>& errors);

  /// False when the wrapped value was absent or not an object.
  bool valid() const { return object_ != nullptr; }
  /// Every member, read or not (empty when !valid()).
  const Object& members() const;
  /// True when `key` is present, whatever its type; reads nothing.
  bool has(std::string_view key) const;

  /// The member, of any type; nullptr when absent.
  const Value* value(std::string_view key, Presence presence = kRequired);
  /// An integer that fits `Int`: non-negative when `Int` is unsigned.
  template <std::integral Int>
  Int integer(std::string_view key, Presence presence = kRequired);
  /// A non-negative integer.
  std::uint64_t counter(std::string_view key, Presence presence = kRequired) {
    return integer<std::uint64_t>(key, presence);
  }
  bool boolean(std::string_view key, Presence presence = kRequired);
  std::string string(std::string_view key, Presence presence = kRequired);
  /// A string that is one of `names`.
  std::string one_of(std::string_view key,
                     std::initializer_list<std::string_view> names,
                     Presence presence = kRequired);
  /// A number in [0, 1e308]: the rates of the wall-clock `timing` sections.
  double rate(std::string_view key, Presence presence = kRequired);
  /// The member object, read under "<where>.<key>".
  Reader object(std::string_view key, Presence presence = kRequired);
  /// The member array; nullptr when absent or not an array.
  const Array* array(std::string_view key, Presence presence = kRequired);
  /// A Reader over `value`, element `index` of array member `key`.
  Reader item(std::string_view key, std::size_t index,
              const Value& value) const;

  /// Records `<where> key "<key>" <what>`.
  void fail(std::string_view key, std::string_view what);
  /// Records `<where>: <what>`.
  void fail(std::string_view what);
  /// Records one unknown-key error per member that nothing has read.
  void finish();

 private:
  friend Reader read_schema(const Value& document, std::string_view schema,
                            std::vector<std::string>& errors);

  /// An invalid Reader: every member absent, no error recorded.
  Reader(std::string where, std::vector<std::string>& errors)
      : where_(std::move(where)), errors_(&errors) {}

  std::string path(std::string_view key) const;

  const Object* object_ = nullptr;
  std::string where_;
  std::vector<std::string>* errors_;
  std::vector<const Value*> read_;
};

template <std::integral Int>
Int Reader::integer(std::string_view key, Presence presence) {
  const Value* member = value(key, presence);
  if (member == nullptr) return 0;
  if (!member->is_int() || (std::is_unsigned_v<Int> && member->as_int() < 0)) {
    fail(key, std::is_unsigned_v<Int> ? "is not a non-negative integer"
                                      : "is not an integer");
  } else if (!std::in_range<Int>(member->as_int())) {
    fail(key, "is out of range");
  } else {
    return static_cast<Int>(member->as_int());
  }
  return 0;
}

/// Strict parse of one artifact; a failure records "parse error: ...".
std::optional<Value> parse_document(std::string_view text,
                                    std::vector<std::string>& errors);

/// The schema-line check: `document` must be an object whose "schema"
/// member is the string `schema`.  Returns the top-level Reader with that
/// member read; a non-object records one error and yields an invalid
/// Reader.
Reader read_schema(const Value& document, std::string_view schema,
                   std::vector<std::string>& errors);

}  // namespace bss::obs::json
