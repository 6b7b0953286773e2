// Names of shared objects and of their operations.
//
// Every OpDesc names an object and an operation.  The explorer compares
// both on its hot path (ops_commute, the "sc" and "timer" checks), a grant
// copies them into its trace event, and a parked process holds them across
// every unwind that abandons it.  So neither is a string:
//
//  * ObjectName is a handle to a spelling that is interned once,
//    process-wide, and never freed.  Two handles are equal iff their
//    spellings are equal.  Interning is a lookup, so an object interns its
//    name once, when it is constructed, and every operation reuses the
//    handle.  The constructor is explicit for that reason: a string does
//    not silently become a per-step lookup.
//  * OpName is one of a closed set of operation kinds, picked at compile
//    time from the literal, so `ctx.sync({name_, "write", v, 0})` keeps its
//    spelling (and tools/bss_lint keeps reading it), and a spelling outside
//    the set does not compile.
//
// Both are trivially copyable, hence so is OpDesc: copying one copies a few
// words, and unwinding through a frame that holds one runs no destructor.
// view() gives back the spelling wherever one is shown — traces, audit
// findings, messages — and the explorer's fingerprint key hashes each
// spelling's length and bytes through it, so stored keys do not depend on
// handle values.
//
// Interning is thread-safe.  Each thread keeps a cache in front of the
// shared table, so a name the thread has interned before takes no lock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace bss::sim {

/// An interned object name.  Default-constructed, it is the empty spelling,
/// equal to ObjectName("").
class ObjectName {
 public:
  constexpr ObjectName() = default;
  /// Interns `spelling`: a lookup in this thread's cache, plus one under
  /// the shared table's lock for a spelling new to the thread.
  explicit ObjectName(std::string_view spelling);

  std::string_view view() const {
    return spelling_ == nullptr ? std::string_view{} : *spelling_;
  }

  friend bool operator==(ObjectName, ObjectName) = default;

 private:
  const std::string* spelling_ = nullptr;  ///< interned, never freed
};

/// One of the closed set of operation kinds.  Built from a string literal
/// at compile time; an unknown spelling is a compile error.
class OpName {
 public:
  constexpr OpName() = default;  ///< the empty spelling
  template <std::size_t N>
  consteval OpName(const char (&spelling)[N])  // implicit: a literal converts
      : id_(index_of(std::string_view(spelling, N - 1))) {}

  constexpr std::string_view view() const { return kSpellings[id_]; }

  friend constexpr bool operator==(OpName, OpName) = default;

 private:
  static constexpr std::array<std::string_view, 13> kSpellings = {
      "",    "read", "write", "cas",  "ll",      "sc",    "tas",
      "swap", "rmw", "rmw1",  "faa", "propose", "timer"};

  static consteval std::uint8_t index_of(std::string_view spelling) {
    for (std::size_t i = 0; i < kSpellings.size(); ++i) {
      if (kSpellings[i] == spelling) return static_cast<std::uint8_t>(i);
    }
    throw "OpName: not an operation kind (add it to OpName::kSpellings)";
  }

  std::uint8_t id_ = 0;
};

std::ostream& operator<<(std::ostream& out, ObjectName name);
std::ostream& operator<<(std::ostream& out, OpName name);

}  // namespace bss::sim
