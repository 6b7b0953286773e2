// Narrowing and invariant helpers in the spirit of the GSL (C++ Core
// Guidelines ES.46, I.6): fail loudly instead of silently truncating.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace bss {

/// Thrown when a runtime invariant of the library is violated.  Invariant
/// failures are programming errors (broken preconditions), so most callers
/// should let this propagate.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Checks a precondition/invariant; throws InvariantError with location info
/// ("file:line: what").  A passing check costs a compare and allocates
/// nothing: the message is viewed, not copied, and the text is built only
/// on failure.  A message that needs formatting goes through the overload
/// below, never pre-built into a check that usually passes (DESIGN.md §4f).
inline void expects(bool condition, std::string_view what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw InvariantError(std::string(loc.file_name()) + ":" +
                         std::to_string(loc.line()) + ": " +
                         std::string(what));
  }
}

/// expects() for a message that needs formatting: `message` is a callable
/// returning the text, and it runs only once the check has failed, so a
/// passing check still allocates nothing.
template <class MakeMessage>
  requires std::is_invocable_r_v<std::string, MakeMessage&>
void expects(bool condition, MakeMessage&& message,
             std::source_location loc = std::source_location::current()) {
  if (!condition) expects(false, std::string_view(message()), loc);
}

/// Cast that throws if the value does not round-trip (GSL narrow).
template <class To, class From>
To checked_cast(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  const To result = static_cast<To>(value);
  if (static_cast<From>(result) != value ||
      ((result < To{}) != (value < From{}))) {
    throw InvariantError("checked_cast: value does not fit target type");
  }
  return result;
}

/// Saturating factorial in uint64; throws when the exact value overflows.
inline std::uint64_t factorial_u64(int n) {
  expects(n >= 0, "factorial of negative number");
  expects(n <= 20, "factorial_u64 overflows past 20!");
  std::uint64_t result = 1;
  for (int i = 2; i <= n; ++i) result *= static_cast<std::uint64_t>(i);
  return result;
}

}  // namespace bss
