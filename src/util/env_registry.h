// The registry of every BSS_* environment variable the tree reads.
//
// Determinism contract: environment knobs are the one input that does not
// travel through ExploreOptions or a command line, so they are the easiest
// place for a hidden result-affecting switch to hide.  This header makes the
// knob surface enumerable — every `std::getenv("BSS_…")` in src/, bench/,
// tools/ or examples/ must name a variable declared in the table below, and
// `tools/bss_lint` (rule `env-registry`) cross-checks the call sites against
// it.  Adding a knob means adding a row here, which is also where its
// documentation lives.
//
// The table is an X-macro so the same source of truth serves three readers:
// the linter (textual scan for `X(NAME, …)` rows), runtime enumeration
// (env_registry() below, used by tests and --help style listings), and
// humans (the doc string).
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/checked.h"

namespace bss::env {

// X(name, doc) — name is the literal environment variable, doc is one line.
// Rows stay sorted by name so the runtime listing is canonical.
#define BSS_ENV_REGISTRY(X)                                                   \
  X(BSS_ARTIFACT_DIR,                                                         \
    "directory where failing tests dump minimized counterexample artifacts") \
  X(BSS_EXPLORE_JOBS,                                                        \
    "default worker count for explore() calls that leave jobs unset")        \
  X(BSS_STATUS,                                                              \
    "default bss-status v1 heartbeat path when status_path is unset")        \
  X(BSS_STATUS_EVERY_MS,                                                     \
    "heartbeat cadence in milliseconds when status_every_ms is unset")

/// One registered knob: the variable's exact name and its documentation.
struct EnvVar {
  std::string_view name;
  std::string_view doc;
};

/// The registered knobs, in table (== sorted) order.
inline constexpr EnvVar kEnvRegistry[] = {
#define BSS_ENV_ROW(name, doc) {#name, doc},
    BSS_ENV_REGISTRY(BSS_ENV_ROW)
#undef BSS_ENV_ROW
};

inline constexpr std::size_t kEnvRegistrySize =
    sizeof(kEnvRegistry) / sizeof(kEnvRegistry[0]);

/// True iff `name` is a registered BSS_* environment variable.
constexpr bool is_registered_env(std::string_view name) {
  for (const EnvVar& var : kEnvRegistry) {
    if (var.name == name) return true;
  }
  return false;
}

/// Reads the value `raw` of the numeric knob `name` (callers pass
/// `std::getenv(name)`): nullptr — unset — yields nullopt, and a positive
/// decimal integer yields its value.  Anything else (empty, signed,
/// non-numeric, trailing junk, zero, past uint64) throws InvariantError
/// naming the variable, so a typo never silently reads as the default.
inline std::optional<std::uint64_t> positive_env(std::string_view name,
                                                 const char* raw) {
  if (raw == nullptr) return std::nullopt;
  const std::string_view text(raw);
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || value == 0) {
    throw InvariantError(std::string(name) + "='" + std::string(text) +
                         "' is not a positive integer");
  }
  return value;
}

}  // namespace bss::env
