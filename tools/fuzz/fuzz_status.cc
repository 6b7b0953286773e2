// Fuzz target for the bss-status v1 heartbeat parser (Status::from_artifact
// and the validate_status gate report_check runs in CI).
//
// Oracles, beyond "does not crash":
//   1. validate/parse agreement, both directions: a document the validator
//      passes clean must round-trip through the typed Status parse, and a
//      document the typed parse accepts must be validator-clean (both run
//      the one walk).
//   2. The typed round trip is a byte fixed point: to_json() of a parsed
//      Status re-validates clean, re-parses, and dumps byte-identically
//      (absent⟺empty canonicalization makes this exact).
//   3. The canonical-JSON fixed point on any parseable input, same as the
//      other artifact fuzzers.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "obs/status.h"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_status: oracle failed: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 20)) return 0;  // parser is linear; cap work per input
  const std::string text(reinterpret_cast<const char*>(data), size);

  // Layer 1: the raw canonical-JSON parser and its fixed point.
  std::string error;
  const auto value = bss::obs::json::Value::parse(text, &error);
  if (value.has_value()) {
    const std::string dumped = value->dump();
    const auto again = bss::obs::json::Value::parse(dumped, &error);
    if (!again.has_value()) die("dump() of a parsed value failed to re-parse");
    if (!(*again == *value)) die("parse(dump(v)) != v");
    if (again->dump() != dumped) die("dump is not a fixed point");
  }

  // Layer 2: the status schema gate, both directions.
  const auto gate = bss::obs::validate_status(text);
  const auto status = bss::obs::Status::from_artifact(text, &error);
  if (gate.empty() != status.has_value()) {
    die(gate.empty() ? "validator accepted what from_artifact rejected"
                     : "from_artifact accepted what the validator rejected");
  }

  // Layer 3: the typed round trip is exact.
  if (status.has_value()) {
    const std::string emitted = status->to_json();
    if (!bss::obs::validate_status(emitted).empty()) {
      die("to_json() of a parsed Status fails its own validator");
    }
    const auto reparsed = bss::obs::Status::from_artifact(emitted, &error);
    if (!reparsed.has_value()) {
      die("to_json() of a parsed Status fails to re-parse");
    }
    if (reparsed->to_json() != emitted) {
      die("Status to_json is not a fixed point");
    }
  }
  return 0;
}
