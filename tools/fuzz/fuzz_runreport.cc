// Fuzz target for the bss-runreport v1 parser (RunReport::parse, the
// validate_runreport CI gate, and — transitively — the canonical JSON
// parser in src/obs/json.cc, which is the widest attack surface of the
// three artifact grammars).
//
// Oracles, beyond "does not crash":
//   1. validate/parse agreement, both directions: parse() accepts exactly
//      the documents the validator passes clean (both run the one walk).
//   2. The canonical-JSON fixed point: any text json::Value::parse accepts
//      re-parses from its own dump() into an equal value, and dump() of
//      that re-parse is byte-identical.
//   3. Accessors on a parsed report (kind/producer/stats) never crash.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "obs/runreport.h"

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "fuzz_runreport: oracle failed: %s\n", what);
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

  // Layer 2: the runreport schema gate on top.
  const auto report = bss::obs::RunReport::parse(text, &error);
  const auto gate = bss::obs::validate_runreport(text);
  if (gate.empty() != report.has_value()) {
    die(gate.empty() ? "validator accepted what RunReport::parse rejected"
                     : "RunReport::parse accepted what the validator rejected");
  }
  if (report.has_value()) {
    // Accessors must be total: they fall back, never crash, on odd shapes.
    (void)report->kind();
    (void)report->producer();
    (void)report->system();
    (void)report->stat("schedules");
    (void)report->stats();
    (void)report->rows();
  }
  return 0;
}
