#include "obs/profile.h"

#include <chrono>
#include <string>

namespace bss::obs {

bool PhaseProfiler::has_data() const {
  for (int phase = 0; phase < kPhaseCount; ++phase) {
    if (calls(static_cast<Phase>(phase)) > 0) return true;
  }
  return false;
}

json::Object PhaseProfiler::to_json() const {
  json::Object out;
  for (int index = 0; index < kPhaseCount; ++index) {
    const auto phase = static_cast<Phase>(index);
    const std::uint64_t phase_calls = calls(phase);
    if (phase_calls == 0) continue;
    json::Object cell;
    cell.emplace("calls", phase_calls);
    cell.emplace("ns", ns(phase));
    out.emplace(std::string(kPhaseNames[static_cast<std::size_t>(index)]),
                json::Value(std::move(cell)));
  }
  return out;
}

void read_profile(json::Reader section) {
  for (const std::string_view phase : kPhaseNames) {
    json::Reader cell = section.object(phase, json::kOptional);
    (void)cell.counter("calls");
    (void)cell.counter("ns");
    cell.finish();
  }
  section.finish();
}

std::uint64_t PhaseProfiler::now_ns() {
  // The wall-clock channel: everything read here flows only into the
  // quarantined `profile` and `timing` sections of runreport and status
  // and into the Chrome trace.
  // bss-lint: wallclock-ok(the one clock source, quarantined output)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace bss::obs
