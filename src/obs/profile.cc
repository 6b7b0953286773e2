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

void check_profile_cells(const json::Object& profile,
                         std::vector<std::string>& errors) {
  for (const auto& [name, cell] : profile) {
    if (!is_phase_name(name)) {
      errors.push_back("unknown profile phase \"" + name +
                       "\" (not in the closed phase set)");
      continue;
    }
    if (!cell.is_object()) {
      errors.push_back("profile phase \"" + name + "\" is not an object");
      continue;
    }
    const json::Object& fields = cell.as_object();
    for (const std::string_view field : {"calls", "ns"}) {
      const auto it = fields.find(std::string(field));
      if (it == fields.end() || !it->second.is_int() ||
          it->second.as_int() < 0) {
        errors.push_back("profile phase \"" + name + "\" field \"" +
                         std::string(field) +
                         "\" is missing or not a non-negative integer");
      }
    }
    for (const auto& [field, value] : fields) {
      (void)value;
      if (field != "calls" && field != "ns") {
        errors.push_back("profile phase \"" + name +
                         "\" has unknown field \"" + field + "\"");
      }
    }
  }
}

std::uint64_t PhaseProfiler::now_ns() {
  // The profiler IS the wall-clock channel: everything it measures flows
  // only into the quarantined `profile` sections of runreport and status.
  // bss-lint: wallclock-ok(profiler interval source, quarantined output)
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

}  // namespace bss::obs
