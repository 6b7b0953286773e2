// Execution traces.
//
// Every shared-memory operation performed under the simulator is recorded as
// a TraceEvent.  Traces are the ground truth for the validators: election
// consistency, label soundness, snapshot linearizability and the emulation's
// run-legality checks are all phrased as predicates over traces.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "runtime/names.h"

namespace bss::sim {

/// Descriptor of one pending/performed shared-memory operation.
struct OpDesc {
  ObjectName object;  ///< object instance name, e.g. "cas", "confirm[2]"
  OpName op;          ///< operation name, e.g. "read", "write", "cas"
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
};
static_assert(std::is_trivially_copyable_v<OpDesc>,
              "OpDesc is copied per grant and held across every unwind");

struct TraceEvent {
  std::uint64_t step = 0;  ///< global step index (0-based, dense)
  int pid = -1;            ///< process that performed the operation
  OpDesc desc;
  std::int64_t result = 0;  ///< op result, if the object reported one
  bool has_result = false;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

class Trace {
 public:
  void append(const TraceEvent& event) { events_.push_back(event); }
  void clear() { events_.clear(); }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Events touching the named object, in step order.
  std::vector<TraceEvent> for_object(std::string_view object) const;
  /// Events performed by `pid`, in step order.
  std::vector<TraceEvent> for_pid(int pid) const;
  /// Number of events by `pid` on operations named `op` (all ops if empty).
  std::size_t count(int pid, std::string_view op = {}) const;

  /// Human-readable dump (for examples and failing-test diagnostics).
  std::string to_string(std::size_t max_events = 200) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace bss::sim
