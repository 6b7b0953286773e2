#include "runtime/fault_plan.h"

#include <algorithm>

namespace bss::sim {

FaultPlan& FaultPlan::add_event(int pid, FaultKind kind,
                                std::uint64_t op_index) {
  std::vector<FaultEvent>& events = events_[pid];
  // Keep the list sorted by op_index; the FIRST registration at a given
  // index wins, so insert strictly before any later index only.
  const auto pos =
      std::find_if(events.begin(), events.end(), [op_index](const FaultEvent& e) {
        return e.op_index >= op_index;
      });
  if (pos != events.end() && pos->op_index == op_index) return *this;
  events.insert(pos, FaultEvent{kind, op_index});
  return *this;
}

FaultPlan& FaultPlan::crash_before_op(int pid, std::uint64_t op_index) {
  return add_event(pid, FaultKind::kCrash, op_index);
}

FaultPlan& FaultPlan::restart_before_op(int pid, std::uint64_t op_index) {
  return add_event(pid, FaultKind::kRestart, op_index);
}

FaultPlan& FaultPlan::fail_sc(int pid, std::uint64_t sc_ordinal) {
  sc_failures_.try_emplace(pid, sc_ordinal);
  return *this;
}

FaultPlan FaultPlan::random(int n, double crash_p, double restart_p,
                            double sc_p, std::uint64_t max_op, bss::Rng& rng) {
  FaultPlan plan;
  const auto draw_op = [&rng, max_op]() {
    return max_op == 0 ? std::uint64_t{0} : rng.next_below(max_op);
  };
  for (int pid = 0; pid < n; ++pid) {
    if (rng.next_double() < restart_p) plan.restart_before_op(pid, draw_op());
    if (rng.next_double() < crash_p) plan.crash_before_op(pid, draw_op());
    if (rng.next_double() < sc_p) plan.fail_sc(pid, draw_op());
  }
  return plan;
}

FaultPlan FaultPlan::random_crashes(int n, double p, std::uint64_t max_op,
                                    bss::Rng& rng) {
  FaultPlan plan;
  for (int pid = 0; pid < n; ++pid) {
    if (rng.next_double() < p) {
      plan.crash_before_op(pid, max_op == 0 ? 0 : rng.next_below(max_op));
    }
  }
  return plan;
}

const std::vector<FaultEvent>& FaultPlan::events_for(int pid) const {
  static const std::vector<FaultEvent> kNone;
  const auto it = events_.find(pid);
  return it == events_.end() ? kNone : it->second;
}

bool FaultPlan::should_fail_sc(int pid, std::uint64_t sc_ordinal) const {
  const auto it = sc_failures_.find(pid);
  return it != sc_failures_.end() && it->second == sc_ordinal;
}

std::size_t FaultPlan::victim_count() const {
  std::size_t count = events_.size();
  for (const auto& entry : sc_failures_) {
    if (!events_.contains(entry.first)) ++count;
  }
  return count;
}

std::size_t FaultPlan::event_count() const {
  std::size_t count = sc_failures_.size();
  for (const auto& entry : events_) count += entry.second.size();
  return count;
}

bool FaultPlan::has_restarts() const {
  for (const auto& entry : events_) {
    for (const FaultEvent& event : entry.second) {
      if (event.kind == FaultKind::kRestart) return true;
    }
  }
  return false;
}

}  // namespace bss::sim
