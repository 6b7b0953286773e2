#include "runtime/scheduler.h"

#include <algorithm>

#include "util/checked.h"

namespace bss::sim {

int RoundRobinScheduler::pick(const SchedView& view) {
  expects(!view.runnable.empty(), "scheduler invoked with nothing runnable");
  const int n = bss::checked_cast<int>(view.processes.size());
  for (int probe = 0; probe < n; ++probe) {
    const int pid = (cursor_ + probe) % n;
    if (std::find(view.runnable.begin(), view.runnable.end(), pid) !=
        view.runnable.end()) {
      cursor_ = (pid + 1) % n;
      return pid;
    }
  }
  return view.runnable.front();
}

int RandomScheduler::pick(const SchedView& view) {
  expects(!view.runnable.empty(), "scheduler invoked with nothing runnable");
  const auto index =
      rng_.next_below(static_cast<std::uint64_t>(view.runnable.size()));
  return view.runnable[static_cast<std::size_t>(index)];
}

int CasConvoyScheduler::pick(const SchedView& view) {
  expects(!view.runnable.empty(), "scheduler invoked with nothing runnable");
  // Prefer any process NOT poised on a cas; this drives everyone to the brink
  // of their compare&swap before any of them is allowed through.
  std::vector<int> non_cas;
  for (const int pid : view.runnable) {
    const OpDesc& pending = view.processes[static_cast<std::size_t>(pid)].pending;
    if (pending.op != OpName("cas")) {
      non_cas.push_back(pid);
    }
  }
  if (!non_cas.empty()) {
    const auto index =
        rng_.next_below(static_cast<std::uint64_t>(non_cas.size()));
    return non_cas[static_cast<std::size_t>(index)];
  }
  const auto index =
      rng_.next_below(static_cast<std::uint64_t>(view.runnable.size()));
  return view.runnable[static_cast<std::size_t>(index)];
}

int SoloScheduler::pick(const SchedView& view) {
  expects(!view.runnable.empty(), "scheduler invoked with nothing runnable");
  return *std::min_element(view.runnable.begin(), view.runnable.end());
}

int ReplayScheduler::pick(const SchedView& view) {
  expects(!view.runnable.empty(), "scheduler invoked with nothing runnable");
  while (next_ < decisions_.size()) {
    const int pid = decisions_[next_++];
    if (std::find(view.runnable.begin(), view.runnable.end(), pid) !=
        view.runnable.end()) {
      return pid;
    }
    ++divergences_;  // recorded pid was not runnable: the tape is stale here
  }
  ++divergences_;  // tape exhausted: the fallback, not the tape, is driving
  return fallback_.pick(view);
}

}  // namespace bss::sim
