#include "core/sim_election.h"

#include "util/checked.h"

namespace bss::core {

SimElectionState::SimElectionState(int k) : cas("cas", k) {
  confirm.reserve(static_cast<std::size_t>(k - 1));
  for (int stage = 0; stage < k - 1; ++stage) {
    confirm.emplace_back("confirm[" + std::to_string(stage) + "]", 0);
  }
  const std::uint64_t slots = slot_count(k);
  announce.reserve(slots);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    announce.emplace_back("announce[" + std::to_string(slot) + "]",
                          sim::SwmrRegister<std::int64_t>::kAnyWriter, kNoId);
  }
}

SimElectionReport run_sim_election(int k, int n, sim::Scheduler& scheduler,
                                   const sim::FaultPlan& crashes,
                                   SimElectionOptions options) {
  expects(n >= 1, "election needs at least one process");
  expects(static_cast<std::uint64_t>(n) <= slot_count(k),
          "more processes than slots: the algorithm's capacity is (k-1)!");

  SimElectionState state(k);
  std::vector<std::optional<ElectOutcome>> outcomes(
      static_cast<std::size_t>(n));

  if (options.slot_of_pid.empty()) {
    options.slot_of_pid.resize(static_cast<std::size_t>(n));
    for (int pid = 0; pid < n; ++pid) {
      options.slot_of_pid[static_cast<std::size_t>(pid)] =
          static_cast<std::uint64_t>(pid);
    }
  }
  expects(options.slot_of_pid.size() == static_cast<std::size_t>(n),
          "slot_of_pid must have one entry per process");

  sim::SimEnv env(options.sim);
  for (int pid = 0; pid < n; ++pid) {
    const std::uint64_t slot = options.slot_of_pid[static_cast<std::size_t>(pid)];
    const std::int64_t id = options.id_base + pid;
    const ElectPolicy policy = options.policy;
    env.add_process([&state, &outcomes, slot, id, pid, policy](sim::Ctx& ctx) {
      SimElectionMemory memory(state, ctx);
      outcomes[static_cast<std::size_t>(pid)] =
          fvt_elect(memory, slot, id, policy);
    });
  }

  SimElectionReport report;
  report.k = k;
  report.processes = n;
  report.id_base = options.id_base;
  report.run = env.run(scheduler, crashes);
  report.outcomes = std::move(outcomes);
  report.cas_history = state.cas.history();
  report.cas_total_accesses = state.cas.total_accesses();
  // A process that crashed after computing its outcome still reported one;
  // clear those so "crashed" and "decided" stay mutually exclusive.
  for (int pid = 0; pid < n; ++pid) {
    if (report.run.outcomes[static_cast<std::size_t>(pid)] !=
        sim::ProcOutcome::kFinished) {
      report.outcomes[static_cast<std::size_t>(pid)].reset();
    }
  }
  return report;
}

}  // namespace bss::core
