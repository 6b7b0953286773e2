#include "core/composed_election.h"

#include "util/checked.h"

namespace bss::core {

ComposedStageState::ComposedStageState(int k, int stage)
    : cas("cas" + std::to_string(stage), k) {
  confirm.reserve(static_cast<std::size_t>(k - 1));
  for (int level = 0; level < k - 1; ++level) {
    confirm.emplace_back("confirm" + std::to_string(stage) + "[" +
                             std::to_string(level) + "]",
                         0);
  }
  const std::uint64_t slots = slot_count(k);
  announce.reserve(slots);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    announce.emplace_back("announce" + std::to_string(stage) + "[" +
                              std::to_string(slot) + "]",
                          kNoId);
  }
}

std::uint64_t composed_capacity(int k, int copies) {
  expects(copies >= 1, "composition needs at least one register");
  const std::uint64_t base = slot_count(k);
  std::uint64_t capacity = 1;
  for (int copy = 0; copy < copies; ++copy) {
    expects(capacity <= ~std::uint64_t{0} / base, "capacity overflows uint64");
    capacity *= base;
  }
  return capacity;
}

ComposedElectionReport run_composed_election(int k, int copies, int n,
                                             sim::Scheduler& scheduler,
                                             const sim::FaultPlan& crashes) {
  const std::uint64_t capacity = composed_capacity(k, copies);
  expects(n >= 1 && static_cast<std::uint64_t>(n) <= capacity,
          "process count exceeds ((k-1)!)^copies");

  std::vector<std::unique_ptr<ComposedStageState>> stages;
  stages.reserve(static_cast<std::size_t>(copies));
  for (int stage = 0; stage < copies; ++stage) {
    stages.push_back(std::make_unique<ComposedStageState>(k, stage));
  }

  ComposedElectionReport report;
  report.k = k;
  report.copies = copies;
  report.processes = n;
  report.leaders.resize(static_cast<std::size_t>(n));

  const std::uint64_t base = slot_count(k);
  sim::SimEnv env;
  for (int pid = 0; pid < n; ++pid) {
    env.add_process([&stages, &report, pid, copies, base](sim::Ctx& ctx) {
      // Decompose my identity into digits; elect one digit per register.
      std::uint64_t rest = static_cast<std::uint64_t>(pid);
      std::uint64_t leader = 0;
      std::uint64_t weight = 1;
      for (int stage = 0; stage < copies; ++stage) {
        const std::uint64_t digit = rest % base;
        rest /= base;
        ComposedStageMemory memory(*stages[static_cast<std::size_t>(stage)],
                                   ctx);
        // Propose the slot index itself: all claimants of a slot write the
        // same value, so the MWMR announce board is race-free by value.
        const ElectOutcome outcome =
            fvt_elect(memory, digit, checked_cast<std::int64_t>(digit));
        leader += static_cast<std::uint64_t>(outcome.leader) * weight;
        weight *= base;
      }
      report.leaders[static_cast<std::size_t>(pid)] = leader;
    });
  }
  report.run = env.run(scheduler, crashes);

  std::optional<std::uint64_t> agreed;
  for (int pid = 0; pid < n; ++pid) {
    if (report.run.outcomes[static_cast<std::size_t>(pid)] !=
        sim::ProcOutcome::kFinished) {
      report.leaders[static_cast<std::size_t>(pid)].reset();
      continue;
    }
    const auto& leader = report.leaders[static_cast<std::size_t>(pid)];
    if (leader.has_value()) {
      if (!agreed.has_value()) agreed = leader;
      if (*leader != *agreed) report.consistent = false;
      if (*leader >= composed_capacity(report.k, report.copies)) {
        report.valid = false;
      }
    }
  }
  return report;
}

}  // namespace bss::core
