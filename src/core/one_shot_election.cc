#include "core/one_shot_election.h"

#include "util/checked.h"

namespace bss::core {

OneShotState::OneShotState(int k) : cas("cas", k) {
  claim.reserve(static_cast<std::size_t>(k));
  for (int symbol = 0; symbol < k; ++symbol) {
    claim.emplace_back("claim[" + std::to_string(symbol) + "]",
                       sim::SwmrRegister<std::int64_t>::kAnyWriter,
                       std::int64_t{-1});
  }
}

std::int64_t one_shot_elect(OneShotState& state, sim::Ctx& ctx, int pid,
                            std::int64_t id) {
  const int k = state.cas.k();
  expects(pid >= 0 && pid < k - 1, "one-shot election capacity is k-1");
  const int my_symbol = pid + 1;
  // Claim my symbol before racing: whoever wins, their claim register is
  // already readable (validity).
  state.claim[static_cast<std::size_t>(my_symbol)].write(ctx, id);
  const int prev =
      state.cas.compare_and_swap(ctx, sim::CasRegisterK::kBottom, my_symbol);
  const int winner_symbol =
      prev == sim::CasRegisterK::kBottom ? my_symbol : prev;
  const std::int64_t winner =
      state.claim[static_cast<std::size_t>(winner_symbol)].read(ctx);
  expects(winner >= 0, "one-shot election: winner symbol unclaimed");
  return winner;
}

OneShotReport run_one_shot_election(int k, int n, sim::Scheduler& scheduler,
                                    const sim::FaultPlan& crashes) {
  expects(n >= 1 && n <= k - 1, "one-shot election requires 1 <= n <= k-1");
  OneShotState state(k);
  OneShotReport report;
  report.elected.resize(static_cast<std::size_t>(n));

  sim::SimEnv env;
  for (int pid = 0; pid < n; ++pid) {
    env.add_process([&state, &report, pid](sim::Ctx& ctx) {
      report.elected[static_cast<std::size_t>(pid)] =
          one_shot_elect(state, ctx, pid, 1000 + pid);
    });
  }
  report.run = env.run(scheduler, crashes);
  std::int64_t leader = -1;
  for (int pid = 0; pid < n; ++pid) {
    if (report.run.outcomes[static_cast<std::size_t>(pid)] !=
        sim::ProcOutcome::kFinished) {
      report.elected[static_cast<std::size_t>(pid)].reset();
      continue;
    }
    const auto& elected = report.elected[static_cast<std::size_t>(pid)];
    if (elected.has_value()) {
      if (leader == -1) leader = *elected;
      if (*elected != leader) report.consistent = false;
    }
  }
  return report;
}

}  // namespace bss::core
