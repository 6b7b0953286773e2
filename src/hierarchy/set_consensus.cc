#include "hierarchy/set_consensus.h"

#include <set>

#include "util/checked.h"

namespace bss::hierarchy {

namespace {

SetConsensusReport finalize(SetConsensusReport report,
                            const std::vector<std::int64_t>& inputs) {
  std::set<std::int64_t> distinct;
  for (std::size_t pid = 0; pid < report.decisions.size(); ++pid) {
    if (report.run.outcomes[pid] != sim::ProcOutcome::kFinished) {
      report.decisions[pid].reset();
      continue;
    }
    const auto& decision = report.decisions[pid];
    if (!decision.has_value()) continue;
    distinct.insert(*decision);
    bool proposed = false;
    for (const auto input : inputs) proposed = proposed || input == *decision;
    if (!proposed) report.valid = false;
  }
  report.distinct_decisions = checked_cast<int>(distinct.size());
  return report;
}

}  // namespace

SetConsensusReport run_partition_set_consensus(
    int n, int l, const std::vector<std::int64_t>& inputs,
    sim::Scheduler& scheduler, const sim::FaultPlan& crashes) {
  expects(n >= 1 && l >= 1, "set consensus needs n, l >= 1");
  expects(inputs.size() == static_cast<std::size_t>(n),
          "one input per process");
  std::vector<sim::StickyRegister> groups;
  groups.reserve(static_cast<std::size_t>(l));
  for (int group = 0; group < l; ++group) {
    groups.emplace_back("group[" + std::to_string(group) + "]");
  }
  SetConsensusReport report;
  report.decisions.resize(static_cast<std::size_t>(n));

  sim::SimEnv env;
  for (int pid = 0; pid < n; ++pid) {
    const std::int64_t input = inputs[static_cast<std::size_t>(pid)];
    auto& group = groups[static_cast<std::size_t>(pid % l)];
    env.add_process([&report, &group, pid, input](sim::Ctx& ctx) {
      report.decisions[static_cast<std::size_t>(pid)] =
          group.propose(ctx, input);
    });
  }
  report.run = env.run(scheduler, crashes);
  return finalize(std::move(report), inputs);
}

SetConsensusReport run_trivial_set_consensus(
    int n, const std::vector<std::int64_t>& inputs, sim::Scheduler& scheduler,
    const sim::FaultPlan& crashes) {
  expects(n >= 1, "set consensus needs n >= 1");
  expects(inputs.size() == static_cast<std::size_t>(n),
          "one input per process");
  // One SWMR register per process, written then decided from: the protocol
  // is register-only and trivially satisfies n-set consensus.
  std::vector<sim::SwmrRegister<std::int64_t>> board;
  board.reserve(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    board.emplace_back("announce[" + std::to_string(pid) + "]", pid,
                       std::int64_t{-1});
  }
  SetConsensusReport report;
  report.decisions.resize(static_cast<std::size_t>(n));

  sim::SimEnv env;
  for (int pid = 0; pid < n; ++pid) {
    const std::int64_t input = inputs[static_cast<std::size_t>(pid)];
    env.add_process([&report, &board, pid, input](sim::Ctx& ctx) {
      board[static_cast<std::size_t>(pid)].write(ctx, input);
      report.decisions[static_cast<std::size_t>(pid)] =
          board[static_cast<std::size_t>(pid)].read(ctx);
    });
  }
  report.run = env.run(scheduler, crashes);
  return finalize(std::move(report), inputs);
}

}  // namespace bss::hierarchy
