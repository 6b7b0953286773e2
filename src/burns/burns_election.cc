#include "burns/burns_election.h"

#include "util/checked.h"

namespace bss::burns {

int single_register_elect(sim::WriteOnceRmwK& reg, sim::Ctx& ctx, int pid) {
  const int k = reg.k();
  expects(pid >= 0 && pid < k - 1,
          "single-register Burns election capacity is k-1");
  const int my_symbol = pid + 1;
  const int previous = reg.read_modify_write(
      ctx, [my_symbol](int v) { return v == 0 ? my_symbol : v; });
  return previous == 0 ? pid : previous - 1;
}

SingleReport run_single_register_election(int k, int n,
                                          sim::Scheduler& scheduler,
                                          const sim::FaultPlan& crashes) {
  expects(n >= 1 && n <= k - 1, "requires 1 <= n <= k-1");
  sim::WriteOnceRmwK reg("burns", k);
  SingleReport report;
  report.elected.resize(static_cast<std::size_t>(n));
  sim::SimEnv env;
  for (int pid = 0; pid < n; ++pid) {
    env.add_process([&reg, &report, pid](sim::Ctx& ctx) {
      report.elected[static_cast<std::size_t>(pid)] =
          single_register_elect(reg, ctx, pid);
    });
  }
  report.run = env.run(scheduler, crashes);
  int leader = -1;
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

MultiState::MultiState(const std::vector<int>& sizes) {
  expects(!sizes.empty(), "multi-register election needs registers");
  regs.reserve(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    expects(sizes[i] >= 2, "register size must be at least 2");
    regs.emplace_back("burns[" + std::to_string(i) + "]", sizes[i]);
  }
}

std::uint64_t MultiState::capacity() const {
  std::uint64_t product = 1;
  for (const auto& reg : regs) {
    product *= static_cast<std::uint64_t>(reg.k() - 1);
  }
  return product;
}

std::uint64_t multi_register_elect(MultiState& state, sim::Ctx& ctx,
                                   std::uint64_t pid) {
  expects(pid < state.capacity(), "pid exceeds the product capacity");
  // Decompose pid into mixed-radix digits, one per register (radix k_i - 1).
  std::uint64_t rest = pid;
  std::uint64_t leader = 0;
  std::uint64_t weight = 1;
  for (auto& reg : state.regs) {
    const auto radix = static_cast<std::uint64_t>(reg.k() - 1);
    const int my_digit = bss::checked_cast<int>(rest % radix);
    rest /= radix;
    const int my_symbol = my_digit + 1;
    const int previous = reg.read_modify_write(
        ctx, [my_symbol](int v) { return v == 0 ? my_symbol : v; });
    const int winning_digit = previous == 0 ? my_digit : previous - 1;
    leader += static_cast<std::uint64_t>(winning_digit) * weight;
    weight *= radix;
  }
  return leader;
}

MultiReport run_multi_register_election(const std::vector<int>& sizes, int n,
                                        sim::Scheduler& scheduler,
                                        const sim::FaultPlan& crashes) {
  MultiState state(sizes);
  expects(n >= 1 && static_cast<std::uint64_t>(n) <= state.capacity(),
          "process count exceeds the product capacity");
  MultiReport report;
  report.elected.resize(static_cast<std::size_t>(n));
  sim::SimEnv env;
  for (int pid = 0; pid < n; ++pid) {
    env.add_process([&state, &report, pid](sim::Ctx& ctx) {
      report.elected[static_cast<std::size_t>(pid)] =
          multi_register_elect(state, ctx, static_cast<std::uint64_t>(pid));
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
      if (leader == -1) leader = bss::checked_cast<std::int64_t>(*elected);
      if (bss::checked_cast<std::int64_t>(*elected) != leader) {
        report.consistent = false;
      }
    }
  }
  return report;
}

// ----------------------------------------------------------- BurnsProtocol

BurnsProtocol::BurnsProtocol(int n, int k) : n_(n), k_(k) {
  expects(n >= 1 && k >= 2, "BurnsProtocol needs n >= 1, k >= 2");
  expects(n <= k, "BurnsProtocol models n <= k (n = k is the refuted case)");
}

std::string BurnsProtocol::name() const {
  return "burns-n" + std::to_string(n_) + "-k" + std::to_string(k_);
}

std::vector<int> BurnsProtocol::initial_locals(int, int input) const {
  return {0, input, 0};
}

std::optional<int> BurnsProtocol::step(int pid, std::span<int> shared,
                                       std::span<int> locals) const {
  // Symbols: pid + 1 for pid < k-1; the overflow process k-1 (present only
  // when n = k) shares symbol 1 with pid 0.
  const int my_symbol = pid < k_ - 1 ? pid + 1 : 1;
  switch (locals[0]) {
    case 0: {  // the single write-once RMW
      int& reg = shared[0];
      const int previous = reg;
      if (previous == 0) reg = my_symbol;
      locals[2] = previous;
      locals[0] = 1;
      return std::nullopt;
    }
    default: {
      // Decisions are pids; check with the input vector {0, 1, ..., n-1} so
      // that "decide pid p" and "decide p's input" coincide (in leader
      // election the input IS the identity).
      const int previous = locals[2];
      if (previous == 0) return pid;  // I won: elect myself
      const int winning_symbol = previous;
      // Owners of winning_symbol among the n processes.
      const int low_owner = winning_symbol - 1;
      const int high_owner = winning_symbol == 1 && n_ == k_ ? k_ - 1 : -1;
      if (winning_symbol == my_symbol) {
        // The other owner won (I lost on my own symbol).
        const int other = pid == low_owner ? high_owner : low_owner;
        // With no collision (other == -1) losing on your own symbol is
        // impossible; guard anyway.
        return other == -1 ? low_owner : other;
      }
      // Deterministic tie-break among owners: the smaller pid.
      return low_owner;
    }
  }
}

}  // namespace bss::burns
