// Counterexample replay and ddmin minimization: re-running a decision tape
// (grants and faults) under the ReplayScheduler divergence contract, and
// greedily shrinking a violating tape to a canonical, replayable one.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/ledger.h"
#include "explore/engine.h"
#include "util/checked.h"

namespace bss::explore {
namespace {

using detail::kNoChoice;

/// Replays `tape` — grants and faults — skipping inapplicable entries and
/// completing round-robin past its end (each counted as a divergence, the
/// ReplayScheduler contract), then re-checks the property.
struct TapeResult {
  bool reproduced = false;
  std::string violation;
  std::vector<int> canonical;
  std::uint64_t divergences = 0;
  bool truncated = false;
  sim::RunReport report;
};

TapeResult run_tape(const ExplorableSystem& system, const ExploreOptions& opts,
                    const std::vector<int>& tape) {
  const obs::ScopedPhase replay_scope(
      opts.telemetry != nullptr ? opts.telemetry->profiler() : nullptr,
      obs::Phase::kReplay);
  TapeResult result;
  auto instance = system.make();
  sim::SimEnv env;  // records the trace: checks may read it on replay
  instance->populate(env);
  std::optional<audit::Auditor> auditor;
  if (opts.audit) {
    // Replays audit too, so audit-found counterexamples reproduce (and
    // minimize) through the same machinery as property violations.
    auditor.emplace();
    env.set_access_observer(&*auditor);
  }
  env.start();

  std::size_t next = 0;
  int rr_cursor = 0;
  std::uint64_t granted = 0;
  std::vector<int> parked;
  for (;;) {
    env.parked_processes(parked);
    if (parked.empty()) break;
    if (granted >= opts.max_depth) {
      result.truncated = true;
      break;
    }
    int choice = kNoChoice;
    while (next < tape.size()) {
      const int candidate = tape[next++];
      if (env.applicable(candidate)) {
        choice = candidate;
        break;
      }
      ++result.divergences;
    }
    if (choice == kNoChoice) {
      // Round-robin: the first parked pid at or after the cursor, wrapping.
      const auto it = std::lower_bound(parked.begin(), parked.end(), rr_cursor);
      choice = it != parked.end() ? *it : parked.front();
      rr_cursor = choice + 1;
      ++result.divergences;
    }
    if (env.apply(choice)) ++granted;
    result.canonical.push_back(choice);
  }
  env.finish();

  result.report = env.snapshot_report();
  result.report.step_limit_hit = result.truncated;
  if (result.truncated) return result;
  const auto violation = instance->check(env, result.report);
  if (violation.has_value()) {
    result.reproduced = true;
    result.violation = *violation;
  } else if (auditor.has_value() && !auditor->clean()) {
    result.reproduced = true;
    result.violation = auditor->summary();
  }
  return result;
}

}  // namespace

Counterexample minimize_counterexample(const ExplorableSystem& system,
                                       Counterexample cex,
                                       const ExploreOptions& options,
                                       ExploreStats* stats) {
  const obs::ScopedPhase ddmin_scope(
      options.telemetry != nullptr ? options.telemetry->profiler() : nullptr,
      obs::Phase::kDdmin);
  std::uint64_t used = 0;
  const auto count_run = [&] {
    ++used;
    if (stats != nullptr) ++stats->shrink_runs;
  };
  // The shrink analogue of max_schedules: ddmin replays on a pathological
  // tape must not run unboundedly after the exploration budget is spent.
  const auto budget_left = [&] {
    return options.shrink_budget == 0 || used < options.shrink_budget;
  };
  // Canonicalize up front and keep `best` canonical throughout: always the
  // *complete* decision sequence of a violating run, so the replayer
  // re-executes the result verbatim — zero divergences, no silent fallback.
  count_run();
  TapeResult current = run_tape(system, options, cex.decisions);
  expects(current.reproduced,
          "counterexample does not reproduce before minimization "
          "(nondeterministic system factory?)");
  std::vector<int> best = std::move(current.canonical);
  std::string violation = std::move(current.violation);
  cex.shrunk_from = std::max(cex.decisions.size(), best.size());

  // Greedy ddmin-style chunk deletion: drop spans of halving size wherever
  // the violation still reproduces.  The fallback completes a truncated
  // candidate along a possibly *longer* schedule (LL/SC retry loops make
  // step counts schedule-dependent), so a deletion is accepted only when
  // its canonical tape is a strict length win.  Fault entries are ordinary
  // tape entries here: spans containing them are dropped like any other,
  // so a violation that needs fewer faults shrinks to fewer faults.
  bool budget_hit = false;
  std::vector<int> candidate;  // hoisted: reused across every ddmin replay
  for (std::size_t chunk = std::max<std::size_t>(best.size() / 2, 1);;
       chunk /= 2) {
    std::size_t start = 0;
    while (start < best.size()) {
      if (!budget_left()) {
        budget_hit = true;
        break;
      }
      const std::size_t len = std::min(chunk, best.size() - start);
      candidate.clear();
      candidate.reserve(best.size() - len);
      candidate.insert(candidate.end(), best.begin(),
                       best.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       best.begin() + static_cast<std::ptrdiff_t>(start + len),
                       best.end());
      count_run();
      TapeResult attempt = run_tape(system, options, candidate);
      if (attempt.reproduced && attempt.canonical.size() < best.size()) {
        best = std::move(attempt.canonical);
        violation = std::move(attempt.violation);
        // retry the same start position against the new, shorter tape
      } else {
        start += chunk;
      }
    }
    if (budget_hit || chunk == 1) break;
  }
  if (budget_hit && stats != nullptr) ++stats->shrink_budget_hits;

  cex.decisions = std::move(best);
  cex.violation = std::move(violation);
  return cex;
}

ReplayOutcome replay_counterexample(const ExplorableSystem& system,
                                    const Counterexample& cex,
                                    const ExploreOptions& options) {
  TapeResult result = run_tape(system, options, cex.decisions);
  ReplayOutcome outcome;
  outcome.violated = result.reproduced;
  outcome.violation = std::move(result.violation);
  outcome.divergences = result.divergences;
  outcome.truncated = result.truncated;
  outcome.report = std::move(result.report);
  return outcome;
}

}  // namespace bss::explore
