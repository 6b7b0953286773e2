// F1b — who wins? The adversary's grip on the election outcome.
//
// Consistency says everyone agrees on A winner; nothing says WHICH.  This
// series runs the election across seeds per scheduler and histograms the
// winning slot — showing that the schedule (the adversary) fully controls
// the outcome, while validity and consistency never budge.  Shape: solo
// always elects slot 0 (it runs alone to completion); random spreads wins
// across early-path slots; the cas-convoy adversary produces the broadest
// spread (maximal contention = maximal nondeterminism).
#include <cstdio>
#include <map>
#include <memory>

#include "bench_flags.h"
#include "bench_report.h"
#include "core/election_validator.h"
#include "core/sim_election.h"
#include "util/checked.h"

namespace {

void histogram(const char* name,
               const std::function<std::unique_ptr<bss::sim::Scheduler>(
                   std::uint64_t)>& make,
               int k, int n, int trials,
               bss::bench::BenchReport& bench_report) {
  std::map<std::int64_t, int> wins;
  int violations = 0;
  for (int trial = 0; trial < trials; ++trial) {
    auto scheduler = make(static_cast<std::uint64_t>(trial));
    const auto report = bss::core::run_sim_election(k, n, *scheduler);
    if (!bss::core::verify_election(report).ok()) ++violations;
    ++wins[report.outcomes[0]->leader - 1000];
  }
  bss::obs::json::Object object;
  object.emplace("scheduler", name);
  object.emplace("trials", trials);
  object.emplace("distinct_winners", static_cast<std::uint64_t>(wins.size()));
  object.emplace("violations", violations);
  bench_report.row(std::move(object));
  std::printf("%-12s distinct-winners=%2zu violations=%d  top:", name,
              wins.size(), violations);
  // Print the three most frequent winners.
  for (int rank = 0; rank < 3; ++rank) {
    std::int64_t best = -1;
    int best_count = 0;
    for (const auto& [slot, count] : wins) {
      if (count > best_count) {
        best = slot;
        best_count = count;
      }
    }
    if (best < 0) break;
    std::printf("  slot%lld x%d", static_cast<long long>(best), best_count);
    wins.erase(best);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_fairness");
  constexpr int kK = 5;
  constexpr int kN = 24;
  constexpr int kTrials = 200;
  std::printf(
      "F1b — winner distribution, k=%d n=%d, %d seeds per scheduler\n\n", kK,
      kN, kTrials);
  histogram("solo", [](std::uint64_t) {
    return std::make_unique<bss::sim::SoloScheduler>();
  }, kK, kN, 1, report);
  histogram("round-robin", [](std::uint64_t) {
    return std::make_unique<bss::sim::RoundRobinScheduler>();
  }, kK, kN, 1, report);
  histogram("random", [](std::uint64_t seed) {
    return std::make_unique<bss::sim::RandomScheduler>(seed);
  }, kK, kN, kTrials, report);
  histogram("cas-convoy", [](std::uint64_t seed) {
    return std::make_unique<bss::sim::CasConvoyScheduler>(seed);
  }, kK, kN, kTrials, report);
  std::printf(
      "\nshape: zero violations everywhere; the adversary picks the winner\n"
      "but can never manufacture disagreement — which is the whole point of\n"
      "a wait-free election.\n");
  report.finalize();
  return 0;
}
