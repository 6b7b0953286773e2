// Determinism suite for the work-stealing exploration engine: stealing must
// be invisible in the results.  For clean exhaustive sweeps, seeded
// mutants, fault-budget sweeps and a deliberately skewed-subtree workload,
// every (worker count, steal granularity) combination must produce results
// byte-identical to the serial explorer — same stats summary, same
// exhausted verdict, same violations in the same order with the same
// minimized tapes.  A telemetry probe additionally proves steals actually
// happen on a busy multi-worker run (the invariance tests would pass
// vacuously if no one ever stole).
#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <string>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/skewed_system.h"
#include "obs/obs.h"

namespace bss::explore {
namespace {

using core::OneShotMutant;
using core::RestartBehavior;

/// Byte-level equality of two ExploreResults: every stats field (via the
/// summary string, which prints them all), the exhausted verdict, and every
/// violation's full artifact text.
void expect_identical(const ExploreResult& serial, const ExploreResult& other,
                      const std::string& label) {
  EXPECT_EQ(serial.stats.summary(), other.stats.summary()) << label;
  EXPECT_EQ(serial.exhausted, other.exhausted) << label;
  ASSERT_EQ(serial.violations.size(), other.violations.size()) << label;
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(serial.violations[i].to_artifact(),
              other.violations[i].to_artifact())
        << label << " violation " << i;
  }
}

/// Runs `system` serially, then across every (jobs, steal_depth)
/// combination, asserting byte-identical results each time.
void expect_steal_invariant(const ExplorableSystem& system,
                            ExploreOptions options,
                            std::initializer_list<int> worker_counts,
                            std::initializer_list<int> steal_depths) {
  options.jobs = 1;
  options.steal_depth = 0;
  const ExploreResult serial = explore(system, options);
  for (const int jobs : worker_counts) {
    for (const int depth : steal_depths) {
      ExploreOptions stealing = options;
      stealing.jobs = jobs;
      stealing.steal_depth = depth;
      const ExploreResult result = explore(system, stealing);
      expect_identical(serial, result,
                       system.name() + " jobs=" + std::to_string(jobs) +
                           " steal_depth=" + std::to_string(depth));
    }
  }
}

// ------------------------------------------------- clean exhaustive sweeps

TEST(StealExplore, CleanOneShotPorIdenticalAcrossWorkersAndGranularities) {
  OneShotSystem system(4, 3);
  expect_steal_invariant(system, {}, {2, 4, 8}, {0, 1, 2});
}

TEST(StealExplore, CleanOneShotNaiveCountsExactInterleavings) {
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.use_por = false;
  options.jobs = 4;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  // 9 steps, 3 per process: 9!/(3!)^3 — the exact serial count.
  EXPECT_EQ(result.stats.schedules, 1680u);
  expect_steal_invariant(system, options, {2, 4}, {0, 2});
}

TEST(StealExplore, IterativePreemptionBoundIdentical) {
  LlScSystem system(3, 2);
  ExploreOptions options;
  options.preemption_bound = 2;
  options.iterative = true;
  expect_steal_invariant(system, options, {4}, {0, 1});
}

// ------------------------------------------------------- mutant refutation

TEST(StealExplore, ClaimAfterCasMutantIdenticalMinimizedArtifact) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  expect_steal_invariant(system, {}, {2, 4}, {0, 1});
}

TEST(StealExplore, SplitCasMutantIdenticalMinimizedArtifact) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  expect_steal_invariant(system, {}, {4, 8}, {0, 2});
}

TEST(StealExplore, ScBlindLlScMutantIdenticalMinimizedArtifact) {
  LlScSystem system(3, 2, /*sc_blind=*/true);
  expect_steal_invariant(system, {}, {4}, {0, 1});
}

TEST(StealExplore, CollectAllViolationsIdenticalOrderAndTapes) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  ExploreOptions options;
  options.stop_at_first_violation = false;
  options.max_violations = 8;
  expect_steal_invariant(system, options, {2, 4}, {0, 1});
}

// The mutant-refutation workload uncapped: naive DFS collecting every one
// of the mutant's violations unminimized, so the merge must order thousands
// of tapes from many stolen units exactly as the serial DFS finds them.
TEST(StealExplore, UncappedCollectAllRefutationIdentical) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  expect_steal_invariant(system, options, {4}, {0, 1});
}

// ------------------------------------------------------ fault-budget sweeps

TEST(StealExplore, FaultSweepIdenticalIncludingFaultPoints) {
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  expect_steal_invariant(system, options, {2, 4}, {0, 1});
}

TEST(StealExplore, FreshClaimMutantFaultRefutationIdentical) {
  RecoverableFvtSystem system(3, 2, RestartBehavior::kFreshClaim);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;  // the bug needs a restart, not a death
  expect_steal_invariant(system, options, {4}, {0});
}

// ----------------------------------------------------- skewed-subtree load

// One long writer against three short writers on a single register: every
// operation pair conflicts, so POR prunes nothing and the DFS is violently
// unbalanced — the shape a fixed prefix-depth split handles worst and
// stealing exists for.
TEST(StealExplore, SkewedSubtreeWorkloadIdenticalAcrossWorkerCounts) {
  SkewedWriterSystem system(4, 6, 1);
  expect_steal_invariant(system, {}, {2, 4, 8}, {0, 1, 2});
}

TEST(StealExplore, SkewedWorkloadNaiveNoPorIdentical) {
  SkewedWriterSystem system(3, 4, 2);
  ExploreOptions options;
  options.use_por = false;
  expect_steal_invariant(system, options, {4}, {0, 2});
}

// ------------------------------------------------------ steals really occur

// The invariance tests above would pass vacuously if no worker ever stole;
// this probe pins the mechanism: a 4-worker no-POR sweep of a 1680-schedule
// space must record at least one steal (worker 0 cannot drain a 4-process
// root subtree before anyone else wakes up).
TEST(StealExplore, BusyMultiWorkerRunActuallySteals) {
  OneShotSystem system(4, 3);
  obs::Telemetry::Options sink_options;
  sink_options.metrics = true;
  sink_options.events = false;
  obs::Telemetry telemetry(sink_options);
  ExploreOptions options;
  options.use_por = false;
  options.jobs = 4;
  options.telemetry = &telemetry;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  const obs::MetricsSnapshot snapshot = telemetry.metrics_snapshot();
  const auto it = snapshot.counters.find("explore.steals");
  ASSERT_NE(it, snapshot.counters.end())
      << "no explore.steals counter recorded";
  EXPECT_GE(it->second, 1u);
}

}  // namespace
}  // namespace bss::explore
