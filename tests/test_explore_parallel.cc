// Parallel exploration beyond result identity (which tests/
// test_explore_steal.cc sweeps across worker counts): a
// counterexample minimized at jobs=4 replays with zero divergences, the
// shrink budget cuts ddmin but keeps tapes replayable, the dense action
// encoding's overflow guard, a 100-seed parallel storm on the std::thread
// backend, and the algebra of ExploreStats::merge_from.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/mutant_elections.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "util/checked.h"

namespace bss::explore {
namespace {

using core::OneShotMutant;
using core::RecoverableConcurrentReport;
using core::run_recoverable_concurrent_election;
using sim::Action;
using sim::ActionKind;
using sim::decode_action;
using sim::encode_action;
using sim::is_fault_action;
using sim::kMaxActionPid;

// ------------------------------------------------------ parallel replay

TEST(ParallelExplore, ParallelCounterexampleReplaysWithZeroDivergences) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.jobs = 4;
  const ExploreResult result = explore(system, options);
  ASSERT_FALSE(result.ok());
  const ReplayOutcome replay =
      replay_counterexample(system, result.violations.front());
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
}

// ----------------------------------------------------------- shrink budget

TEST(ParallelExplore, ShrinkBudgetCutsDdminButStaysReplayable) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.shrink_budget = 1;  // only the canonicalization run fits
  const ExploreResult result = explore(system, options);
  ASSERT_FALSE(result.ok());
  EXPECT_GT(result.stats.shrink_budget_hits, 0u) << result.stats.summary();
  EXPECT_LE(result.stats.shrink_runs, result.stats.shrink_budget_hits * 2)
      << "a shrink_budget=1 minimization must stop after canonicalizing";
  // The cut still returns a canonical tape: replays with zero divergences.
  const ReplayOutcome replay =
      replay_counterexample(system, result.violations.front());
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
}

TEST(ParallelExplore, UnlimitedShrinkBudgetNeverHits) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  ExploreOptions options;
  options.shrink_budget = 0;  // unlimited
  const ExploreResult result = explore(system, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.stats.shrink_budget_hits, 0u);
  EXPECT_GT(result.stats.shrink_runs, 0u);
}

// --------------------------------------------------- action-encoding guard

TEST(ParallelExplore, ActionEncodingRoundTripsOverFullSupportedRange) {
  const std::vector<int> pids = {0,       1,          7,
                                 63,      1'000'000,  kMaxActionPid - 1,
                                 kMaxActionPid};
  for (const auto kind : {ActionKind::kGrant, ActionKind::kCrash,
                          ActionKind::kRestart, ActionKind::kScFailure}) {
    for (const int pid : pids) {
      const int encoded = encode_action(kind, pid);
      const Action action = decode_action(encoded);
      EXPECT_EQ(action.kind, kind) << "pid " << pid;
      EXPECT_EQ(action.pid, pid);
      EXPECT_EQ(is_fault_action(encoded), kind != ActionKind::kGrant);
    }
  }
}

TEST(ParallelExplore, ActionEncodingRejectsOutOfRangePids) {
  EXPECT_THROW(encode_action(ActionKind::kCrash, kMaxActionPid + 1),
               InvariantError);
  EXPECT_THROW(encode_action(ActionKind::kGrant, -1), InvariantError);
  EXPECT_THROW(encode_action(ActionKind::kScFailure,
                             std::numeric_limits<int>::max()),
               InvariantError);
}

TEST(ParallelExplore, ArtifactRejectsOutOfRangePid) {
  const std::string artifact =
      "bss-counterexample v2\n"
      "system: x\n"
      "processes: 2\n"
      "shrunk-from: 1\n"
      "violation: v\n"
      "decisions: c" +
      std::to_string(kMaxActionPid + 1) + "\n";
  EXPECT_FALSE(Counterexample::from_artifact(artifact).has_value());
}

// ------------------------------------------------- thread-backend storm

// 100 seeds of the crash-restart election on the real std::thread backend,
// driven from 4 concurrent driver threads: the explorer's worker pool and
// the systems it spawns must coexist with genuine parallelism (this is the
// test TSan chews on in CI).
TEST(ParallelExplore, HundredSeedParallelConcurrentRestartStorm) {
  constexpr int k = 4;
  constexpr int n = 3;
  constexpr std::uint64_t kSeeds = 100;
  constexpr std::uint64_t kDrivers = 4;
  std::vector<std::string> failures(kDrivers);
  std::vector<std::thread> drivers;
  for (std::uint64_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([d, &failures] {
      for (std::uint64_t seed = d; seed < kSeeds; seed += kDrivers) {
        const RecoverableConcurrentReport report =
            run_recoverable_concurrent_election(k, n, seed);
        if (!report.consistent) {
          failures[d] = "inconsistent at seed " + std::to_string(seed);
          return;
        }
        if (report.leader < 1000 || report.leader >= 1000 + n) {
          failures[d] = "bad leader at seed " + std::to_string(seed);
          return;
        }
      }
    });
  }
  for (auto& t : drivers) t.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

// -------------------------------------------------- ExploreStats::merge_from
// The DFS-ordered merge folds per-subtree stats with merge_from; these pin
// down the fold's algebra: empty is the identity, disjoint shards merge the
// same in either order, and budget-hit counters accumulate rather than
// overwrite.

ExploreStats sample_stats(std::uint64_t base) {
  ExploreStats stats;
  stats.schedules = base + 1;
  stats.transitions = base + 2;
  stats.sleep_set_prunes = base + 3;
  stats.preemption_prunes = base + 4;
  stats.truncated = base + 5;
  stats.max_depth_seen = base + 6;
  stats.shrink_runs = base + 7;
  stats.shrink_budget_hits = base + 8;
  stats.fault_prunes = base + 9;
  stats.faults_injected = base + 10;
  return stats;
}

TEST(ExploreStatsMerge, EmptyIsTheIdentity) {
  ExploreStats stats = sample_stats(100);
  const std::string before = stats.summary();
  stats.merge_from(ExploreStats{});
  EXPECT_EQ(stats.summary(), before);

  ExploreStats empty;
  empty.merge_from(stats);
  EXPECT_EQ(empty.summary(), before);
}

TEST(ExploreStatsMerge, CommutesOnDisjointShards) {
  ExploreStats left = sample_stats(10);
  ExploreStats right = sample_stats(2000);
  ExploreStats left_first = left;
  left_first.merge_from(right);
  ExploreStats right_first = right;
  right_first.merge_from(left);
  EXPECT_EQ(left_first.summary(), right_first.summary());
  // Counters added, max_depth_seen maxed.
  EXPECT_EQ(left_first.schedules, left.schedules + right.schedules);
  EXPECT_EQ(left_first.max_depth_seen, right.max_depth_seen);
}

TEST(ExploreStatsMerge, ShrinkBudgetHitsAccumulateAcrossShards) {
  ExploreStats total;
  for (std::uint64_t shard = 0; shard < 3; ++shard) {
    ExploreStats piece;
    piece.shrink_runs = 5;
    piece.shrink_budget_hits = shard;  // 0, 1, 2
    total.merge_from(piece);
  }
  EXPECT_EQ(total.shrink_runs, 15u);
  EXPECT_EQ(total.shrink_budget_hits, 3u);
}

TEST(ExploreStatsMerge, FaultPointsAreNotSummedByMerge) {
  // Distinct fault sites dedup through a set in explore(); a naive sum
  // would double-count sites shared between subtrees, so merge_from must
  // leave the field alone.
  ExploreStats total;
  total.fault_points = 7;
  ExploreStats piece;
  piece.fault_points = 5;
  total.merge_from(piece);
  EXPECT_EQ(total.fault_points, 7u);
}

}  // namespace
}  // namespace bss::explore
