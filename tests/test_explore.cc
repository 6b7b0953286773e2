#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/snapshot_system.h"
#include "explore/system.h"
#include "registers/mwmr_register.h"

namespace bss::explore {
namespace {

// ------------------------------------------------------- commutation rule

TEST(OpsCommute, FootprintRule) {
  const sim::OpDesc read_a{sim::ObjectName("a"), "read", 0, 0};
  const sim::OpDesc read_a2{sim::ObjectName("a"), "read", 0, 0};
  const sim::OpDesc write_a{sim::ObjectName("a"), "write", 1, 0};
  const sim::OpDesc write_b{sim::ObjectName("b"), "write", 1, 0};
  const sim::OpDesc cas_a{sim::ObjectName("a"), "cas", 0, 1};
  EXPECT_TRUE(ops_commute(read_a, read_a2));   // both read same object
  EXPECT_TRUE(ops_commute(write_a, write_b));  // different objects
  EXPECT_FALSE(ops_commute(read_a, write_a));  // read/write same object
  EXPECT_FALSE(ops_commute(write_a, cas_a));   // write/cas same object
  EXPECT_FALSE(ops_commute(cas_a, cas_a));     // cas/cas same object
}

// --------------------------------------------- exhaustive correct systems

TEST(Explore, ExhaustiveTwoProcessOneShotElection) {
  OneShotSystem system(4, 2);
  ExploreOptions options;
  options.use_por = false;  // count the raw interleavings exactly
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  // Each process performs exactly 3 shared ops: C(6,3) = 20 interleavings.
  EXPECT_EQ(result.stats.schedules, 20u);
}

TEST(Explore, ExhaustiveThreeProcessOneShotElection) {
  OneShotSystem system(4, 3);
  const ExploreResult result = explore(system);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.stats.schedules, 0u);
  // 9 steps, 3 per process: 9!/(3!)^3 = 1680 raw interleavings; the sleep
  // sets must not need more than that.
  EXPECT_LE(result.stats.schedules, 1680u);
}

TEST(Explore, ExhaustiveTwoProcessLlScElection) {
  LlScSystem system(3, 2);
  ExploreOptions options;
  options.max_schedules = 2'000'000;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
}

TEST(Explore, BoundedFvtElectionCleanUnderThreePreemptions) {
  FvtSystem system(3, 2);
  ExploreOptions options;
  options.preemption_bound = 3;
  options.iterative = true;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_GT(result.stats.schedules, 0u);
}

TEST(Explore, BoundedSnapshotScansLinearizable) {
  SnapshotScanSystem system(2, 1);
  ExploreOptions options;
  options.preemption_bound = 2;
  options.iterative = true;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_GT(result.stats.schedules, 0u);
}

// --------------------------------------------------- preemption bounding

TEST(Explore, PreemptionBoundZeroMeansSerialSchedules) {
  OneShotSystem system(4, 2);
  ExploreOptions options;
  options.use_por = false;
  options.preemption_bound = 0;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  // Budget 0 forbids switching away from a runnable process: the only
  // schedules are "p0 to completion, then p1" and the reverse.
  EXPECT_EQ(result.stats.schedules, 2u);
  EXPECT_FALSE(result.exhausted);  // the budget cut branches
  EXPECT_GT(result.stats.preemption_prunes, 0u);
}

// ------------------------------------------------ partial-order reduction

/// Three processes, each writing twice to its own private register: every
/// pair of pending operations commutes, so one schedule represents them all.
class CommutingState {
 public:
  CommutingState() {
    for (int pid = 0; pid < 3; ++pid) {
      std::string name = "r";
      name += std::to_string(pid);
      regs_.emplace_back(std::move(name), 0);
    }
  }
  sim::MwmrRegister<int>& reg(int pid) {
    return regs_[static_cast<std::size_t>(pid)];
  }

 private:
  std::vector<sim::MwmrRegister<int>> regs_;
};

FactorySystem commuting_system() {
  return FactorySystem("commuting", 3, [] {
    return std::make_unique<StatefulInstance<CommutingState>>(
        std::make_unique<CommutingState>(),
        [](CommutingState& state, sim::SimEnv& env) {
          for (int pid = 0; pid < 3; ++pid) {
            env.add_process([&state, pid](sim::Ctx& ctx) {
              state.reg(pid).write(ctx, 1);
              state.reg(pid).write(ctx, 2);
            });
          }
        },
        [](CommutingState&, const sim::SimEnv&,
           const sim::RunReport& report) -> std::optional<std::string> {
          if (!report.clean()) return "run not clean";
          return std::nullopt;
        });
  });
}

TEST(Explore, SleepSetsBeatNaiveDfsOnCommutingWorkload) {
  const FactorySystem system = commuting_system();

  ExploreOptions naive;
  naive.use_por = false;
  const ExploreResult naive_result = explore(system, naive);
  EXPECT_TRUE(naive_result.ok());
  EXPECT_TRUE(naive_result.exhausted);
  // 6 steps, 2 per process: 6!/(2!)^3 = 90 interleavings, all distinct.
  EXPECT_EQ(naive_result.stats.schedules, 90u);

  const ExploreResult por_result = explore(system);  // POR on by default
  EXPECT_TRUE(por_result.ok());
  EXPECT_TRUE(por_result.exhausted);
  EXPECT_LT(por_result.stats.schedules, naive_result.stats.schedules);
  EXPECT_GT(por_result.stats.sleep_set_prunes, 0u);
  EXPECT_LT(por_result.stats.transitions, naive_result.stats.transitions);
}

// ------------------------------------------------------- mutant refutation

/// Every seeded mutant must be refuted with a shrunk counterexample that
/// ReplayScheduler re-executes verbatim (zero divergences) to the same
/// violation.
void expect_refuted(const ExplorableSystem& system,
                    const ExploreOptions& options) {
  const ExploreResult result = explore(system, options);
  ASSERT_FALSE(result.ok())
      << system.name() << " survived exploration: " << result.summary();
  const Counterexample& cex = result.violations.front();
  EXPECT_FALSE(cex.violation.empty());
  EXPECT_LE(cex.decisions.size(), 30u)
      << system.name() << ": minimized trace is too long";
  EXPECT_LE(cex.decisions.size(), cex.shrunk_from);

  const ReplayOutcome replay = replay_counterexample(system, cex);
  EXPECT_TRUE(replay.violated)
      << system.name() << ": counterexample does not reproduce";
  EXPECT_EQ(replay.divergences, 0u)
      << system.name() << ": replay needed the fallback";
  EXPECT_EQ(replay.violation, cex.violation);
}

TEST(Explore, CatchesClaimAfterCasMutant) {
  OneShotSystem system(4, 3, core::OneShotMutant::kClaimAfterCas);
  expect_refuted(system, {});
}

TEST(Explore, CatchesSplitCasMutant) {
  OneShotSystem system(4, 2, core::OneShotMutant::kSplitCas);
  expect_refuted(system, {});
}

TEST(Explore, CatchesScBlindLlScMutant) {
  LlScSystem system(3, 2, /*sc_blind=*/true);
  expect_refuted(system, {});
}

TEST(Explore, ScBlindMutantStaysInBoundsOnRandomSchedules) {
  // Ignoring an SC failure can walk a process one stage past the last
  // confirm register.  That must surface as a failed process, which the
  // check reports, not as an out-of-bounds access.
  const LlScSystem system(3, 2, /*sc_blind=*/true);
  int out_of_range = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const auto instance = system.make();
    sim::SimEnv env({.record_trace = false});
    instance->populate(env);
    sim::RandomScheduler scheduler(seed);
    const sim::RunReport report = env.run(scheduler);
    const std::optional<std::string> violation = instance->check(env, report);
    if (violation.has_value() &&
        violation->find("confirm stage out of range") != std::string::npos) {
      ++out_of_range;
    }
  }
  // Seed-determined: one of these schedules takes that path.
  EXPECT_GE(out_of_range, 1);
}

TEST(Explore, IterativeBoundingFindsSplitCasWithFewPreemptions) {
  OneShotSystem system(4, 2, core::OneShotMutant::kSplitCas);
  ExploreOptions options;
  options.preemption_bound = 2;
  options.iterative = true;
  expect_refuted(system, options);
}

// ------------------------------------------------------ artifact handling

TEST(Explore, ArtifactRoundTripsAndReplays) {
  OneShotSystem system(4, 2, core::OneShotMutant::kSplitCas);
  const ExploreResult result = explore(system);
  ASSERT_FALSE(result.ok());
  const Counterexample& cex = result.violations.front();

  const std::string text = cex.to_artifact();
  const auto parsed = Counterexample::from_artifact(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->system, system.name());
  EXPECT_EQ(parsed->processes, 2);
  EXPECT_EQ(parsed->decisions, cex.decisions);
  EXPECT_EQ(parsed->violation, cex.violation);

  const ReplayOutcome replay = replay_counterexample(system, *parsed);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
}

TEST(Explore, StaleArtifactIsReportedThroughDivergences) {
  OneShotSystem system(4, 2, core::OneShotMutant::kSplitCas);
  const ExploreResult result = explore(system);
  ASSERT_FALSE(result.ok());
  Counterexample stale = result.violations.front();
  ASSERT_GE(stale.decisions.size(), 2u);
  stale.decisions.resize(stale.decisions.size() - 2);  // truncate the tape
  const ReplayOutcome replay = replay_counterexample(system, stale);
  // The run still completes (fallback), but the divergence count exposes
  // that the tape no longer drives it end to end.
  EXPECT_GT(replay.divergences, 0u);
}

TEST(Explore, ArtifactParserRejectsGarbage) {
  EXPECT_FALSE(Counterexample::from_artifact("not an artifact").has_value());
  EXPECT_FALSE(
      Counterexample::from_artifact("bss-counterexample v1\nwat\n").has_value());
  EXPECT_FALSE(
      Counterexample::from_artifact("bss-counterexample v1\nsystem: x\n")
          .has_value());
}

// ----------------------------------------------------------- minimization

TEST(Explore, MinimizationOnlyShrinks) {
  OneShotSystem system(4, 3, core::OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.minimize = false;
  const ExploreResult raw = explore(system, options);
  ASSERT_FALSE(raw.ok());
  ExploreStats stats;
  const Counterexample shrunk =
      minimize_counterexample(system, raw.violations.front(), options, &stats);
  EXPECT_LE(shrunk.decisions.size(), shrunk.shrunk_from);
  EXPECT_GT(stats.shrink_runs, 0u);
  const ReplayOutcome replay = replay_counterexample(system, shrunk);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
}

}  // namespace
}  // namespace bss::explore
