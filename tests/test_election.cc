#include <gtest/gtest.h>

#include <set>

#include "core/capacity.h"
#include "core/concurrent_election.h"
#include "core/election_validator.h"
#include "core/first_value_tree.h"
#include "core/composed_election.h"
#include "core/llsc_election.h"
#include "core/one_shot_election.h"
#include "core/path_math.h"
#include "core/sim_election.h"
#include "util/checked.h"
#include "util/permutation.h"

namespace bss::core {
namespace {

using sim::CasConvoyScheduler;
using sim::FaultPlan;
using sim::RandomScheduler;
using sim::RoundRobinScheduler;
using sim::SoloScheduler;

// ---------------------------------------------------------------- path math

TEST(PathMath, SlotCountIsFactorial) {
  EXPECT_EQ(slot_count(2), 1u);
  EXPECT_EQ(slot_count(3), 2u);
  EXPECT_EQ(slot_count(5), 24u);
  EXPECT_EQ(slot_count(7), 720u);
  EXPECT_THROW(slot_count(1), InvariantError);
}

TEST(PathMath, PathsAreDistinctPermutations) {
  for (int k = 2; k <= 6; ++k) {
    std::set<std::vector<int>> seen;
    for (std::uint64_t slot = 0; slot < slot_count(k); ++slot) {
      const auto path = slot_path(slot, k);
      EXPECT_EQ(path.size(), static_cast<std::size_t>(k - 1));
      EXPECT_TRUE(is_permutation_prefix(path, 1, k));
      EXPECT_TRUE(seen.insert(path).second);
      EXPECT_EQ(path_owner(path, k), slot);
    }
    EXPECT_EQ(seen.size(), slot_count(k));
  }
}

TEST(PathMath, SlotExtendsItsOwnPrefixes) {
  const int k = 5;
  for (std::uint64_t slot = 0; slot < slot_count(k); ++slot) {
    const auto path = slot_path(slot, k);
    for (std::size_t depth = 0; depth <= path.size(); ++depth) {
      const std::vector<int> prefix(path.begin(),
                                    path.begin() + checked_cast<long>(depth));
      EXPECT_TRUE(slot_extends(slot, prefix, k));
    }
  }
}

TEST(PathMath, ExtensionEnumerationIsExactAndAscending) {
  const int k = 5;
  for (std::uint64_t slot = 0; slot < slot_count(k); ++slot) {
    const auto path = slot_path(slot, k);
    for (std::size_t depth = 0; depth <= path.size(); ++depth) {
      const std::vector<int> prefix(path.begin(),
                                    path.begin() + checked_cast<long>(depth));
      const std::uint64_t count =
          extension_count(k, checked_cast<int>(depth));
      std::vector<std::uint64_t> extending;
      for (std::uint64_t j = 0; j < count; ++j) {
        extending.push_back(nth_slot_extending(prefix, j, k));
      }
      // Ascending, and exactly the slots that extend the prefix.
      for (std::size_t i = 1; i < extending.size(); ++i) {
        EXPECT_LT(extending[i - 1], extending[i]);
      }
      std::set<std::uint64_t> expected;
      for (std::uint64_t s = 0; s < slot_count(k); ++s) {
        if (slot_extends(s, prefix, k)) expected.insert(s);
      }
      EXPECT_EQ(std::set<std::uint64_t>(extending.begin(), extending.end()),
                expected);
    }
  }
}

// ------------------------------------------------------------ full-capacity

struct SchedulerCase {
  std::string name;
  std::function<std::unique_ptr<sim::Scheduler>()> make;
};

std::vector<SchedulerCase> scheduler_cases() {
  std::vector<SchedulerCase> cases;
  cases.push_back({"round-robin", [] {
                     return std::make_unique<RoundRobinScheduler>();
                   }});
  cases.push_back(
      {"solo", [] { return std::make_unique<SoloScheduler>(); }});
  for (const std::uint64_t seed : {1ULL, 42ULL, 20260704ULL}) {
    cases.push_back({"random-" + std::to_string(seed), [seed] {
                       return std::make_unique<RandomScheduler>(seed);
                     }});
    cases.push_back({"convoy-" + std::to_string(seed), [seed] {
                       return std::make_unique<CasConvoyScheduler>(seed);
                     }});
  }
  return cases;
}

class ElectionFullCapacity : public ::testing::TestWithParam<int> {};

TEST_P(ElectionFullCapacity, AllSchedulersElectConsistently) {
  const int k = GetParam();
  const int n = checked_cast<int>(slot_count(k));
  for (const auto& scheduler_case : scheduler_cases()) {
    auto scheduler = scheduler_case.make();
    const SimElectionReport report = run_sim_election(k, n, *scheduler);
    const ElectionVerdict verdict = verify_election(report);
    EXPECT_TRUE(verdict.ok()) << "k=" << k << " scheduler="
                              << scheduler_case.name << ": "
                              << verdict.diagnosis;
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, ElectionFullCapacity,
                         ::testing::Values(2, 3, 4, 5, 6));

// ------------------------------------------------------------ partial loads

class ElectionPartialLoad
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ElectionPartialLoad, SubsetsOfSlotsStillElect) {
  const auto [k, n] = GetParam();
  RandomScheduler scheduler(static_cast<std::uint64_t>(k) * 131 +
                            static_cast<std::uint64_t>(n));
  const SimElectionReport report = run_sim_election(k, n, scheduler);
  const ElectionVerdict verdict = verify_election(report);
  EXPECT_TRUE(verdict.ok()) << verdict.diagnosis;
}

INSTANTIATE_TEST_SUITE_P(
    Loads, ElectionPartialLoad,
    ::testing::Values(std::tuple{4, 1}, std::tuple{4, 3}, std::tuple{5, 2},
                      std::tuple{5, 13}, std::tuple{6, 7}, std::tuple{6, 60},
                      std::tuple{7, 100}));

TEST(Election, NonContiguousSlotAssignmentsWork) {
  // Processes need not occupy slots 0..n-1; scatter them.
  const int k = 5;
  SimElectionOptions options;
  options.slot_of_pid = {23, 0, 17, 5, 11};
  RandomScheduler scheduler(99);
  const SimElectionReport report =
      run_sim_election(k, 5, scheduler, {}, options);
  EXPECT_TRUE(verify_election(report).ok());
}

TEST(Election, RejectsOverCapacity) {
  RoundRobinScheduler scheduler;
  EXPECT_THROW(run_sim_election(3, 3, scheduler), InvariantError);
  EXPECT_THROW(run_sim_election(4, 7, scheduler), InvariantError);
}

TEST(Election, SingleProcessElectsItself) {
  for (int k = 2; k <= 6; ++k) {
    RoundRobinScheduler scheduler;
    const SimElectionReport report = run_sim_election(k, 1, scheduler);
    ASSERT_TRUE(report.outcomes[0].has_value());
    EXPECT_EQ(report.outcomes[0]->leader, report.proposed_id(0));
    EXPECT_TRUE(verify_election(report).ok());
  }
}

// -------------------------------------------------------------- crash sweeps

TEST(ElectionCrash, SurvivorsDecideWheneverAnyoneSurvives) {
  const int k = 5;
  const int n = 24;
  Rng rng(2026);
  int runs_with_survivors = 0;
  for (int trial = 0; trial < 25; ++trial) {
    FaultPlan crashes = FaultPlan::random_crashes(n, 0.4, 30, rng);
    RandomScheduler scheduler(1000 + static_cast<std::uint64_t>(trial));
    const SimElectionReport report =
        run_sim_election(k, n, scheduler, crashes);
    const ElectionVerdict verdict = verify_election(report);
    EXPECT_TRUE(verdict.ok()) << "trial " << trial << ": "
                              << verdict.diagnosis;
    if (report.run.finished_count() > 0) ++runs_with_survivors;
  }
  EXPECT_GT(runs_with_survivors, 0);
}

TEST(ElectionCrash, LoneSurvivorAlwaysDecides) {
  // Everyone except one process crashes before taking any step: the survivor
  // must still elect (itself), in a bounded number of its own steps.
  const int k = 5;
  const int n = 24;
  for (int survivor = 0; survivor < n; survivor += 7) {
    FaultPlan crashes;
    for (int pid = 0; pid < n; ++pid) {
      if (pid != survivor) crashes.crash_before_op(pid, 0);
    }
    RoundRobinScheduler scheduler;
    const SimElectionReport report =
        run_sim_election(k, n, scheduler, crashes);
    EXPECT_TRUE(verify_election(report).ok());
    ASSERT_TRUE(report.outcomes[static_cast<std::size_t>(survivor)]);
    EXPECT_EQ(report.outcomes[static_cast<std::size_t>(survivor)]->leader,
              report.proposed_id(survivor));
  }
}

TEST(ElectionCrash, MidProtocolCrashOfEveryPioneer) {
  // Let each process in turn crash right after its first c&s access; the
  // helping rule must carry the election through.
  const int k = 4;
  const int n = 6;
  for (int victim = 0; victim < n; ++victim) {
    FaultPlan crashes;
    // announce(1 op) + confirm reads... crash before its 5th op, roughly
    // after its first cas for the natural round-robin pacing.
    crashes.crash_before_op(victim, 5);
    RoundRobinScheduler scheduler;
    const SimElectionReport report =
        run_sim_election(k, n, scheduler, crashes);
    const ElectionVerdict verdict = verify_election(report);
    EXPECT_TRUE(verdict.ok()) << "victim " << victim << ": "
                              << verdict.diagnosis;
  }
}

TEST(ElectionCrash, CrashStormAtEveryDepth) {
  // Crash a third of the processes before op t, for every small t: exercises
  // deaths at announce-time, mid-label and at decision time.
  const int k = 5;
  const int n = 24;
  for (std::uint64_t t = 0; t < 12; ++t) {
    FaultPlan crashes;
    for (int pid = 0; pid < n; pid += 3) crashes.crash_before_op(pid, t);
    RandomScheduler scheduler(t * 17 + 3);
    const SimElectionReport report =
        run_sim_election(k, n, scheduler, crashes);
    const ElectionVerdict verdict = verify_election(report);
    EXPECT_TRUE(verdict.ok()) << "t=" << t << ": " << verdict.diagnosis;
  }
}

// ------------------------------------------------------- step-bound metrics

TEST(ElectionBound, CasAccessesAreOPerProcess) {
  // The wait-freedom argument promises O(k) c&s accesses per process; the
  // validator enforces <= 4k+8, here we also record the observed maximum is
  // comfortably small under heavy contention.
  for (int k = 3; k <= 6; ++k) {
    const int n = checked_cast<int>(slot_count(k));
    CasConvoyScheduler scheduler(7);
    const SimElectionReport report = run_sim_election(k, n, scheduler);
    ASSERT_TRUE(verify_election(report).ok());
    int max_cas = 0;
    for (const auto& outcome : report.outcomes) {
      if (outcome.has_value()) max_cas = std::max(max_cas, outcome->cas_accesses);
    }
    EXPECT_LE(max_cas, 2 * k + 2) << "k=" << k;
  }
}

TEST(ElectionBound, HistoryIsCompletePermutationWhenUncrashed) {
  const int k = 6;
  const int n = checked_cast<int>(slot_count(k));
  RandomScheduler scheduler(5);
  const SimElectionReport report = run_sim_election(k, n, scheduler);
  ASSERT_TRUE(verify_election(report).ok());
  EXPECT_EQ(report.cas_history.size(), static_cast<std::size_t>(k - 1));
}

TEST(ElectionBound, WinnerPathMatchesHistory) {
  const int k = 5;
  const int n = 24;
  RandomScheduler scheduler(321);
  const SimElectionReport report = run_sim_election(k, n, scheduler);
  ASSERT_TRUE(verify_election(report).ok());
  std::vector<int> history;
  for (const auto& transition : report.cas_history) {
    history.push_back(transition.to);
  }
  const std::uint64_t winner_slot = path_owner(history, k);
  ASSERT_TRUE(report.outcomes[0].has_value());
  EXPECT_EQ(report.outcomes[0]->leader,
            report.proposed_id(checked_cast<int>(winner_slot)));
}

// ---------------------------------------------------------------- one-shot

TEST(OneShot, ElectsAmongKMinusOne) {
  for (int k = 2; k <= 8; ++k) {
    RandomScheduler scheduler(static_cast<std::uint64_t>(k));
    const OneShotReport report = run_one_shot_election(k, k - 1, scheduler);
    EXPECT_TRUE(report.consistent) << "k=" << k;
    EXPECT_EQ(report.run.finished_count(), k - 1);
  }
}

TEST(OneShot, SingleCasAccessPerProcess) {
  OneShotState state(6);
  sim::SimEnv env;
  for (int pid = 0; pid < 5; ++pid) {
    env.add_process([&state, pid](sim::Ctx& ctx) {
      (void)one_shot_elect(state, ctx, pid, 1000 + pid);
    });
  }
  RandomScheduler scheduler(8);
  env.run(scheduler);
  for (int pid = 0; pid < 5; ++pid) EXPECT_EQ(state.cas.accesses_by(pid), 1u);
}

TEST(OneShot, CrashTolerant) {
  const int k = 6;
  FaultPlan crashes;
  crashes.crash_before_op(0, 1);  // after announcing, before its cas
  crashes.crash_before_op(2, 2);  // after its cas, before reading the winner
  RandomScheduler scheduler(10);
  const OneShotReport report = run_one_shot_election(k, 5, scheduler, crashes);
  EXPECT_TRUE(report.consistent);
  EXPECT_EQ(report.run.finished_count(), 3);
}

TEST(OneShot, RejectsOverCapacity) {
  RoundRobinScheduler scheduler;
  EXPECT_THROW(run_one_shot_election(4, 4, scheduler), InvariantError);
}

// --------------------------------------------------- the validator itself

SimElectionReport healthy_report() {
  RandomScheduler scheduler(4);
  return run_sim_election(4, 6, scheduler);
}

TEST(Validator, AcceptsHealthyRuns) {
  const auto report = healthy_report();
  const auto verdict = verify_election(report);
  EXPECT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.diagnosis.empty());
}

TEST(Validator, CatchesDisagreement) {
  auto report = healthy_report();
  // Plant a second leader.
  for (auto& outcome : report.outcomes) {
    if (outcome.has_value()) {
      outcome->leader += 1;
      break;
    }
  }
  const auto verdict = verify_election(report);
  EXPECT_FALSE(verdict.consistent);
  EXPECT_FALSE(verdict.ok());
  EXPECT_NE(verdict.diagnosis.find("elected"), std::string::npos);
}

TEST(Validator, CatchesInvalidLeader) {
  auto report = healthy_report();
  for (auto& outcome : report.outcomes) {
    if (outcome.has_value()) outcome->leader = 99999;  // nobody proposed this
  }
  const auto verdict = verify_election(report);
  EXPECT_FALSE(verdict.valid);
}

TEST(Validator, CatchesStepBoundViolation) {
  auto report = healthy_report();
  report.outcomes[0]->cas_accesses = 10 * max_iterations(report.k);
  const auto verdict = verify_election(report);
  EXPECT_FALSE(verdict.wait_free);
}

TEST(Validator, CatchesSymbolReuseInHistory) {
  auto report = healthy_report();
  // Plant a reused symbol: append a transition back to the first symbol.
  const int first = report.cas_history.front().to;
  const int last = report.cas_history.back().to;
  report.cas_history.push_back({0, last, first});
  const auto verdict = verify_election(report);
  EXPECT_FALSE(verdict.label_sound);
}

TEST(Validator, CatchesBrokenHistoryChain) {
  auto report = healthy_report();
  ASSERT_GE(report.cas_history.size(), 2u);
  report.cas_history[1].from = report.cas_history[1].to;  // no longer chains
  const auto verdict = verify_election(report);
  EXPECT_FALSE(verdict.label_sound);
}

TEST(Validator, CatchesUndecidedFinisher) {
  auto report = healthy_report();
  report.outcomes[2]->leader = kNoId;
  const auto verdict = verify_election(report);
  EXPECT_FALSE(verdict.wait_free);
}

// ---------------------------------------------------------------- capacity

TEST(Capacity, KnownValues) {
  EXPECT_EQ(burns_bound(4).to_decimal(), "3");
  EXPECT_EQ(algorithmic_lower(4).to_decimal(), "6");
  EXPECT_EQ(conjecture(4).to_decimal(), "24");
  EXPECT_EQ(paper_upper(3).to_decimal(), "531441");         // 3^12
  EXPECT_EQ(paper_upper(4).to_decimal(), "274877906944");   // 4^19
}

TEST(Capacity, OrderingHoldsForAllK) {
  // burns <= lower <= conjecture < upper (burns < lower strictly from k=4:
  // (k-1)! pulls away from k-1 exactly when read/write registers start to
  // matter) — the paper's separation, exactly.
  for (int k = 3; k <= 24; ++k) {
    const CapacityRow row = capacity_row(k);
    EXPECT_TRUE(k == 3 ? row.burns == row.lower : row.burns < row.lower) << k;
    EXPECT_TRUE(row.lower <= row.conjectured) << k;
    EXPECT_TRUE(row.conjectured < row.upper) << k;
    EXPECT_GT(row.gap_digits, 0) << k;
  }
}

TEST(Capacity, RwAmplificationGrows) {
  // (k-1)!/(k-1) strictly grows with k: the measured content of "read/write
  // registers add power to a bounded object, increasingly so".
  double previous = 0;
  for (int k = 3; k <= 12; ++k) {
    const CapacityRow row = capacity_row(k);
    EXPECT_GT(row.rw_amplification, previous);
    previous = row.rw_amplification;
  }
}

// -------------------------------------------------- exhaustive crash matrix

TEST(ElectionCrashMatrix, EveryVictimAtEveryDepth) {
  // k=4, n=6: crash each single victim before each of its first 16 ops, under
  // two schedulers — 6*16*2 = 192 distinct fail-stop scenarios, all checked.
  const int k = 4;
  const int n = 6;
  for (int victim = 0; victim < n; ++victim) {
    for (std::uint64_t point = 0; point < 16; ++point) {
      for (const std::uint64_t seed : {0ULL, 9ULL}) {
        FaultPlan crashes;
        crashes.crash_before_op(victim, point);
        RandomScheduler scheduler(seed);
        const SimElectionReport report =
            run_sim_election(k, n, scheduler, crashes);
        const ElectionVerdict verdict = verify_election(report);
        ASSERT_TRUE(verdict.ok())
            << "victim=" << victim << " point=" << point << " seed=" << seed
            << ": " << verdict.diagnosis;
      }
    }
  }
}

TEST(ElectionCrashMatrix, PairsOfVictims) {
  const int k = 4;
  const int n = 6;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      FaultPlan crashes;
      crashes.crash_before_op(a, 3);
      crashes.crash_before_op(b, 7);
      RoundRobinScheduler scheduler;
      const SimElectionReport report =
          run_sim_election(k, n, scheduler, crashes);
      const ElectionVerdict verdict = verify_election(report);
      ASSERT_TRUE(verdict.ok()) << "a=" << a << " b=" << b << ": "
                                << verdict.diagnosis;
    }
  }
}

// ------------------------------------------------------------- determinism

TEST(ElectionDeterminism, SameSeedSameEverything) {
  const auto run_once = [] {
    RandomScheduler scheduler(777);
    return run_sim_election(5, 24, scheduler);
  };
  const SimElectionReport first = run_once();
  const SimElectionReport second = run_once();
  ASSERT_TRUE(first.outcomes[0].has_value());
  EXPECT_EQ(first.outcomes[0]->leader, second.outcomes[0]->leader);
  EXPECT_EQ(first.run.total_steps, second.run.total_steps);
  ASSERT_EQ(first.cas_history.size(), second.cas_history.size());
  for (std::size_t i = 0; i < first.cas_history.size(); ++i) {
    EXPECT_EQ(first.cas_history[i].to, second.cas_history[i].to);
  }
}

TEST(ElectionDeterminism, DifferentSeedsCoverManyWinners) {
  // The adversary genuinely controls the outcome: across seeds, multiple
  // different processes win.
  std::set<std::int64_t> winners;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    RandomScheduler scheduler(seed);
    const SimElectionReport report = run_sim_election(5, 24, scheduler);
    ASSERT_TRUE(report.outcomes[0].has_value());
    winners.insert(report.outcomes[0]->leader);
  }
  EXPECT_GE(winners.size(), 3u);
}

// ------------------------------------------------------------ ablation unit

TEST(ElectionAblation, FullPolicyNeverGivesUp) {
  SimElectionOptions options;  // defaults: full algorithm
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto crashes = sim::FaultPlan::random_crashes(24, 0.5, 15, rng);
    RandomScheduler scheduler(static_cast<std::uint64_t>(trial));
    const SimElectionReport report =
        run_sim_election(5, 24, scheduler, crashes, options);
    for (const auto& outcome : report.outcomes) {
      if (outcome.has_value()) {
        EXPECT_FALSE(outcome->gave_up);
      }
    }
    EXPECT_TRUE(verify_election(report).ok());
  }
}

TEST(ElectionAblation, AblatedPoliciesStaySafe) {
  // Removing helping may strand survivors (give-ups) but must never elect
  // two leaders or an unproposed one.
  for (const bool no_help : {true, false}) {
    SimElectionOptions options;
    options.policy.allow_incomplete = true;
    if (no_help) {
      options.policy.help_others = false;
    } else {
      options.policy.helper_confirm = false;
    }
    Rng rng(7);
    for (int trial = 0; trial < 15; ++trial) {
      const auto crashes = sim::FaultPlan::random_crashes(24, 0.5, 12, rng);
      RandomScheduler scheduler(100 + static_cast<std::uint64_t>(trial));
      const SimElectionReport report =
          run_sim_election(5, 24, scheduler, crashes, options);
      std::int64_t leader = kNoId;
      for (const auto& outcome : report.outcomes) {
        if (!outcome.has_value() || outcome->gave_up) continue;
        if (leader == kNoId) leader = outcome->leader;
        EXPECT_EQ(outcome->leader, leader);
        EXPECT_GE(outcome->leader, 1000);
        EXPECT_LT(outcome->leader, 1024);
      }
    }
  }
}

TEST(ElectionAblation, NoHelpOthersStrandsLosersWhenWinnersCrash) {
  // Deterministic stranding: let the pioneer install the first symbol and
  // crash; without helping, processes whose slots fell out of the race can
  // only give up.
  SimElectionOptions options;
  options.policy.help_others = false;
  options.policy.allow_incomplete = true;
  FaultPlan crashes;
  // p0 (slot 0, path 1.2.3) installs symbol 1 and dies; p1 (slot 1, path
  // 1.3.2) — the only other slot extending label ⊥.1 — never starts.  The
  // remaining slots cannot extend the label without helping.
  crashes.crash_before_op(0, 6);
  crashes.crash_before_op(1, 0);
  SoloScheduler scheduler;  // p0 runs first, alone
  const SimElectionReport report =
      run_sim_election(4, 6, scheduler, crashes, options);
  int gave_up = 0;
  for (const auto& outcome : report.outcomes) {
    if (outcome.has_value() && outcome->gave_up) ++gave_up;
  }
  EXPECT_GT(gave_up, 0);
}

// ----------------------------------------------------- composition extension

TEST(ComposedElection, CapacityMath) {
  EXPECT_EQ(composed_capacity(3, 1), 2u);
  EXPECT_EQ(composed_capacity(3, 2), 4u);
  EXPECT_EQ(composed_capacity(4, 2), 36u);
  EXPECT_EQ(composed_capacity(5, 3), 24u * 24 * 24);
  EXPECT_THROW(composed_capacity(3, 0), InvariantError);
}

class ComposedElectionSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ComposedElectionSweep, ConsistentAndValid) {
  const auto [k, copies, n] = GetParam();
  for (const std::uint64_t seed : {2ULL, 11ULL, 31ULL}) {
    RandomScheduler scheduler(seed);
    const ComposedElectionReport report =
        run_composed_election(k, copies, n, scheduler);
    EXPECT_TRUE(report.consistent)
        << "k=" << k << " copies=" << copies << " seed=" << seed;
    EXPECT_TRUE(report.valid);
    EXPECT_EQ(report.run.finished_count(), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ComposedElectionSweep,
                         ::testing::Values(std::tuple{3, 2, 4},
                                           std::tuple{3, 3, 8},
                                           std::tuple{4, 2, 36},
                                           std::tuple{4, 3, 50},
                                           std::tuple{5, 2, 64}));

TEST(ComposedElection, SurvivorsAgreeUnderCrashes) {
  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    const auto crashes = sim::FaultPlan::random_crashes(36, 0.4, 25, rng);
    RandomScheduler scheduler(500 + static_cast<std::uint64_t>(trial));
    const ComposedElectionReport report =
        run_composed_election(4, 2, 36, scheduler, crashes);
    EXPECT_TRUE(report.consistent) << "trial " << trial;
    EXPECT_TRUE(report.valid);
  }
}

TEST(ComposedElection, CrashStormAtEveryDepth) {
  // Deaths at every small depth must leave all stages of the composition
  // consistent: a process can die between winning stage i and entering
  // stage i+1, the classic partial-progress window.
  const int k = 4;
  const int copies = 2;
  const int n = 36;
  for (std::uint64_t t = 0; t < 12; ++t) {
    FaultPlan crashes;
    for (int pid = 0; pid < n; pid += 3) crashes.crash_before_op(pid, t);
    RandomScheduler scheduler(t * 23 + 9);
    const ComposedElectionReport report =
        run_composed_election(k, copies, n, scheduler, crashes);
    EXPECT_TRUE(report.consistent) << "t=" << t;
    EXPECT_TRUE(report.valid) << "t=" << t;
    EXPECT_GT(report.run.finished_count(), 0) << "t=" << t;
  }
}

TEST(ComposedElection, SharedDigitSlotsAreSafe) {
  // n > (k-1)!: several processes share a digit slot in every stage; the
  // same-value announce discipline keeps the stages sound.
  RandomScheduler scheduler(77);
  const ComposedElectionReport report =
      run_composed_election(3, 3, 8, scheduler);
  EXPECT_TRUE(report.consistent);
  ASSERT_TRUE(report.leaders[0].has_value());
  EXPECT_LT(*report.leaders[0], composed_capacity(3, 3));
}

TEST(ComposedElection, RejectsOverCapacity) {
  RoundRobinScheduler scheduler;
  EXPECT_THROW(run_composed_election(3, 2, 5, scheduler), InvariantError);
}

// ---------------------------------------------------------- LL/SC extension

class LlScElection : public ::testing::TestWithParam<int> {};

TEST_P(LlScElection, FullCapacityAllSchedulers) {
  const int k = GetParam();
  const int n = checked_cast<int>(slot_count(k));
  for (const std::uint64_t seed : {1ULL, 5ULL, 17ULL}) {
    RandomScheduler scheduler(seed);
    const LlScElectionReport report = run_llsc_election(k, n, scheduler);
    EXPECT_TRUE(report.consistent) << "k=" << k << " seed=" << seed;
    EXPECT_TRUE(report.valid);
    EXPECT_EQ(report.run.finished_count(), n);
  }
  RoundRobinScheduler round_robin;
  EXPECT_TRUE(run_llsc_election(k, n, round_robin).consistent);
  CasConvoyScheduler convoy(3);
  EXPECT_TRUE(run_llsc_election(k, n, convoy).consistent);
}

INSTANTIATE_TEST_SUITE_P(KSweep, LlScElection, ::testing::Values(3, 4, 5, 6));

TEST(LlScElectionCrash, SurvivorsDecide) {
  Rng rng(3);
  for (int trial = 0; trial < 15; ++trial) {
    const auto crashes = sim::FaultPlan::random_crashes(24, 0.4, 20, rng);
    RandomScheduler scheduler(static_cast<std::uint64_t>(trial) * 13);
    const LlScElectionReport report =
        run_llsc_election(5, 24, scheduler, crashes);
    EXPECT_TRUE(report.consistent) << "trial " << trial;
    for (int pid = 0; pid < 24; ++pid) {
      if (report.run.outcomes[static_cast<std::size_t>(pid)] ==
          sim::ProcOutcome::kFinished) {
        EXPECT_TRUE(report.outcomes[static_cast<std::size_t>(pid)].has_value());
      }
    }
  }
}

TEST(LlScElectionCrash, CrashStormAtEveryDepth) {
  // Mirror of ElectionCrash.CrashStormAtEveryDepth on the LL/SC extension:
  // a third of the processes die before op t, for every small t.
  const int k = 5;
  const int n = 24;
  for (std::uint64_t t = 0; t < 12; ++t) {
    FaultPlan crashes;
    for (int pid = 0; pid < n; pid += 3) crashes.crash_before_op(pid, t);
    RandomScheduler scheduler(t * 19 + 5);
    const LlScElectionReport report =
        run_llsc_election(k, n, scheduler, crashes);
    EXPECT_TRUE(report.consistent) << "t=" << t;
    EXPECT_TRUE(report.valid) << "t=" << t;
    EXPECT_GT(report.run.finished_count(), 0) << "t=" << t;
  }
}

TEST(LlScElectionCrash, LoneSurvivorElectsItself) {
  const int k = 4;
  const int n = 6;
  FaultPlan crashes;
  for (int pid = 0; pid < n - 1; ++pid) crashes.crash_before_op(pid, 0);
  RoundRobinScheduler scheduler;
  const LlScElectionReport report =
      run_llsc_election(k, n, scheduler, crashes);
  ASSERT_TRUE(report.outcomes[n - 1].has_value());
  EXPECT_EQ(report.outcomes[n - 1]->leader, 1000 + n - 1);
}

// ------------------------------------------------------------- real threads

TEST(ConcurrentElection, RealThreadsAgree) {
  for (int trial = 0; trial < 20; ++trial) {
    const ConcurrentElectionReport report = run_concurrent_election(5, 24);
    EXPECT_TRUE(report.consistent) << "trial " << trial;
    EXPECT_GE(report.leader, 1000);
    EXPECT_LT(report.leader, 1024);
  }
}

TEST(ConcurrentElection, FullCapacityK6) {
  const ConcurrentElectionReport report = run_concurrent_election(6, 120);
  EXPECT_TRUE(report.consistent);
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.leader, report.leader);
    EXPECT_LE(outcome.cas_accesses, max_iterations(6));
  }
}

TEST(ConcurrentElection, DomainViolationTrapped) {
  AtomicElectionMemory memory(3);
  EXPECT_THROW(memory.cas(0, 3), InvariantError);
}

}  // namespace
}  // namespace bss::core
