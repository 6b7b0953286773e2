#include <gtest/gtest.h>

#include "burns/burns_election.h"
#include "checker/consensus_check.h"

namespace bss::burns {
namespace {

using sim::FaultPlan;
using sim::RandomScheduler;
using sim::RoundRobinScheduler;

std::vector<std::vector<int>> identity_inputs(int n) {
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) inputs[static_cast<std::size_t>(pid)] = pid;
  return {inputs};
}

TEST(BurnsSingle, ElectsAmongKMinusOne) {
  for (int k = 2; k <= 8; ++k) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      RandomScheduler scheduler(seed * 31 + static_cast<std::uint64_t>(k));
      const SingleReport report =
          run_single_register_election(k, k - 1, scheduler);
      EXPECT_TRUE(report.consistent) << "k=" << k << " seed=" << seed;
      EXPECT_EQ(report.run.finished_count(), k - 1);
    }
  }
}

TEST(BurnsSingle, ExactlyOneOpPerProcess) {
  RoundRobinScheduler scheduler;
  const SingleReport report = run_single_register_election(6, 5, scheduler);
  for (const auto steps : report.run.steps_by_pid) EXPECT_EQ(steps, 1u);
}

TEST(BurnsSingle, LeaderParticipated) {
  // Participation validity: the elected pid took a step (is uncrashed or
  // crashed *after* claiming).  Crash half the field before their only op.
  const int k = 7;
  FaultPlan crashes;
  crashes.crash_before_op(0, 0);
  crashes.crash_before_op(2, 0);
  crashes.crash_before_op(4, 0);
  RandomScheduler scheduler(3);
  const SingleReport report =
      run_single_register_election(k, 6, scheduler, crashes);
  EXPECT_TRUE(report.consistent);
  for (const auto& elected : report.elected) {
    if (elected.has_value()) {
      // The winner is one of the survivors 1, 3, 5.
      EXPECT_TRUE(*elected == 1 || *elected == 3 || *elected == 5)
          << *elected;
    }
  }
}

TEST(BurnsSingle, RejectsOverCapacity) {
  RoundRobinScheduler scheduler;
  EXPECT_THROW(run_single_register_election(4, 4, scheduler), InvariantError);
}

TEST(BurnsMulti, CapacityIsTheProduct) {
  EXPECT_EQ(MultiState({3, 3}).capacity(), 4u);
  EXPECT_EQ(MultiState({4, 3, 2}).capacity(), 6u);
  EXPECT_EQ(MultiState({5}).capacity(), 4u);
}

TEST(BurnsMulti, ElectsAtFullCapacity) {
  for (const auto& sizes :
       std::vector<std::vector<int>>{{3, 3}, {4, 3}, {2, 2, 2}, {5, 4}}) {
    MultiState probe(sizes);
    const int n = static_cast<int>(probe.capacity());
    RandomScheduler scheduler(17);
    const MultiReport report =
        run_multi_register_election(sizes, n, scheduler);
    EXPECT_TRUE(report.consistent);
    EXPECT_EQ(report.run.finished_count(), n);
    // Closed-model validity: the leader is a designated id.
    for (const auto& elected : report.elected) {
      ASSERT_TRUE(elected.has_value());
      EXPECT_LT(*elected, probe.capacity());
    }
  }
}

TEST(BurnsMulti, OneOpPerRegisterPerProcess) {
  RoundRobinScheduler scheduler;
  const MultiReport report = run_multi_register_election({3, 4, 3}, 10, scheduler);
  for (const auto steps : report.run.steps_by_pid) EXPECT_EQ(steps, 3u);
}

TEST(BurnsMulti, ConsistentUnderCrashes) {
  // Crashed processes may leave some registers unclaimed; survivors still
  // agree (each register's settled value is common knowledge after one op).
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    FaultPlan crashes = FaultPlan::random_crashes(8, 0.4, 3, rng);
    RandomScheduler scheduler(100 + static_cast<std::uint64_t>(trial));
    const MultiReport report =
        run_multi_register_election({3, 3, 3}, 8, scheduler, crashes);
    EXPECT_TRUE(report.consistent) << "trial " << trial;
  }
}

// ------------------------------------------------------------- the bound

TEST(BurnsBound, CheckerCertifiesUpToKMinusOne) {
  for (int k = 3; k <= 6; ++k) {
    BurnsProtocol protocol(k - 1, k);
    const auto result =
        check::check_consensus(protocol, identity_inputs(k - 1));
    EXPECT_TRUE(result.solves) << "k=" << k << ": " << result.detail;
  }
}

TEST(BurnsBound, CheckerRefutesNEqualsK) {
  for (int k = 3; k <= 6; ++k) {
    BurnsProtocol protocol(k, k);
    const auto result = check::check_consensus(protocol, identity_inputs(k));
    EXPECT_FALSE(result.solves) << "k=" << k;
    EXPECT_EQ(result.violation, check::Violation::kAgreement)
        << result.detail;
  }
}

}  // namespace
}  // namespace bss::burns
