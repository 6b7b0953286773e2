#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hierarchy/set_consensus.h"
#include "hierarchy/table.h"
#include "hierarchy/universal.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::hierarchy {
namespace {

using sim::Ctx;
using sim::FaultPlan;
using sim::RandomScheduler;
using sim::RoundRobinScheduler;
using sim::SimEnv;

TEST(Universal, CounterHandsOutDistinctTickets) {
  constexpr int kProcs = 5;
  constexpr int kOpsEach = 4;
  UniversalObject counter("counter", counter_spec(), kProcs,
                          kProcs * kOpsEach);
  SimEnv env;
  std::vector<std::int64_t> tickets;
  for (int pid = 0; pid < kProcs; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      (void)pid;
      for (int i = 0; i < kOpsEach; ++i) tickets.push_back(counter.invoke(ctx, 0));
    });
  }
  RandomScheduler scheduler(99);
  const auto report = env.run(scheduler);
  ASSERT_TRUE(report.clean()) << report.summary();
  // fetch-and-increment: responses are exactly 0..N-1, each once.
  std::sort(tickets.begin(), tickets.end());
  ASSERT_EQ(tickets.size(), static_cast<std::size_t>(kProcs * kOpsEach));
  for (int i = 0; i < kProcs * kOpsEach; ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(counter.log_length(), kProcs * kOpsEach);
}

TEST(Universal, QueueIsFifoPerTotalOrder) {
  constexpr int kProcs = 3;
  UniversalObject queue("queue", queue_spec(), kProcs, 30);
  SimEnv env;
  std::vector<std::int64_t> dequeued;
  for (int pid = 0; pid < kProcs; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      for (int i = 0; i < 3; ++i) {
        queue.invoke(ctx, 1 + pid * 10 + i);  // enqueue pid*10+i
      }
      for (int i = 0; i < 3; ++i) {
        const std::int64_t value = queue.invoke(ctx, 0);  // dequeue
        if (value >= 0) dequeued.push_back(value);
      }
    });
  }
  RandomScheduler scheduler(7);
  const auto report = env.run(scheduler);
  ASSERT_TRUE(report.clean()) << report.summary();
  // Every dequeued value is distinct and was enqueued by someone.
  std::set<std::int64_t> seen(dequeued.begin(), dequeued.end());
  EXPECT_EQ(seen.size(), dequeued.size());
  for (const auto value : dequeued) {
    EXPECT_GE(value % 10, 0);
    EXPECT_LT(value % 10, 3);
    EXPECT_LT(value / 10, kProcs);
  }
}

TEST(Universal, HelpingBoundsPlacementDistance) {
  // Wait-freedom mechanism: within ~n cells of announcing, the round-robin
  // helpers place your operation.
  constexpr int kProcs = 4;
  UniversalObject counter("counter", counter_spec(), kProcs, kProcs * 6);
  SimEnv env;
  for (int pid = 0; pid < kProcs; ++pid) {
    env.add_process([&](Ctx& ctx) {
      for (int i = 0; i < 6; ++i) (void)counter.invoke(ctx, 0);
    });
  }
  RandomScheduler scheduler(3);
  const auto report = env.run(scheduler);
  ASSERT_TRUE(report.clean());
  for (int pid = 0; pid < kProcs; ++pid) {
    for (const int distance : counter.placement_distances(pid)) {
      EXPECT_LE(distance, 2 * kProcs);
    }
  }
}

TEST(Universal, SurvivesCrashes) {
  // Crashed processes leave announced ops behind; survivors may or may not
  // place them, but survivors' own invocations must still complete.
  constexpr int kProcs = 4;
  UniversalObject counter("counter", counter_spec(), kProcs, kProcs * 5);
  SimEnv env;
  std::vector<std::vector<std::int64_t>> results(kProcs);
  for (int pid = 0; pid < kProcs; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      for (int i = 0; i < 5; ++i) {
        results[static_cast<std::size_t>(pid)].push_back(
            counter.invoke(ctx, 0));
      }
    });
  }
  FaultPlan crashes;
  crashes.crash_before_op(1, 6);
  crashes.crash_before_op(3, 2);
  RandomScheduler scheduler(11);
  const auto report = env.run(scheduler, crashes);
  EXPECT_EQ(report.outcomes[0], sim::ProcOutcome::kFinished);
  EXPECT_EQ(report.outcomes[2], sim::ProcOutcome::kFinished);
  // Survivors got 5 responses each, all distinct across the object.
  std::set<std::int64_t> all;
  for (const auto& per_proc : results) {
    for (const auto value : per_proc) EXPECT_TRUE(all.insert(value).second);
  }
  EXPECT_EQ(results[0].size(), 5u);
  EXPECT_EQ(results[2].size(), 5u);
}

TEST(Universal, CapacityExhaustionTrapped) {
  UniversalObject counter("counter", counter_spec(), 1, 2);
  SimEnv env;
  env.add_process([&](Ctx& ctx) {
    counter.invoke(ctx, 0);
    counter.invoke(ctx, 0);
    counter.invoke(ctx, 0);  // third op: past capacity
  });
  RoundRobinScheduler scheduler;
  const auto report = env.run(scheduler);
  EXPECT_EQ(report.outcomes[0], sim::ProcOutcome::kFailed);
  EXPECT_NE(report.errors[0].find("capacity"), std::string::npos);
}

TEST(HierarchyTable, RowsMatchTheKnownHierarchy) {
  const auto rows = build_hierarchy_table();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].object, "read/write registers");
  EXPECT_EQ(rows[0].consensus_number, "1");
  EXPECT_EQ(rows[1].consensus_number, "2");  // test&set
  EXPECT_EQ(rows[2].consensus_number, "2");  // swap
  EXPECT_NE(rows[3].consensus_number.find("k-1"), std::string::npos);
  EXPECT_EQ(rows[4].consensus_number, "inf");
  EXPECT_EQ(rows[5].consensus_number, "inf");
  const std::string rendered = render_hierarchy_table(rows);
  EXPECT_NE(rendered.find("test&set"), std::string::npos);
  EXPECT_NE(rendered.find("swap"), std::string::npos);
  EXPECT_NE(rendered.find("compare&swap"), std::string::npos);
}

// ------------------------------------------------------------ set consensus

TEST(SetConsensus, PartitionBoundsDistinctDecisions) {
  for (const auto& [n, l] : {std::pair{6, 2}, {6, 3}, {9, 3}, {5, 1}}) {
    std::vector<std::int64_t> inputs;
    for (int pid = 0; pid < n; ++pid) inputs.push_back(100 + pid);
    sim::RandomScheduler scheduler(static_cast<std::uint64_t>(n * 31 + l));
    const auto report =
        run_partition_set_consensus(n, l, inputs, scheduler);
    EXPECT_TRUE(report.valid) << "n=" << n << " l=" << l;
    EXPECT_LE(report.distinct_decisions, l);
    EXPECT_GT(report.distinct_decisions, 0);
    EXPECT_EQ(report.run.finished_count(), n);
  }
}

TEST(SetConsensus, PartitionIsCrashTolerant) {
  std::vector<std::int64_t> inputs{10, 11, 12, 13, 14, 15};
  sim::FaultPlan crashes;
  crashes.crash_before_op(0, 0);
  crashes.crash_before_op(3, 0);  // bodies take a single step: die before it
  sim::RandomScheduler scheduler(8);
  const auto report =
      run_partition_set_consensus(6, 2, inputs, scheduler, crashes);
  EXPECT_TRUE(report.valid);
  EXPECT_LE(report.distinct_decisions, 2);
  EXPECT_EQ(report.run.finished_count(), 4);
}

TEST(SetConsensus, TrivialRegisterOnlyProtocolIsNSet) {
  std::vector<std::int64_t> inputs{7, 7, 9, 4};
  sim::RoundRobinScheduler scheduler;
  const auto report = run_trivial_set_consensus(4, inputs, scheduler);
  EXPECT_TRUE(report.valid);
  EXPECT_LE(report.distinct_decisions, 4);
  // Everyone decides its own input: 3 distinct values here.
  EXPECT_EQ(report.distinct_decisions, 3);
}

TEST(SetConsensus, OneSetIsConsensus) {
  std::vector<std::int64_t> inputs{42, 43, 44};
  sim::RandomScheduler scheduler(5);
  const auto report = run_partition_set_consensus(3, 1, inputs, scheduler);
  EXPECT_EQ(report.distinct_decisions, 1);
  EXPECT_TRUE(report.valid);
}

}  // namespace
}  // namespace bss::hierarchy
