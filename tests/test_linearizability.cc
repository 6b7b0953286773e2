#include <gtest/gtest.h>

#include "hierarchy/universal.h"
#include "registers/snapshot.h"
#include "runtime/linearizability.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::sim {
namespace {

// ---------------------------------------------------------- checker itself

TEST(Linearizability, AcceptsSequentialHistory) {
  std::vector<IntervalOp> history{
      {0, 0, 0, {}, {0}},
      {0, 1, 1, {}, {1}},
      {1, 2, 2, {}, {2}},
  };
  const auto result = check_linearizable(history, fetch_increment_spec());
  EXPECT_TRUE(result.linearizable);
  EXPECT_EQ(result.witness_order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Linearizability, ReordersOverlappingOps) {
  // Two overlapping increments whose responses force the reverse order.
  std::vector<IntervalOp> history{
      {0, 0, 10, {}, {1}},  // started first but got ticket 1
      {1, 1, 2, {}, {0}},   // nested inside, got ticket 0
  };
  const auto result = check_linearizable(history, fetch_increment_spec());
  EXPECT_TRUE(result.linearizable);
  EXPECT_EQ(result.witness_order, (std::vector<std::size_t>{1, 0}));
}

TEST(Linearizability, RejectsRealTimeViolation) {
  // op0 strictly precedes op1 in real time, yet op1 got the earlier ticket.
  std::vector<IntervalOp> history{
      {0, 0, 1, {}, {1}},
      {1, 5, 6, {}, {0}},
  };
  const auto result = check_linearizable(history, fetch_increment_spec());
  EXPECT_FALSE(result.linearizable);
  EXPECT_FALSE(result.detail.empty());
}

TEST(Linearizability, RejectsDuplicateTickets) {
  std::vector<IntervalOp> history{
      {0, 0, 3, {}, {0}},
      {1, 1, 4, {}, {0}},
  };
  EXPECT_FALSE(check_linearizable(history, fetch_increment_spec()).linearizable);
}

TEST(Linearizability, QueueSpecSemantics) {
  std::vector<IntervalOp> history{
      {0, 0, 1, {1 + 7}, {0}},  // enqueue 7
      {1, 2, 3, {0}, {7}},      // dequeue -> 7
      {1, 4, 5, {0}, {-1}},     // dequeue empty
  };
  EXPECT_TRUE(check_linearizable(history, fifo_queue_spec()).linearizable);
  // Dequeue of a value never enqueued:
  history[1].response = {9};
  EXPECT_FALSE(check_linearizable(history, fifo_queue_spec()).linearizable);
}

// ------------------------------------------- real executions, checked

// Records every snapshot scan/update as an interval op.
TEST(Linearizability, SnapshotScansAreLinearizable) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    constexpr int kComponents = 3;
    AtomicSnapshot snapshot("s", kComponents);
    SimEnv env;
    std::vector<IntervalOp> history;
    // Writers: each updates its own component with increasing values.
    for (int w = 0; w < kComponents; ++w) {
      env.add_process([&, w](Ctx& ctx) {
        for (int round = 1; round <= 3; ++round) {
          const std::uint64_t start = ctx.global_step();
          snapshot.update(ctx, w, round);
          history.push_back(
              {ctx.pid(), start, ctx.global_step(), {w, round}, {}});
        }
      });
    }
    // A scanner.
    env.add_process([&](Ctx& ctx) {
      for (int round = 0; round < 4; ++round) {
        const std::uint64_t start = ctx.global_step();
        const auto view = snapshot.scan(ctx);
        history.push_back({ctx.pid(), start, ctx.global_step(), {}, view});
      }
    });
    RandomScheduler scheduler(seed);
    const auto report = env.run(scheduler);
    ASSERT_TRUE(report.clean());
    const auto result =
        check_linearizable(history, snapshot_spec(kComponents));
    EXPECT_TRUE(result.linearizable)
        << "seed " << seed << ": " << result.detail;
  }
}

TEST(Linearizability, UniversalCounterIsLinearizable) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    constexpr int kProcs = 4;
    bss::hierarchy::UniversalObject counter(
        "counter", bss::hierarchy::counter_spec(), kProcs, kProcs * 4);
    SimEnv env;
    std::vector<IntervalOp> history;
    for (int pid = 0; pid < kProcs; ++pid) {
      env.add_process([&](Ctx& ctx) {
        for (int i = 0; i < 4; ++i) {
          const std::uint64_t start = ctx.global_step();
          const std::int64_t ticket = counter.invoke(ctx, 0);
          history.push_back({ctx.pid(), start, ctx.global_step(), {}, {ticket}});
        }
      });
    }
    RandomScheduler scheduler(100 + seed);
    const auto report = env.run(scheduler);
    ASSERT_TRUE(report.clean());
    const auto result = check_linearizable(history, fetch_increment_spec());
    EXPECT_TRUE(result.linearizable)
        << "seed " << seed << ": " << result.detail;
  }
}

TEST(Linearizability, UniversalQueueIsLinearizable) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    constexpr int kProcs = 3;
    bss::hierarchy::UniversalObject queue(
        "queue", bss::hierarchy::queue_spec(), kProcs, kProcs * 4);
    SimEnv env;
    std::vector<IntervalOp> history;
    for (int pid = 0; pid < kProcs; ++pid) {
      env.add_process([&, pid](Ctx& ctx) {
        for (int i = 0; i < 2; ++i) {
          const std::int64_t op = 1 + pid * 10 + i;  // enqueue
          const std::uint64_t start = ctx.global_step();
          const std::int64_t response = queue.invoke(ctx, op);
          history.push_back(
              {ctx.pid(), start, ctx.global_step(), {op}, {response}});
        }
        for (int i = 0; i < 2; ++i) {
          const std::uint64_t start = ctx.global_step();
          const std::int64_t response = queue.invoke(ctx, 0);  // dequeue
          history.push_back(
              {ctx.pid(), start, ctx.global_step(), {0}, {response}});
        }
      });
    }
    RandomScheduler scheduler(300 + seed);
    const auto report = env.run(scheduler);
    ASSERT_TRUE(report.clean());
    const auto result = check_linearizable(history, fifo_queue_spec());
    EXPECT_TRUE(result.linearizable)
        << "seed " << seed << ": " << result.detail;
  }
}

// A deliberately broken "snapshot" (two independent reads, no double
// collect) must FAIL the checker on some schedule — the checker is not a
// rubber stamp.
TEST(Linearizability, NaiveCollectIsCaught) {
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 64 && !caught; ++seed) {
    constexpr int kComponents = 2;
    // Plain registers, read one after another without validation.
    SimEnv env;
    std::vector<std::int64_t> reg(kComponents, 0);
    std::vector<IntervalOp> history;
    // Writer bumps both components to the SAME value, one write at a time.
    env.add_process([&](Ctx& ctx) {
      for (int round = 1; round <= 3; ++round) {
        for (int component = 0; component < kComponents; ++component) {
          const std::uint64_t start = ctx.global_step();
          ctx.sync({ObjectName("reg"), "write", component, round});
          reg[static_cast<std::size_t>(component)] = round;
          history.push_back(
              {ctx.pid(), start, ctx.global_step(), {component, round}, {}});
        }
      }
    });
    env.add_process([&](Ctx& ctx) {
      for (int round = 0; round < 3; ++round) {
        const std::uint64_t start = ctx.global_step();
        std::vector<std::int64_t> view;
        for (int component = 0; component < kComponents; ++component) {
          ctx.sync({ObjectName("reg"), "read", component, 0});
          view.push_back(reg[static_cast<std::size_t>(component)]);
        }
        history.push_back({ctx.pid(), start, ctx.global_step(), {}, view});
      }
    });
    RandomScheduler scheduler(seed);
    env.run(scheduler);
    const auto result =
        check_linearizable(history, snapshot_spec(kComponents));
    if (!result.linearizable) caught = true;
  }
  EXPECT_TRUE(caught) << "naive collect never produced a torn view in 64 runs";
}

}  // namespace
}  // namespace bss::sim
