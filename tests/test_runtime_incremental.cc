// The incremental SimEnv API (start/pending/inject/step/finish) — the
// mechanism the Section 3 emulation drives v-processes with — and the
// cooperative-fiber substrate underneath it.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "registers/mwmr_register.h"
#include "runtime/sim_env.h"

namespace bss::sim {
namespace {

TEST(Incremental, PendingOpsVisibleBeforeExecution) {
  SimEnv env;
  MwmrRegister<int> reg("r", 5);
  env.add_process([&](Ctx& ctx) {
    (void)reg.read(ctx);
    reg.write(ctx, 9);
  });
  env.start();
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op, "read");
  EXPECT_EQ(env.pending_of(0).object, "r");
  const TraceEvent first = env.step_process(0);
  EXPECT_EQ(first.desc.op, "read");
  EXPECT_EQ(first.result, 5);
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op, "write");
  EXPECT_EQ(env.pending_of(0).arg0, 9);
  env.step_process(0);
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kFinished);
  env.finish();
  EXPECT_EQ(reg.peek(), 9);
}

TEST(Incremental, InjectionDeliversResults) {
  SimEnv env;
  std::int64_t got = -1;
  env.add_process([&](Ctx& ctx) {
    ctx.sync({"fake", "cas", 0, 1});
    got = ctx.take_injection();
  });
  env.start();
  env.inject(0, 42);
  env.step_process(0);
  env.finish();
  EXPECT_EQ(got, 42);
}

TEST(Incremental, MissingInjectionIsAnError) {
  SimEnv env;
  env.add_process([&](Ctx& ctx) {
    ctx.sync({"fake", "cas", 0, 1});
    (void)ctx.take_injection();  // nothing injected: invariant error
  });
  env.start();
  env.step_process(0);
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kFailed);
  EXPECT_NE(env.error_of(0).find("injected"), std::string::npos);
  env.finish();
}

TEST(Incremental, InjectionIsConsumedPerStep) {
  SimEnv env;
  std::vector<std::int64_t> got;
  env.add_process([&](Ctx& ctx) {
    for (int i = 0; i < 2; ++i) {
      ctx.sync({"fake", "cas", i, i + 1});
      got.push_back(ctx.take_injection());
    }
  });
  env.start();
  env.inject(0, 7);
  env.step_process(0);
  env.inject(0, 8);
  env.step_process(0);
  env.finish();
  EXPECT_EQ(got, (std::vector<std::int64_t>{7, 8}));
}

TEST(Incremental, InterleavesTwoProcessesUnderDriverControl) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> p1_reads;
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reg.write(ctx, 2);
  });
  env.add_process([&](Ctx& ctx) {
    p1_reads.push_back(reg.read(ctx));
    p1_reads.push_back(reg.read(ctx));
  });
  env.start();
  env.step_process(0);  // write 1
  env.step_process(1);  // read -> 1
  env.step_process(0);  // write 2
  env.step_process(1);  // read -> 2
  env.finish();
  EXPECT_EQ(p1_reads, (std::vector<int>{1, 2}));
}

TEST(Incremental, KillUnwindsAParkedProcess) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reg.write(ctx, 2);
  });
  env.start();
  env.step_process(0);
  env.kill_process(0);
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kCrashed);
  env.finish();
  EXPECT_EQ(reg.peek(), 1);
}

TEST(Incremental, FinishKillsEverythingParked) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&](Ctx& ctx) {
      for (int i = 0; i < 100; ++i) reg.write(ctx, i);
    });
  }
  env.start();
  env.step_process(1);
  env.finish();
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_TRUE(env.is_finished(pid));
    EXPECT_EQ(env.outcome_of(pid), ProcOutcome::kCrashed);
  }
}

TEST(Incremental, StepTraceIsRecorded) {
  SimEnv env;
  MwmrRegister<int> reg("r", 3);
  env.add_process([&](Ctx& ctx) { (void)reg.read(ctx); });
  env.start();
  env.step_process(0);
  env.finish();
  ASSERT_EQ(env.trace().size(), 1u);
  EXPECT_EQ(env.trace().events()[0].desc.op, "read");
}

TEST(Incremental, MixedModesRejected) {
  SimEnv env;
  env.add_process([](Ctx&) {});
  env.start();
  RoundRobinScheduler scheduler;
  EXPECT_THROW(env.run(scheduler), bss::InvariantError);
  env.finish();
}

TEST(Incremental, GlobalStepAdvancesWithSteps) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<std::uint64_t> stamps;
  env.add_process([&](Ctx& ctx) {
    stamps.push_back(ctx.global_step());
    reg.write(ctx, 1);
    stamps.push_back(ctx.global_step());
    reg.write(ctx, 2);
    stamps.push_back(ctx.global_step());
  });
  env.start();
  env.step_process(0);
  env.step_process(0);
  env.finish();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_LE(stamps[0], stamps[1]);
  EXPECT_LT(stamps[1], stamps[2]);
}

// ---------------------------------------------------- fiber substrate

/// Counts live instances: a local of a process body whose destructor must
/// run when the body is unwound.
class LiveCounter {
 public:
  explicit LiveCounter(int& live) : live_(&live) { ++*live_; }
  LiveCounter(const LiveCounter&) = delete;
  LiveCounter& operator=(const LiveCounter&) = delete;
  ~LiveCounter() { --*live_; }

 private:
  int* live_;
};

TEST(Fibers, CrashRestartDestroysTheUnwoundIncarnationsLocals) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  int live = 0;
  int entries = 0;
  const auto body = [&](Ctx& ctx) {
    const LiveCounter local(live);
    ++entries;
    reg.write(ctx, ctx.incarnation());
    reg.write(ctx, 10 + ctx.incarnation());
  };
  env.add_process(body, body);
  env.start();
  ASSERT_EQ(live, 1);
  env.step_process(0);
  env.restart_process(0);
  // The first incarnation's local is gone; the second one's is alive.
  EXPECT_EQ(entries, 2);
  EXPECT_EQ(live, 1);
  env.restart_process(0);
  EXPECT_EQ(entries, 3);
  EXPECT_EQ(live, 1);
  env.kill_process(0);
  EXPECT_EQ(live, 0);
  env.finish();
  EXPECT_EQ(reg.peek(), 0);  // only the first incarnation's first write
}

/// Grants the lowest runnable pid until step `fail_at`, then throws — a
/// scheduler bug that aborts run() with every process parked.
class ThrowingScheduler final : public Scheduler {
 public:
  explicit ThrowingScheduler(std::uint64_t fail_at) : fail_at_(fail_at) {}
  int pick(const SchedView& view) override {
    if (view.step == fail_at_) throw std::runtime_error("scheduler bug");
    return view.runnable.front();
  }
  std::string name() const override { return "throwing"; }

 private:
  std::uint64_t fail_at_;
};

TEST(Fibers, DestroyingAnEnvMidRunUnwindsEveryParkedBody) {
  MwmrRegister<int> reg("r", 0);
  int live = 0;
  int unwound = 0;
  {
    SimEnv env;
    for (int pid = 0; pid < 3; ++pid) {
      env.add_process([&](Ctx& ctx) {
        const LiveCounter local(live);
        // Heap state owned by the stack: leak detection reports it if the
        // body is dropped instead of unwound.
        auto buffer = std::make_unique<std::vector<int>>(1024, ctx.pid());
        try {
          for (int i = 0; i < 100; ++i) reg.write(ctx, (*buffer)[0] + i);
        } catch (const ProcessCrashed&) {
          ++unwound;
          throw;
        }
      });
    }
    ThrowingScheduler scheduler(4);
    EXPECT_THROW(env.run(scheduler), std::runtime_error);
    EXPECT_EQ(live, 3);  // all parked, nothing unwound yet
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(unwound, 3);
}

TEST(Fibers, EnvsSteppedAlternatelyOnOneThreadStayIndependent) {
  // Two environments with identical programs over their own registers,
  // stepped in lockstep by one driver (the commutation cross-check and the
  // emulation driver both keep several SimEnvs alive at once).
  constexpr int kEnvs = 2;
  std::vector<std::unique_ptr<SimEnv>> envs;
  std::vector<std::unique_ptr<MwmrRegister<int>>> regs;
  std::vector<std::vector<int>> seen(kEnvs);
  for (int e = 0; e < kEnvs; ++e) {
    envs.push_back(std::make_unique<SimEnv>());
    regs.push_back(std::make_unique<MwmrRegister<int>>("r", 0));
    MwmrRegister<int>& reg = *regs.back();
    std::vector<int>& out = seen[static_cast<std::size_t>(e)];
    const int base = 100 * (e + 1);
    envs.back()->add_process([&reg, base](Ctx& ctx) {
      for (int i = 0; i < 3; ++i) reg.write(ctx, base + i);
    });
    envs.back()->add_process([&reg, &out](Ctx& ctx) {
      for (int i = 0; i < 3; ++i) out.push_back(reg.read(ctx));
    });
    envs.back()->start();
  }
  for (int round = 0; round < 3; ++round) {
    for (int e = 0; e < kEnvs; ++e) {
      SimEnv& env = *envs[static_cast<std::size_t>(e)];
      env.step_process(0);
      env.step_process(1);
    }
  }
  for (int e = 0; e < kEnvs; ++e) {
    SimEnv& env = *envs[static_cast<std::size_t>(e)];
    EXPECT_TRUE(env.is_finished(0) && env.is_finished(1));
    env.finish();
    const int base = 100 * (e + 1);
    EXPECT_EQ(seen[static_cast<std::size_t>(e)],
              (std::vector<int>{base, base + 1, base + 2}));
    EXPECT_EQ(env.snapshot_report().total_steps, 6u);
  }
}

TEST(Fibers, EnvDrivenFromInsideAnotherEnvsProcess) {
  SimEnv outer;
  MwmrRegister<int> outer_reg("outer", 0);
  int inner_result = -1;
  outer.add_process([&](Ctx& ctx) {
    outer_reg.write(ctx, 1);
    // A whole inner run between two of this process's steps, on its fiber.
    SimEnv inner({.record_trace = false});
    MwmrRegister<int> inner_reg("inner", 0);
    inner.add_process([&](Ctx& inner_ctx) { inner_reg.write(inner_ctx, 7); });
    inner.add_process([&](Ctx& inner_ctx) {
      (void)inner_reg.read(inner_ctx);
      inner_result = inner_reg.read(inner_ctx);
    });
    RoundRobinScheduler scheduler;
    EXPECT_TRUE(inner.run(scheduler).clean());
    outer_reg.write(ctx, 2);
  });
  outer.add_process([&](Ctx& ctx) { (void)outer_reg.read(ctx); });
  RoundRobinScheduler scheduler;
  const RunReport report = outer.run(scheduler);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.finished_count(), 2);
  EXPECT_EQ(inner_result, 7);
  EXPECT_EQ(outer_reg.peek(), 2);
}

TEST(Fibers, BackToBackSchedulesReusePooledStacks) {
  // On a fresh thread the pool starts empty: it grows to the peak number of
  // live processes and then only recycles.
  constexpr int kProcesses = 3;
  FiberStackStats during;
  FiberStackStats after;
  std::thread worker([&] {
    for (int run = 0; run < 10'000; ++run) {
      SimEnv env({.record_trace = false});
      MwmrRegister<int> reg("r", 0);
      for (int pid = 0; pid < kProcesses; ++pid) {
        env.add_process([&, pid](Ctx& ctx) {
          reg.write(ctx, pid);
          if (run == 0 && pid == 0) during = fiber_stack_stats();
          (void)reg.read(ctx);
        });
      }
      RoundRobinScheduler scheduler;  // pid 0 moves first: all three live
      (void)env.run(scheduler);
    }
    after = fiber_stack_stats();
  });
  worker.join();
  EXPECT_EQ(during.mapped, static_cast<std::size_t>(kProcesses));
  EXPECT_EQ(during.pooled, 0u);  // every mapped stack is in use
  EXPECT_EQ(after.mapped, static_cast<std::size_t>(kProcesses));
  EXPECT_EQ(after.pooled, static_cast<std::size_t>(kProcesses));
}

TEST(Fibers, ParkInsideACatchHandlerIsRejected) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    try {
      throw std::runtime_error("handled");
    } catch (const std::runtime_error&) {
      reg.write(ctx, 1);  // a switch here would take the handler along
    }
  });
  RoundRobinScheduler scheduler;
  const RunReport report = env.run(scheduler);
  ASSERT_EQ(report.outcomes[0], ProcOutcome::kFailed);
  EXPECT_NE(report.errors[0].find("exception is in flight or being handled"),
            std::string::npos)
      << report.errors[0];
  EXPECT_EQ(reg.peek(), 0);
}

TEST(Fibers, EngineInsideACatchHandlerMayStillDriveProcesses) {
  // The rule is about a process's own handlers: a driver that happens to be
  // handling an exception switches into processes that hold none.
  MwmrRegister<int> reg("r", 0);
  try {
    throw std::runtime_error("driver is handling this");
  } catch (const std::runtime_error&) {
    SimEnv env;
    env.add_process([&](Ctx& ctx) {
      reg.write(ctx, 1);
      reg.write(ctx, 2);
    });
    RoundRobinScheduler scheduler;
    const RunReport report = env.run(scheduler);
    EXPECT_TRUE(report.clean()) << report.summary();
  }
  EXPECT_EQ(reg.peek(), 2);
}

#if defined(__SANITIZE_ADDRESS__)
__attribute__((noinline)) void write_past(volatile char* buffer, int size) {
  for (int i = 0; i <= size; ++i) buffer[i] = 1;  // one past the end
}

TEST(FibersDeathTest, AsanSeesStackOverflowsInsideAParkedBody) {
  // The frame holding `buffer` is parked across two switches before the
  // bad write: its redzones must survive them.
  EXPECT_DEATH(
      {
        SimEnv env;
        MwmrRegister<int> reg("r", 0);
        env.add_process([&](Ctx& ctx) {
          char buffer[16];
          reg.write(ctx, 1);
          reg.write(ctx, 2);
          write_past(buffer, static_cast<int>(sizeof buffer));
        });
        env.add_process([&](Ctx& ctx) { reg.write(ctx, 3); });
        RoundRobinScheduler scheduler;
        (void)env.run(scheduler);
      },
      "stack-buffer-overflow");
}
#endif

}  // namespace
}  // namespace bss::sim
