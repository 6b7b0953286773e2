// The incremental SimEnv API (start/pending/inject/step/finish) — the
// mechanism the Section 3 emulation drives v-processes with — the decision
// entry points applicable()/apply() that run(), the explorer and the audit
// share, and the cooperative-fiber substrate underneath it.
#include <gtest/gtest.h>
#include <unwind.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
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
  EXPECT_EQ(env.pending_of(0).op.view(), "read");
  EXPECT_EQ(env.pending_of(0).object.view(), "r");
  const TraceEvent first = env.step_process(0);
  EXPECT_EQ(first.desc.op.view(), "read");
  EXPECT_EQ(first.result, 5);
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op.view(), "write");
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
    ctx.sync({ObjectName("fake"), "cas", 0, 1});
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
    ctx.sync({ObjectName("fake"), "cas", 0, 1});
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
      ctx.sync({ObjectName("fake"), "cas", i, i + 1});
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
  EXPECT_EQ(env.trace().events()[0].desc.op.view(), "read");
}

TEST(Incremental, MixedModesRejected) {
  SimEnv env;
  env.add_process([](Ctx&) {});
  env.start();
  RoundRobinScheduler scheduler;
  EXPECT_THROW(env.run(scheduler), bss::InvariantError);
  env.finish();
}

TEST(Incremental, AddProcessAfterStartRejected) {
  SimEnv env;
  env.add_process([](Ctx&) {});
  env.start();
  EXPECT_THROW(env.add_process([](Ctx&) {}), bss::InvariantError);
  EXPECT_THROW(env.add_process([](Ctx&) {}, [](Ctx&) {}), bss::InvariantError);
  EXPECT_EQ(env.process_count(), 1);
  EXPECT_TRUE(env.parked_processes().empty());
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

// ------------------------------------------------------------ decisions

TEST(Decisions, ApplicableNeedsAStartedEnvAndAParkedPidInRange) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 1); });
  EXPECT_FALSE(env.applicable(0));  // not started
  env.start();
  EXPECT_TRUE(env.applicable(0));
  EXPECT_TRUE(env.applicable(encode_action(ActionKind::kCrash, 0)));
  for (const ActionKind kind : {ActionKind::kGrant, ActionKind::kCrash,
                                ActionKind::kRestart, ActionKind::kScFailure}) {
    EXPECT_FALSE(env.applicable(encode_action(kind, 1)));  // out of range
    EXPECT_THROW(env.apply(encode_action(kind, 1)), bss::InvariantError);
  }
  EXPECT_FALSE(env.applicable(std::numeric_limits<int>::min()));
  EXPECT_TRUE(env.apply(0));
  ASSERT_TRUE(env.is_finished(0));
  for (const ActionKind kind : {ActionKind::kGrant, ActionKind::kCrash}) {
    EXPECT_FALSE(env.applicable(encode_action(kind, 0)));  // not parked
    EXPECT_THROW(env.apply(encode_action(kind, 0)), bss::InvariantError);
  }
  env.finish();
  EXPECT_FALSE(env.applicable(0));
}

TEST(Decisions, RestartNeedsAHookAndFaultsGrantNoStep) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  const auto body = [&](Ctx& ctx) { reg.write(ctx, ctx.incarnation()); };
  env.add_process(body);        // fail-stop only
  env.add_process(body, body);  // restartable
  env.start();
  const int restart0 = encode_action(ActionKind::kRestart, 0);
  const int restart1 = encode_action(ActionKind::kRestart, 1);
  EXPECT_FALSE(env.applicable(restart0));
  EXPECT_THROW(env.apply(restart0), bss::InvariantError);
  EXPECT_TRUE(env.is_parked(0));
  ASSERT_TRUE(env.applicable(restart1));
  EXPECT_FALSE(env.apply(restart1));  // no shared step granted
  EXPECT_EQ(env.snapshot_report().restarts_by_pid[1], 1);
  EXPECT_TRUE(env.apply(1));
  EXPECT_EQ(reg.peek(), 1);  // written by the second incarnation
  EXPECT_FALSE(env.apply(encode_action(ActionKind::kCrash, 0)));
  EXPECT_EQ(env.outcome_of(0), ProcOutcome::kCrashed);
  EXPECT_EQ(env.trace().size(), 1u);
  EXPECT_EQ(env.snapshot_report().total_steps, 1u);
  env.finish();
}

TEST(Decisions, ScFailureNeedsAPendingStoreConditional) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<bool> failed;
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    for (int i = 0; i < 3; ++i) {
      ctx.sync({ObjectName("x"), "sc", 0, 0});
      if (i != 1) failed.push_back(ctx.take_sc_failure());
    }
  });
  env.start();
  const int fail0 = encode_action(ActionKind::kScFailure, 0);
  EXPECT_FALSE(env.applicable(fail0));  // pending op is a write
  EXPECT_THROW(env.apply(fail0), bss::InvariantError);
  EXPECT_TRUE(env.apply(0));
  ASSERT_TRUE(env.applicable(fail0));
  EXPECT_TRUE(env.apply(fail0));  // a spurious SC is still a granted step
  // The second SC ignores its mark; the mark lapses with the step instead
  // of failing the third SC.
  EXPECT_TRUE(env.apply(fail0));
  EXPECT_TRUE(env.apply(0));
  EXPECT_TRUE(env.is_finished(0));
  EXPECT_EQ(failed, (std::vector<bool>{true, false}));
  EXPECT_EQ(env.trace().size(), 4u);
  env.finish();
}

/// p0 is restartable and writes twice then reads; p1 writes three times;
/// p2 makes two store-conditionals and reports whether each succeeded.
struct ParitySystem {
  MwmrRegister<int> reg{"r", 0};

  void populate(SimEnv& env) {
    const auto p0 = [this](Ctx& ctx) {
      reg.write(ctx, 10 + ctx.incarnation());
      reg.write(ctx, 20 + ctx.incarnation());
      (void)reg.read(ctx);
    };
    env.add_process(p0, p0);
    env.add_process([this](Ctx& ctx) {
      for (int i = 1; i <= 3; ++i) reg.write(ctx, i);
    });
    env.add_process([](Ctx& ctx) {
      for (int i = 0; i < 2; ++i) {
        ctx.sync({ObjectName("x"), "sc", 0, 0});
        ctx.note_result(ctx.take_sc_failure() ? 0 : 1);
      }
    });
  }
};

void expect_same_run(const SimEnv& a, const RunReport& ra, const SimEnv& b,
                     const RunReport& rb) {
  EXPECT_EQ(ra.summary(), rb.summary());
  EXPECT_EQ(ra.step_limit_hit, rb.step_limit_hit);
  EXPECT_EQ(ra.outcomes, rb.outcomes);
  EXPECT_EQ(ra.steps_by_pid, rb.steps_by_pid);
  EXPECT_EQ(ra.restarts_by_pid, rb.restarts_by_pid);
  ASSERT_EQ(a.trace().size(), b.trace().size());
  for (std::size_t i = 0; i < a.trace().size(); ++i) {
    const TraceEvent& x = a.trace().events()[i];
    const TraceEvent& y = b.trace().events()[i];
    EXPECT_EQ(x.step, y.step) << i;
    EXPECT_EQ(x.pid, y.pid) << i;
    EXPECT_EQ(x.desc.object, y.desc.object) << i;
    EXPECT_EQ(x.desc.op, y.desc.op) << i;
    EXPECT_EQ(x.desc.arg0, y.desc.arg0) << i;
    EXPECT_EQ(x.has_result, y.has_result) << i;
    EXPECT_EQ(x.result, y.result) << i;
  }
}

TEST(Decisions, RunMatchesStartPlusApplyOverTheEquivalentTape) {
  // run(): the plan restarts p0 before its op 1, crashes p1 before its op 2
  // and fails p2's second SC; the scheduler replays these picks.
  const std::vector<int> picks = {0, 1, 2, 1, 2, 0, 0, 0};
  ParitySystem run_sys;
  SimEnv by_run;
  run_sys.populate(by_run);
  ReplayScheduler scheduler(picks);
  const RunReport run_report = by_run.run(
      scheduler,
      FaultPlan{}.restart_before_op(0, 1).crash_before_op(1, 2).fail_sc(2, 1));
  EXPECT_EQ(scheduler.divergences(), 0u);
  EXPECT_EQ(by_run.decisions(), picks);

  // The same schedule as one decision tape: each fault fires just before
  // the pick that follows it.
  const int r0 = encode_action(ActionKind::kRestart, 0);
  const int c1 = encode_action(ActionKind::kCrash, 1);
  const int s2 = encode_action(ActionKind::kScFailure, 2);
  const std::vector<int> tape = {0, r0, 1, 2, 1, c1, s2, 0, 0, 0};
  ParitySystem tape_sys;
  SimEnv by_tape;
  tape_sys.populate(by_tape);
  by_tape.start();
  for (const int decision : tape) {
    ASSERT_TRUE(by_tape.applicable(decision)) << decision;
    EXPECT_EQ(by_tape.apply(decision), grants_step(decision)) << decision;
  }
  EXPECT_TRUE(by_tape.parked_processes().empty());
  by_tape.finish();
  const RunReport tape_report = by_tape.snapshot_report();

  expect_same_run(by_run, run_report, by_tape, tape_report);
  EXPECT_EQ(run_report.restarts_by_pid, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(run_report.outcomes[1], ProcOutcome::kCrashed);
  EXPECT_EQ(by_run.trace().for_pid(2).back().result, 0);  // the spurious SC
  EXPECT_EQ(run_sys.reg.peek(), tape_sys.reg.peek());
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

/// Runs a two-process system to its end on the calling thread.
bool fresh_env_runs_clean() {
  SimEnv env({.record_trace = false});
  MwmrRegister<int> reg("fresh", 0);
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 1); });
  env.add_process([&](Ctx& ctx) { (void)reg.read(ctx); });
  RoundRobinScheduler scheduler;
  return env.run(scheduler).clean();
}

TEST(Fibers, CrashHandlersThatRethrowLeaveTheRuntimeBalanced) {
  // Every way a parked process is crashed, into bodies that catch the crash
  // by type or with catch (...) and rethrow, from an engine that is itself
  // handling an exception.  The C++ runtime's per-thread exception state
  // must come back exactly as it was, round after round.
  MwmrRegister<int> reg("r", 0);
  int live = 0;
  int handled = 0;
  const auto by_type = [&](Ctx& ctx) {
    const LiveCounter local(live);
    try {
      for (int v = 0;; ++v) reg.write(ctx, v);
    } catch (const ProcessCrashed&) {
      ++handled;
      throw;
    }
  };
  const auto by_any = [&](Ctx& ctx) {
    const LiveCounter local(live);
    try {
      for (;;) (void)reg.read(ctx);
    } catch (...) {
      ++handled;
      throw;
    }
  };
  for (int round = 0; round < 1000; ++round) {
    try {
      throw std::runtime_error("the engine is handling this");
    } catch (const std::runtime_error&) {
      SimEnv env({.record_trace = false});
      env.add_process(by_type, by_type);
      env.add_process(by_any);
      env.add_process(by_type);
      env.add_process(by_any, by_any);
      env.start();
      env.restart_process(0);
      env.kill_process(1);
      env.restart_process(3);
      env.step_process(0);
      env.finish();  // pids 0, 2 and 3
      ASSERT_EQ(env.snapshot_report().crashed_count(), 4);
      ASSERT_EQ(env.snapshot_report().restarts_by_pid,
                (std::vector<int>{1, 0, 0, 1}));
    }
    ASSERT_EQ(std::uncaught_exceptions(), 0) << "round " << round;
    ASSERT_EQ(std::current_exception(), nullptr) << "round " << round;
    ASSERT_EQ(live, 0) << "round " << round;
    ASSERT_TRUE(fresh_env_runs_clean()) << "round " << round;
  }
  EXPECT_EQ(handled, 6 * 1000);
}

TEST(Fibers, ACrashHandlerMayCrashTheProcessesOfAnInnerEnv) {
  // Two crashes in flight on one thread: the outer body's handler finishes
  // an env it drives, whose bodies catch and rethrow their own crash.
  MwmrRegister<int> reg("r", 0);
  int live = 0;
  int handled = 0;
  for (int round = 0; round < 100; ++round) {
    SimEnv outer({.record_trace = false});
    outer.add_process([&](Ctx& ctx) {
      SimEnv inner({.record_trace = false});
      for (int pid = 0; pid < 2; ++pid) {
        inner.add_process([&](Ctx& inner_ctx) {
          const LiveCounter local(live);
          try {
            for (;;) (void)reg.read(inner_ctx);
          } catch (const ProcessCrashed&) {
            ++handled;
            throw;
          }
        });
      }
      inner.start();
      try {
        reg.write(ctx, 1);
      } catch (const ProcessCrashed&) {
        inner.kill_process(0);
        ++handled;
        throw;
      }
      // ~SimEnv crashes inner pid 1 while the outer crash unwinds.
    });
    outer.start();
    ASSERT_EQ(live, 2);
    outer.finish();
    ASSERT_EQ(outer.outcome_of(0), ProcOutcome::kCrashed);
    ASSERT_EQ(live, 0);
    ASSERT_EQ(std::uncaught_exceptions(), 0);
    ASSERT_EQ(std::current_exception(), nullptr);
    ASSERT_TRUE(fresh_env_runs_clean());
  }
  EXPECT_EQ(handled, 3 * 100);
}

/// A body local whose destructor writes a register: it would park in the
/// middle of its own process's crash.
class ParksWhenDestroyed {
 public:
  ParksWhenDestroyed(Ctx& ctx, MwmrRegister<int>& reg)
      : ctx_(&ctx), reg_(&reg) {}
  ParksWhenDestroyed(const ParksWhenDestroyed&) = delete;
  ParksWhenDestroyed& operator=(const ParksWhenDestroyed&) = delete;
  ~ParksWhenDestroyed() { reg_->write(*ctx_, 2); }

 private:
  Ctx* ctx_;
  MwmrRegister<int>* reg_;
};

/// Crashes a process parked with a ParksWhenDestroyed local, through
/// kill_process or finish().
void crash_a_parking_destructor(bool by_finish) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    const ParksWhenDestroyed local(ctx, reg);
    reg.write(ctx, 1);
  });
  env.start();
  if (by_finish) {
    env.finish();
  } else {
    env.kill_process(0);
  }
}

TEST(FibersDeathTest, ADestructorMayNotParkWhileItsProcessIsCrashed) {
  // The C++ runtime does not count a crash's unwind as an exception in
  // flight, so the park guard has to know about crashes itself.
  EXPECT_DEATH(crash_a_parking_destructor(false), "may not park");
  EXPECT_DEATH(crash_a_parking_destructor(true), "may not park");
}

TEST(FibersDeathTest, ABodyThatSwallowsItsCrashTerminates) {
  EXPECT_DEATH(
      {
        SimEnv env;
        MwmrRegister<int> reg("r", 0);
        env.add_process([&](Ctx& ctx) {
          try {
            reg.write(ctx, 1);
          } catch (...) {
          }
        });
        env.start();
        env.finish();
      },
      "swallowed ProcessCrashed");
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

__attribute__((noinline)) bool frame_is_16_byte_aligned() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) % 16 ==
         0;
}

TEST(Fibers, FloatingPointControlStateStaysWithItsContext) {
  // The rounding mode lives in MXCSR and the x87 control word; a switch
  // must carry both, and land every fiber on an ABI-aligned stack.
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  volatile double one = 1.0;
  volatile double three = 3.0;
  bool aligned_at_entry = false;
  bool aligned_after_park = false;
  int mode_after_park = -1;
  double third_after_park = 0.0;
  char printed[16] = {};
  env.add_process([&](Ctx& ctx) {
    aligned_at_entry = frame_is_16_byte_aligned();
    std::fesetround(FE_UPWARD);
    reg.write(ctx, 1);
    aligned_after_park = frame_is_16_byte_aligned();
    mode_after_park = std::fegetround();
    third_after_park = one / three;
    std::snprintf(printed, sizeof printed, "%.3f", 1.0 / 3);
  });
  env.start();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, 1.0 / 3);  // SSE division rounds to nearest
  env.step_process(0);
  ASSERT_TRUE(env.is_finished(0));
  env.finish();
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_TRUE(aligned_at_entry);
  EXPECT_TRUE(aligned_after_park);
  EXPECT_EQ(mode_after_park, FE_UPWARD);
  EXPECT_GT(third_after_park, 1.0 / 3);  // rounded up, in the fiber's MXCSR
  EXPECT_STREQ(printed, "0.334");
}

struct Backtrace {
  std::uintptr_t low = 0;   ///< every frame of the walk lies at or above
  std::uintptr_t high = 0;  ///< this, and below this
  int frames = 0;
  bool left_the_stack = false;
};

_Unwind_Reason_Code count_frame(_Unwind_Context* context, void* arg) {
  auto& trace = *static_cast<Backtrace*>(arg);
  const std::uintptr_t cfa = _Unwind_GetCFA(context);
  if (cfa < trace.low || cfa >= trace.high) trace.left_the_stack = true;
  // A walk that runs away ends here instead of in a crash.
  return ++trace.frames < 64 ? _URC_NO_REASON : _URC_NORMAL_STOP;
}

/// Walks the calling fiber's stack.  No frame on a stack of `stack_bytes`
/// lies farther than that from this one.
__attribute__((noinline)) _Unwind_Reason_Code walk_own_stack(
    Backtrace& trace, std::uintptr_t stack_bytes) {
  const auto here =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  trace.low = here - stack_bytes;
  trace.high = here + stack_bytes;
  return _Unwind_Backtrace(&count_frame, &trace);
}

TEST(Fibers, BacktraceFromAParkedBodyEndsOnItsOwnStack) {
  // The fiber's bottom frame must end the unwind: nothing above it on the
  // fiber's stack is a caller, and the engine's frames are another stack.
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  Backtrace trace;
  _Unwind_Reason_Code reason = _URC_NO_REASON;
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reason = walk_own_stack(trace, std::uintptr_t{1} << 20);
  });
  env.start();
  env.step_process(0);
  env.finish();
  EXPECT_EQ(reason, _URC_END_OF_STACK);
  EXPECT_GE(trace.frames, 2);
  EXPECT_LE(trace.frames, 16);
  EXPECT_FALSE(trace.left_the_stack);
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
