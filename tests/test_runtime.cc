#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/election_validator.h"
#include "core/sim_election.h"
#include "registers/mwmr_register.h"
#include "registers/swmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/names.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::sim {
namespace {

TEST(SimEnv, RunsSingleProcessToCompletion) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  int observed = -1;
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 41);
    observed = reg.read(ctx) + 1;
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.finished_count(), 1);
  EXPECT_EQ(observed, 42);
  EXPECT_EQ(report.total_steps, 2u);
}

TEST(SimEnv, ProcessWithNoSharedOpsFinishes) {
  SimEnv env;
  bool ran = false;
  env.add_process([&](Ctx&) { ran = true; });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(ran);
  EXPECT_EQ(report.total_steps, 0u);
}

TEST(SimEnv, DeterministicUnderSameScheduler) {
  const auto run_once = [](std::uint64_t seed) {
    SimEnv env;
    MwmrRegister<int> reg("r", 0);
    std::vector<int> reads;
    for (int pid = 0; pid < 4; ++pid) {
      env.add_process([&, pid](Ctx& ctx) {
        reg.write(ctx, pid);
        reads.push_back(reg.read(ctx));
      });
    }
    RandomScheduler sched(seed);
    env.run(sched);
    return reads;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  // Different seeds usually produce different interleavings; do not assert
  // inequality (it is not guaranteed), just that both complete.
  EXPECT_EQ(run_once(6).size(), 4u);
}

TEST(SimEnv, ReplayReproducesDecisions) {
  std::vector<int> first_decisions;
  std::vector<int> first_reads;
  {
    SimEnv env;
    MwmrRegister<int> reg("r", 0);
    for (int pid = 0; pid < 3; ++pid) {
      env.add_process([&, pid](Ctx& ctx) {
        reg.write(ctx, pid);
        first_reads.push_back(reg.read(ctx));
      });
    }
    RandomScheduler sched(17);
    env.run(sched);
    first_decisions = env.decisions();
  }
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  std::vector<int> replay_reads;
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      reg.write(ctx, pid);
      replay_reads.push_back(reg.read(ctx));
    });
  }
  ReplayScheduler sched(first_decisions);
  env.run(sched);
  EXPECT_EQ(replay_reads, first_reads);
  EXPECT_EQ(env.decisions(), first_decisions);
}

TEST(SimEnv, TraceRecordsOperationsInOrder) {
  SimEnv env;
  MwmrRegister<int> reg("reg", 7);
  env.add_process([&](Ctx& ctx) {
    (void)reg.read(ctx);
    reg.write(ctx, 9);
  });
  RoundRobinScheduler sched;
  env.run(sched);
  const auto& events = env.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].desc.op.view(), "read");
  EXPECT_TRUE(events[0].has_result);
  EXPECT_EQ(events[0].result, 7);
  EXPECT_EQ(events[1].desc.op.view(), "write");
  EXPECT_EQ(events[1].desc.arg0, 9);
  EXPECT_EQ(events[0].step, 0u);
  EXPECT_EQ(events[1].step, 1u);
}

TEST(SimEnv, CrashPlanKillsBeforeOp) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    reg.write(ctx, 2);  // never reached: crash before op 1
  });
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 3); });
  FaultPlan crashes;
  crashes.crash_before_op(0, 1);
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, crashes);
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kCrashed);
  EXPECT_EQ(report.outcomes[1], ProcOutcome::kFinished);
  EXPECT_NE(reg.peek(), 2);
}

TEST(SimEnv, CrashBeforeFirstOpMeansNoSteps) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 1); });
  FaultPlan crashes;
  crashes.crash_before_op(0, 0);
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched, crashes);
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kCrashed);
  EXPECT_EQ(report.total_steps, 0u);
  EXPECT_EQ(reg.peek(), 0);
}

TEST(SimEnv, ProcessExceptionReportedAsFailure) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    reg.write(ctx, 1);
    throw std::runtime_error("intentional test failure");
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.outcomes[0], ProcOutcome::kFailed);
  EXPECT_NE(report.errors[0].find("intentional"), std::string::npos);
}

TEST(SimEnv, StepLimitTerminatesSpinners) {
  SimEnv env({.step_limit = 50});
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {
    for (;;) (void)reg.read(ctx);  // deliberately non-wait-free
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.step_limit_hit);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total_steps, 50u);
}

TEST(SimEnv, SoloSchedulerRunsLowestPidFirst) {
  SimEnv env;
  MwmrRegister<int> reg("r", -1);
  std::vector<int> order;
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](Ctx& ctx) {
      reg.write(ctx, pid);
      order.push_back(pid);
    });
  }
  SoloScheduler sched;
  env.run(sched);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimEnv, ManyProcessesInterleaveAndFinish) {
  constexpr int kProcs = 64;
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  env.add_process([&](Ctx& ctx) {  // pid 0 also participates
    for (int i = 0; i < 10; ++i) (void)reg.read(ctx);
  });
  for (int pid = 1; pid < kProcs; ++pid) {
    env.add_process([&](Ctx& ctx) {
      for (int i = 0; i < 10; ++i) reg.write(ctx, i);
    });
  }
  RandomScheduler sched(3);
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.finished_count(), kProcs);
  EXPECT_EQ(report.total_steps, static_cast<std::uint64_t>(kProcs) * 10);
}

TEST(Scheduler, CasConvoyPrefersNonCas) {
  // One process about to cas, one about to read: convoy must pick the read.
  ProcView p0{
      .pid = 0, .ready = true, .pending = {ObjectName("c"), "cas", 0, 1}};
  ProcView p1{
      .pid = 1, .ready = true, .pending = {ObjectName("r"), "read", 0, 0}};
  std::vector<ProcView> procs{p0, p1};
  std::vector<int> runnable{0, 1};
  CasConvoyScheduler sched(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sched.pick({0, runnable, procs}), 1);
  }
}

TEST(Scheduler, ExactReplayHasZeroDivergences) {
  std::vector<int> decisions;
  const auto build = [](SimEnv& env, MwmrRegister<int>& reg) {
    for (int pid = 0; pid < 3; ++pid) {
      env.add_process([&reg, pid](Ctx& ctx) {
        reg.write(ctx, pid);
        (void)reg.read(ctx);
      });
    }
  };
  {
    SimEnv env;
    MwmrRegister<int> reg("r", 0);
    build(env, reg);
    RandomScheduler sched(23);
    env.run(sched);
    decisions = env.decisions();
  }
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  build(env, reg);
  ReplayScheduler sched(decisions);
  env.run(sched);
  EXPECT_EQ(sched.divergences(), 0u);
  EXPECT_TRUE(sched.exact_so_far());
  EXPECT_EQ(sched.consumed(), decisions.size());
}

TEST(Scheduler, StaleTapeDivergencesAreCounted) {
  // Two processes, one op each; the tape asks for p0 twice and is then
  // exhausted: one skip (p0 already finished) + one fallback pick.
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  for (int pid = 0; pid < 2; ++pid) {
    env.add_process([&reg, pid](Ctx& ctx) { reg.write(ctx, pid); });
  }
  ReplayScheduler sched({0, 0});
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(sched.divergences(), 2u);
  EXPECT_FALSE(sched.exact_so_far());
}

TEST(Scheduler, ShortTapeFallsBackAndCounts) {
  SimEnv env;
  MwmrRegister<int> reg("r", 0);
  for (int pid = 0; pid < 2; ++pid) {
    env.add_process([&reg, pid](Ctx& ctx) {
      reg.write(ctx, pid);
      (void)reg.read(ctx);
    });
  }
  ReplayScheduler sched({1});  // 4 steps needed, tape covers one
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(sched.divergences(), 3u);  // three fallback-served picks
}

// Seeded stress sweep of the randomized adversaries over the scheduler-
// driven FirstValueTree election (the simulator twin of the OS-thread
// concurrent_election backend): every seed must produce a clean run that
// the paper-grade validator accepts.
TEST(Scheduler, HundredSeedSweepOverElection) {
  constexpr int kK = 4;
  constexpr int kProcs = 4;  // capacity (k-1)! = 6
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    {
      RandomScheduler sched(seed);
      const auto report = bss::core::run_sim_election(kK, kProcs, sched);
      ASSERT_TRUE(report.run.clean())
          << "random seed " << seed << ": " << report.run.summary();
      const auto verdict = bss::core::verify_election(report);
      ASSERT_TRUE(verdict.ok())
          << "random seed " << seed << ": " << verdict.diagnosis;
    }
    {
      CasConvoyScheduler sched(seed);
      const auto report = bss::core::run_sim_election(kK, kProcs, sched);
      ASSERT_TRUE(report.run.clean())
          << "cas-convoy seed " << seed << ": " << report.run.summary();
      const auto verdict = bss::core::verify_election(report);
      ASSERT_TRUE(verdict.ok())
          << "cas-convoy seed " << seed << ": " << verdict.diagnosis;
    }
  }
}

// ------------------------------------------------------------------ names

TEST(Names, EqualSpellingsInternToEqualHandlesAcrossThreads) {
  // Every thread interns the shared spellings, in its own order, racing the
  // others to be first, plus spellings of its own.
  constexpr int kThreads = 4;
  constexpr int kShared = 200;
  constexpr int kOwn = 50;
  const auto shared_spelling = [](int i) {
    return "shared-object[" + std::to_string(i) + "]";
  };
  const auto own_spelling = [](int thread, int i) {
    return "thread" + std::to_string(thread) + ".object[" + std::to_string(i) +
           "]";
  };
  std::vector<std::vector<ObjectName>> shared(kThreads);
  std::vector<std::vector<ObjectName>> own(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = shared[static_cast<std::size_t>(t)];
      mine.resize(kShared);
      for (int k = 0; k < kShared; ++k) {
        const int rotated = (k + 53 * t) % kShared;
        const int i = t % 2 == 0 ? rotated : kShared - 1 - rotated;
        mine[static_cast<std::size_t>(i)] = ObjectName(shared_spelling(i));
      }
      for (int i = 0; i < kOwn; ++i) {
        own[static_cast<std::size_t>(t)].emplace_back(own_spelling(t, i));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::string> spellings;
  for (int i = 0; i < kShared; ++i) {
    const ObjectName first = shared[0][static_cast<std::size_t>(i)];
    EXPECT_EQ(first.view(), shared_spelling(i));
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(shared[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                first)
          << shared_spelling(i) << " from thread " << t;
    }
    EXPECT_EQ(ObjectName(shared_spelling(i)), first) << "re-interned";
    spellings.emplace(first.view());
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOwn; ++i) {
      const ObjectName name =
          own[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
      EXPECT_EQ(name.view(), own_spelling(t, i));
      spellings.emplace(name.view());
    }
  }
  ASSERT_EQ(spellings.size(),
            static_cast<std::size_t>(kShared + kThreads * kOwn));
  // Distinct spellings give distinct handles.
  std::vector<ObjectName> handles;
  for (const auto& spelling : spellings) handles.emplace_back(spelling);
  for (std::size_t a = 0; a < handles.size(); ++a) {
    for (std::size_t b = a + 1; b < handles.size(); ++b) {
      ASSERT_NE(handles[a], handles[b])
          << handles[a].view() << " vs " << handles[b].view();
    }
  }
}

TEST(Names, EmptyAndPrefixSpellings) {
  EXPECT_EQ(ObjectName(), ObjectName(""));
  EXPECT_EQ(ObjectName().view(), "");
  EXPECT_NE(ObjectName("r"), ObjectName());
  EXPECT_NE(ObjectName("r"), ObjectName("r[0]"));
  EXPECT_NE(ObjectName("ab"), ObjectName("a"));
  const std::string spelling = "built at run time";
  EXPECT_EQ(ObjectName(spelling), ObjectName("built at run time"));
}

TEST(Names, OpNamesKeepTheirSpellings) {
  constexpr OpName read = "read";
  static_assert(read == OpName("read"));
  static_assert(read != OpName("write"));
  static_assert(OpName().view().empty());
  EXPECT_EQ(read.view(), "read");
  EXPECT_EQ(OpName("timer").view(), "timer");
  const OpDesc desc{ObjectName("confirm[2]"), "cas", 1, 2};
  std::ostringstream out;
  out << desc.object << "." << desc.op;
  EXPECT_EQ(out.str(), "confirm[2].cas");
}

TEST(Trace, FiltersAndCounts) {
  Trace trace;
  trace.append({0, 1, {ObjectName("a"), "read", 0, 0}, 0, false});
  trace.append({1, 2, {ObjectName("b"), "write", 5, 0}, 0, false});
  trace.append({2, 1, {ObjectName("a"), "write", 6, 0}, 0, false});
  EXPECT_EQ(trace.for_object("a").size(), 2u);
  EXPECT_EQ(trace.for_pid(2).size(), 1u);
  EXPECT_EQ(trace.count(1), 2u);
  EXPECT_EQ(trace.count(1, "write"), 1u);
  EXPECT_NE(trace.to_string().find("b.write"), std::string::npos);
}

TEST(Trace, HelpersOnEmptyTrace) {
  const Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.for_object("a").empty());
  EXPECT_TRUE(trace.for_pid(0).empty());
  EXPECT_EQ(trace.count(0), 0u);
  EXPECT_EQ(trace.count(0, "read"), 0u);
  EXPECT_EQ(trace.to_string().find("... ("), std::string::npos);
}

TEST(Trace, HelpersOnUnknownNamesAndPids) {
  Trace trace;
  trace.append({0, 1, {ObjectName("a"), "read", 0, 0}, 0, false});
  EXPECT_TRUE(trace.for_object("no-such-object").empty());
  EXPECT_TRUE(trace.for_pid(7).empty());
  EXPECT_TRUE(trace.for_pid(-1).empty());
  EXPECT_EQ(trace.count(7), 0u);
  EXPECT_EQ(trace.count(1, "no-such-op"), 0u);
}

TEST(Trace, ToStringTruncatesLongTraces) {
  Trace trace;
  for (int i = 0; i < 10; ++i) {
    trace.append({static_cast<std::uint64_t>(i), 0,
                  {ObjectName("a"), "read", 0, 0}, 0, false});
  }
  const std::string text = trace.to_string(3);
  EXPECT_NE(text.find("... (7 more)"), std::string::npos) << text;
  // At the exact limit nothing is elided.
  EXPECT_EQ(trace.to_string(10).find("more)"), std::string::npos);
}

// A crash-only random plan: the fail-stop adversary of the election storms.
TEST(CrashPlan, RandomPlanRespectsProbabilityEdges) {
  Rng rng(11);
  const FaultPlan none = FaultPlan::random_crashes(20, 0.0, 10, rng);
  EXPECT_TRUE(none.empty());
  const FaultPlan all = FaultPlan::random_crashes(20, 1.0, 10, rng);
  EXPECT_EQ(all.victim_count(), 20u);
  EXPECT_FALSE(all.has_restarts());
  for (int pid = 0; pid < 20; ++pid) {
    ASSERT_EQ(all.events_for(pid).size(), 1u);
    EXPECT_LT(all.events_for(pid)[0].op_index, 10u);
  }
}

TEST(VirtualTime, NowReadsZeroUntilATimerFires) {
  SimEnv env;
  std::vector<std::uint64_t> readings;
  env.add_process([&](Ctx& ctx) {
    readings.push_back(ctx.now());
    readings.push_back(ctx.now());
    readings.push_back(ctx.sleep_until(5));
    readings.push_back(ctx.now());
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(readings, (std::vector<std::uint64_t>{0, 0, 5, 5}));
  // Every clock access is an ordinary synced step on the "@clock" object.
  EXPECT_EQ(report.total_steps, 4u);
  const auto clock_events = env.trace().for_object("@clock");
  ASSERT_EQ(clock_events.size(), 4u);
  EXPECT_EQ(clock_events[0].desc.op.view(), "read");
  EXPECT_EQ(clock_events[2].desc.op.view(), "timer");
  EXPECT_EQ(clock_events[2].desc.arg0, 5);
  EXPECT_TRUE(clock_events[2].has_result);
  EXPECT_EQ(clock_events[2].result, 5);
}

TEST(VirtualTime, SleepUntilIsMonotoneFetchMax) {
  SimEnv env;
  std::vector<std::uint64_t> readings;
  env.add_process([&](Ctx& ctx) {
    readings.push_back(ctx.sleep_until(5));
    // A deadline already in the past fires immediately without rewinding.
    readings.push_back(ctx.sleep_until(3));
    readings.push_back(ctx.sleep_until(10));
  });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(readings, (std::vector<std::uint64_t>{5, 5, 10}));
  EXPECT_EQ(env.virtual_now(), 10u);
}

TEST(VirtualTime, TimerGrantIsVisibleToOtherProcesses) {
  // p0 parks on a timer, p1 on a clock read; round-robin grants the timer
  // first, so p1 observes the post-advance clock — the firing is a step
  // like any other, ordered by the scheduler.
  SimEnv env;
  std::uint64_t p1_read = 0;
  env.add_process([&](Ctx& ctx) { ctx.sleep_until(10); });
  env.add_process([&](Ctx& ctx) { p1_read = ctx.now(); });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(p1_read, 10u);
}

TEST(VirtualTime, RestartAbandonsParkedTimerWithoutFiringIt) {
  // Crash-restarting a process parked on a timer must NOT advance the
  // clock: the pending operation is abandoned, never performed.  The
  // restarted incarnation re-parks on a fresh timer which fires normally.
  SimEnv env(SimOptions{});
  SwmrRegister<std::int64_t> done("done", 0, 0);
  const auto body = [&](Ctx& ctx) {
    const std::uint64_t woke = ctx.sleep_until(7);
    done.write(ctx, static_cast<std::int64_t>(woke));
  };
  env.add_process(body, body);
  env.start();
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).object.view(), "@clock");
  EXPECT_EQ(env.pending_of(0).op.view(), "timer");
  env.restart_process(0);
  EXPECT_EQ(env.virtual_now(), 0u);  // the abandoned timer never fired
  ASSERT_TRUE(env.is_parked(0));
  EXPECT_EQ(env.pending_of(0).op.view(), "timer");
  env.step_process(0);  // the fresh incarnation's timer fires now
  EXPECT_EQ(env.virtual_now(), 7u);
  env.step_process(0);  // the write after the sleep
  env.finish();
  EXPECT_EQ(done.peek(), 7);
  const RunReport report = env.snapshot_report();
  EXPECT_EQ(report.restarts_by_pid[0], 1);
}

TEST(SwmrRegister, SecondWriterTrapped) {
  SimEnv env;
  SwmrRegister<int> reg("r", SwmrRegister<int>::kAnyWriter, 0);
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 1); });
  env.add_process([&](Ctx& ctx) { reg.write(ctx, 2); });
  RoundRobinScheduler sched;
  const RunReport report = env.run(sched);
  // Exactly one of them must have failed the single-writer discipline.
  EXPECT_EQ(report.finished_count(), 1);
  int failed = 0;
  for (const auto outcome : report.outcomes) {
    if (outcome == ProcOutcome::kFailed) ++failed;
  }
  EXPECT_EQ(failed, 1);
}

}  // namespace
}  // namespace bss::sim
