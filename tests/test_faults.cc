// Crash-recovery fault model end to end: FaultPlan semantics, SimEnv
// restart/spurious-SC machinery, recoverable elections under randomized
// storms on both backends, and the fault-aware schedule explorer —
// exhaustive single-fault sweeps over correct systems and the refutation of
// the seeded recovery-unsafe mutant with a replayable v2 artifact.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/election_validator.h"
#include "core/llsc_election.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "registers/ll_sc.h"
#include "registers/mwmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"
#include "util/rng.h"

namespace bss {
namespace {

using core::ElectionVerdict;
using core::RecoverableConcurrentReport;
using core::RecoverableElectionReport;
using core::RestartBehavior;
using core::run_llsc_election;
using core::run_recoverable_concurrent_election;
using core::run_recoverable_sim_election;
using core::verify_election;
using explore::Counterexample;
using explore::ExploreOptions;
using explore::ExploreResult;
using explore::LlScSystem;
using explore::OneShotSystem;
using explore::RecoverableFvtSystem;
using explore::ReplayOutcome;
using sim::ActionKind;
using sim::decode_action;
using sim::encode_action;
using sim::FaultKind;
using sim::FaultPlan;
using sim::kMaxActionPid;
using sim::RandomScheduler;
using sim::RoundRobinScheduler;

/// On an unexpected violation, persist the counterexample so CI can upload
/// it (BSS_ARTIFACT_DIR is set by the workflow; no-op locally when unset).
void dump_artifact_on_failure(const ExploreResult& result,
                              const std::string& tag) {
  if (result.ok()) return;
  const char* dir = std::getenv("BSS_ARTIFACT_DIR");
  if (dir == nullptr) return;
  std::ofstream out(std::string(dir) + "/" + tag + ".bss-cex");
  out << result.violations.front().to_artifact();
}

// ------------------------------------------------------- FaultPlan semantics

TEST(FaultPlan, EventsSortedByOpIndexAndFirstRegistrationWins) {
  FaultPlan plan;
  plan.restart_before_op(0, 7).crash_before_op(0, 2).restart_before_op(0, 7);
  plan.crash_before_op(0, 7);  // same index as the restart: ignored
  const auto& events = plan.events_for(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].op_index, 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(events[1].op_index, 7u);
  EXPECT_EQ(events[1].kind, FaultKind::kRestart);
  EXPECT_TRUE(plan.has_restarts());
  EXPECT_EQ(plan.event_count(), 2u);
}

TEST(FaultPlan, AtMostOneSpuriousScPerPid) {
  FaultPlan plan;
  plan.fail_sc(1, 0).fail_sc(1, 5);  // re-registration ignored
  EXPECT_TRUE(plan.should_fail_sc(1, 0));
  EXPECT_FALSE(plan.should_fail_sc(1, 5));
  EXPECT_FALSE(plan.should_fail_sc(0, 0));
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RandomPlanRespectsProbabilityEdges) {
  Rng rng(42);
  const FaultPlan none = FaultPlan::random(16, 0.0, 0.0, 0.0, 20, rng);
  EXPECT_TRUE(none.empty());
  const FaultPlan all = FaultPlan::random(16, 1.0, 1.0, 1.0, 20, rng);
  EXPECT_EQ(all.victim_count(), 16u);
  EXPECT_TRUE(all.has_restarts());
  for (int pid = 0; pid < 16; ++pid) {
    for (const auto& event : all.events_for(pid)) {
      EXPECT_LT(event.op_index, 20u);
    }
  }
}

// A plan of crash_before_op events alone is the paper's fail-stop adversary.
TEST(CrashPlan, DuplicateRegistrationKeepsEarliestDeath) {
  FaultPlan plan;
  plan.crash_before_op(3, 9);
  plan.crash_before_op(3, 4);  // earlier death wins
  plan.crash_before_op(3, 6);  // later death never fires
  const auto& events = plan.events_for(3);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, FaultKind::kCrash);
  EXPECT_EQ(events.front().op_index, 4u);
  EXPECT_EQ(plan.victim_count(), 1u);
  EXPECT_FALSE(plan.has_restarts());

  // Run it: the process dies before its 4th op, never reaching op 6 or 9.
  sim::SimEnv env;
  sim::MwmrRegister<int> reg("reg", 0);
  for (int pid = 0; pid < 4; ++pid) {
    env.add_process([&reg](sim::Ctx& ctx) {
      for (int i = 1; i <= 10; ++i) reg.write(ctx, i);
    });
  }
  RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler, plan);
  EXPECT_EQ(report.outcomes[3], sim::ProcOutcome::kCrashed);
  EXPECT_EQ(report.steps_by_pid[3], 4u);
}

// --------------------------------------------------- SimEnv restart machinery

TEST(SimRestart, RestartLosesPrivateStateKeepsSharedRegisters) {
  sim::SimEnv env;
  sim::MwmrRegister<int> reg("reg", 0);
  struct Entry {
    int incarnation;
    int seen;
    int after;
  };
  std::vector<Entry> log;
  const auto body = [&reg, &log](sim::Ctx& ctx) {
    const int seen = reg.read(ctx);      // ops 0 (and 2 after the restart)
    reg.write(ctx, seen + 5);            // ops 1 (and 3)
    const int after = reg.read(ctx);     // op 4: only the survivor gets here
    log.push_back({ctx.incarnation(), seen, after});
  };
  env.add_process(body, body);
  FaultPlan plan;
  plan.restart_before_op(0, 2);
  RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler, plan);

  // The first incarnation read 0 and wrote 5, then was unwound before its
  // op 2 — it logged nothing (private state died with the stack).  The
  // second incarnation read the PERSISTED 5, wrote 10, read 10 back.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].incarnation, 1);
  EXPECT_EQ(log[0].seen, 5);
  EXPECT_EQ(log[0].after, 10);
  EXPECT_EQ(report.outcomes[0], sim::ProcOutcome::kFinished);
  EXPECT_EQ(report.restarts_by_pid[0], 1);
  EXPECT_EQ(report.restarted_count(), 1);
  EXPECT_EQ(report.steps_by_pid[0], 5u);  // lifetime count spans both lives
}

TEST(SimRestart, CrashAfterRestartIsTerminal) {
  sim::SimEnv env;
  sim::MwmrRegister<int> reg("reg", 0);
  const auto body = [&reg](sim::Ctx& ctx) {
    for (int i = 0; i < 4; ++i) reg.write(ctx, i);
  };
  env.add_process(body, body);
  FaultPlan plan;
  plan.restart_before_op(0, 2).crash_before_op(0, 5);
  RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler, plan);
  EXPECT_EQ(report.outcomes[0], sim::ProcOutcome::kCrashed);
  EXPECT_EQ(report.restarts_by_pid[0], 1);
  EXPECT_EQ(report.steps_by_pid[0], 5u);
}

TEST(SimRestart, RestartWithoutHookIsRejected) {
  sim::SimEnv env;
  sim::MwmrRegister<int> reg("reg", 0);
  env.add_process([&reg](sim::Ctx& ctx) { reg.write(ctx, 1); });  // no hook
  FaultPlan plan;
  plan.restart_before_op(0, 0);
  RoundRobinScheduler scheduler;
  EXPECT_THROW(env.run(scheduler, plan), InvariantError);
}

// ----------------------------------------------------- spurious SC failures

TEST(SpuriousSc, InjectedFailureLeavesLinkIntactAndRetrySucceeds) {
  sim::SimEnv env;
  sim::LlScRegisterK llsc("llsc", 4);
  std::vector<bool> results;
  env.add_process([&llsc, &results](sim::Ctx& ctx) {
    llsc.load_link(ctx);
    results.push_back(llsc.store_conditional(ctx, 1));  // forced spurious
    results.push_back(llsc.store_conditional(ctx, 1));  // link intact: wins
  });
  FaultPlan plan;
  plan.fail_sc(0, 0);
  RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler, plan);
  EXPECT_EQ(report.outcomes[0], sim::ProcOutcome::kFinished);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
}

TEST(SpuriousSc, OrdinalLandsInRestartIncarnation) {
  // SC ordinals are LIFETIME coordinates: a restart does not reset the
  // count, so fail_sc(0, 1) addresses the restarted incarnation's first SC
  // (the process's second SC ever).  The failure must be delivered there,
  // and the link must survive it so the in-incarnation retry wins.
  sim::SimEnv env;
  sim::LlScRegisterK llsc("llsc", 4);
  struct Entry {
    int incarnation;
    bool first;
    bool second;
  };
  std::vector<Entry> log;
  const auto body = [&llsc, &log](sim::Ctx& ctx) {
    llsc.load_link(ctx);                                // ops 0 / 2
    const bool first = llsc.store_conditional(ctx, 1);  // op 1: sc #0 / op 3: sc #1
    llsc.load_link(ctx);                                // unwind point / op 4
    const bool second = llsc.store_conditional(ctx, 2);  // op 5: sc #2
    log.push_back({ctx.incarnation(), first, second});
  };
  env.add_process(body, body);
  FaultPlan plan;
  plan.restart_before_op(0, 2).fail_sc(0, 1);
  RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler, plan);
  EXPECT_EQ(report.outcomes[0], sim::ProcOutcome::kFinished);
  EXPECT_EQ(report.restarts_by_pid[0], 1);
  // Incarnation 0 succeeded at sc #0 and was unwound at its second LL; only
  // incarnation 1 logged, eating the spurious failure at sc #1.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].incarnation, 1);
  EXPECT_FALSE(log[0].first);
  EXPECT_TRUE(log[0].second);
}

TEST(SpuriousSc, RestartClearsAnInjectedPendingFailure) {
  // Incremental mode: marking a parked SC spurious and then crash-restarting
  // the process abandons the marked operation — the mark dies with the
  // incarnation instead of leaking onto the fresh incarnation's first SC.
  sim::SimEnv env;
  sim::LlScRegisterK llsc("llsc", 4);
  std::vector<std::pair<int, bool>> results;  // (incarnation, sc result)
  const auto body = [&llsc, &results](sim::Ctx& ctx) {
    llsc.load_link(ctx);
    results.emplace_back(ctx.incarnation(), llsc.store_conditional(ctx, 1));
  };
  env.add_process(body, body);
  env.start();
  env.step_process(0);  // LL
  ASSERT_TRUE(env.is_parked(0));
  ASSERT_EQ(env.pending_of(0).op.view(), "sc");
  env.inject_sc_failure(0);
  env.restart_process(0);  // the marked SC is abandoned, never performed
  env.step_process(0);     // fresh incarnation's LL
  ASSERT_EQ(env.pending_of(0).op.view(), "sc");
  env.step_process(0);
  env.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].first, 1);
  EXPECT_TRUE(results[0].second);  // the stale mark must not have fired here
  EXPECT_EQ(env.snapshot_report().restarts_by_pid[0], 1);
}

TEST(SpuriousSc, LlScElectionToleratesOneSpuriousFailurePerProcess) {
  const int k = 4;
  const int n = 6;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FaultPlan plan;
    for (int pid = 0; pid < n; ++pid) plan.fail_sc(pid, seed % 3);
    RandomScheduler scheduler(seed);
    const core::LlScElectionReport report =
        run_llsc_election(k, n, scheduler, plan);
    EXPECT_TRUE(report.consistent) << "seed " << seed;
    EXPECT_TRUE(report.valid) << "seed " << seed;
    EXPECT_EQ(report.run.finished_count(), n) << "seed " << seed;
  }
}

// ------------------------------------------- recoverable election, simulator

TEST(RecoverableElection, HundredSeedCrashRestartStormKeepsAllInvariants) {
  const int k = 4;
  const int n = 6;
  int restarted_runs = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    const FaultPlan plan = FaultPlan::random(n, 0.2, 0.5, 0.0, 30, rng);
    RandomScheduler scheduler(seed * 31 + 7);
    const RecoverableElectionReport report =
        run_recoverable_sim_election(k, n, scheduler, plan);
    const ElectionVerdict verdict = verify_election(report.election);
    EXPECT_TRUE(verdict.ok()) << "seed " << seed << ": " << verdict.diagnosis;
    if (report.election.run.restarted_count() > 0) ++restarted_runs;
  }
  EXPECT_GT(restarted_runs, 25);  // the storm must actually exercise restarts
}

TEST(RecoverableElection, RestartAtEveryDepthOfEveryProcess) {
  const int k = 3;
  const int n = 2;
  for (int victim = 0; victim < n; ++victim) {
    for (std::uint64_t t = 0; t < 10; ++t) {
      FaultPlan plan;
      plan.restart_before_op(victim, t);
      RoundRobinScheduler scheduler;
      const RecoverableElectionReport report =
          run_recoverable_sim_election(k, n, scheduler, plan);
      const ElectionVerdict verdict = verify_election(report.election);
      EXPECT_TRUE(verdict.ok())
          << "victim " << victim << " t=" << t << ": " << verdict.diagnosis;
      EXPECT_EQ(report.restarts_by_pid[static_cast<std::size_t>(victim)], 1);
    }
  }
}

TEST(RecoverableElection, FreshClaimMutantTripsTheRecoveryAudit) {
  // With two processes on the two slots of k=3, the mutant's re-claimed
  // fresh slot collides with the other process's announced identity, so the
  // recovery audit (or the validator) must object in SOME schedule; here we
  // pin one such schedule directly.
  const int k = 3;
  const int n = 2;
  int violations = 0;
  for (std::uint64_t t = 1; t < 8; ++t) {
    FaultPlan plan;
    plan.restart_before_op(0, t);
    RoundRobinScheduler scheduler;
    const RecoverableElectionReport report = run_recoverable_sim_election(
        k, n, scheduler, plan, RestartBehavior::kFreshClaim);
    const ElectionVerdict verdict = verify_election(report.election);
    const bool audit_failed =
        report.election.run.outcomes[0] == sim::ProcOutcome::kFailed;
    if (audit_failed || !verdict.ok()) ++violations;
  }
  EXPECT_GT(violations, 0);
}

// ----------------------------------------- recoverable election, std::thread

TEST(RecoverableElection, HundredSeedConcurrentRestartStorm) {
  const int k = 4;
  const int n = 3;
  int restarted_runs = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const RecoverableConcurrentReport report =
        run_recoverable_concurrent_election(k, n, seed);
    EXPECT_TRUE(report.consistent) << "seed " << seed;
    EXPECT_GE(report.leader, 1000);
    EXPECT_LT(report.leader, 1000 + n);
    for (int t = 0; t < n; ++t) {
      EXPECT_EQ(report.outcomes[static_cast<std::size_t>(t)].leader,
                report.leader)
          << "seed " << seed << " thread " << t;
    }
    for (const int restarts : report.restarts_by_thread) {
      if (restarts > 0) {
        ++restarted_runs;
        break;
      }
    }
  }
  EXPECT_GT(restarted_runs, 25);
}

// ------------------------------------------------ exhaustive fault sweeps

TEST(FaultExplore, ExhaustiveSingleFaultTwoProcessElection) {
  // Every single-crash and single-restart point of the 2-process one-shot
  // election, exhaustively: the fault space at budget 1 is fully covered
  // (exhausted), with zero violations.
  OneShotSystem system(4, 2, core::OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "one_shot_4_2_single_fault");
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.stats.faults_injected, 0u);
  // 2 processes x 3 ops each: crash points at op counts 0..2 per process
  // plus restart points at the same coordinates.
  EXPECT_EQ(result.stats.fault_points, 12u);
}

TEST(FaultExplore, ExhaustiveSingleFaultThreeProcessElection) {
  OneShotSystem system(4, 3, core::OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "one_shot_4_3_single_fault");
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.stats.fault_points, 18u);  // 3 procs x 3 ops x {crash,restart}
}

// The same sweep audited, serially and under the worker pool: the ledger
// sees crashes and restarts inside its windows, the swap replays run on
// every worker's private SimEnvs, and the result stays the unaudited one.
TEST(FaultExplore, ExhaustiveSingleFaultSweepAuditedAtOneAndFourJobs) {
  OneShotSystem system(4, 2, core::OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.jobs = 1;
  const ExploreResult plain = explore::explore(system, options);
  options.audit = true;
  for (const int jobs : {1, 4}) {
    options.jobs = jobs;
    const ExploreResult audited = explore::explore(system, options);
    dump_artifact_on_failure(audited, "one_shot_4_2_single_fault_audited");
    const std::string label = "jobs=" + std::to_string(jobs);
    EXPECT_TRUE(audited.ok()) << label << " " << audited.summary();
    EXPECT_EQ(audited.stats.summary(), plain.stats.summary()) << label;
    EXPECT_EQ(audited.exhausted, plain.exhausted) << label;
    EXPECT_TRUE(audited.audit.enabled) << label;
    EXPECT_GT(audited.audit.windows, 0u) << label;
    EXPECT_EQ(audited.audit.ledger_violations, 0u) << label;
    EXPECT_EQ(audited.audit.commute_mismatches, 0u) << label;
  }
}

TEST(FaultExplore, ExhaustiveSingleCrashFullFvtElection) {
  // The full FirstValueTree algorithm under every single fail-stop point.
  RecoverableFvtSystem system(3, 2);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_restarts = false;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "rfvt_3_2_single_crash");
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.stats.fault_points, 32u);
}

TEST(FaultExplore, BoundedSingleRestartFullFvtElection) {
  // Restarts double the schedule length, so the unbounded sweep is slow;
  // one preemption already reaches nearly every restart point (27 of the
  // 32 the unbounded space has) and every one is violation-free.
  RecoverableFvtSystem system(3, 2);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;
  options.preemption_bound = 1;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "rfvt_3_2_single_restart_pb1");
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_FALSE(result.exhausted);  // preemption-bounded by design
  EXPECT_EQ(result.stats.fault_points, 27u);
}

TEST(FaultExplore, BoundedSpuriousScSweepLlScElection) {
  LlScSystem system(3, 2);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;
  options.explore_restarts = false;
  options.explore_sc_failures = true;
  options.preemption_bound = 2;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "llsc_3_2_spurious_sc_pb2");
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_GT(result.stats.faults_injected, 0u);
  EXPECT_GT(result.stats.fault_points, 0u);
}

TEST(FaultExplore, FaultFreeBudgetMatchesPlainExplorer) {
  // fault_bound = 0 must reproduce the fault-free explorer exactly.
  OneShotSystem system(4, 2);
  ExploreOptions options;
  options.use_por = false;
  const ExploreResult plain = explore::explore(system, options);
  options.fault_bound = 0;
  options.explore_sc_failures = true;  // ignored without a fault budget
  const ExploreResult gated = explore::explore(system, options);
  EXPECT_EQ(plain.stats.schedules, gated.stats.schedules);
  EXPECT_EQ(gated.stats.schedules, 20u);
  EXPECT_EQ(gated.stats.faults_injected, 0u);
  EXPECT_TRUE(gated.exhausted);
}

// ------------------------------------------------- mutant refutation + v2

TEST(FaultExplore, FreshClaimMutantRefutedWithReplayableV2Artifact) {
  RecoverableFvtSystem system(3, 2, RestartBehavior::kFreshClaim);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;  // the bug needs a restart, not a death
  const ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.ok()) << "seeded recovery-unsafe mutant not refuted";
  const Counterexample& cex = result.violations.front();
  EXPECT_GE(cex.fault_count(), 1u);
  EXPECT_LE(cex.decisions.size(), 40u) << "minimization regressed";
  EXPECT_LE(cex.decisions.size(), cex.shrunk_from);

  // The artifact is v2, mentions the restart token, and round-trips.
  const std::string artifact = cex.to_artifact();
  EXPECT_EQ(artifact.rfind("bss-counterexample v2\n", 0), 0u) << artifact;
  EXPECT_NE(artifact.find(" r"), std::string::npos) << artifact;
  const auto parsed = Counterexample::from_artifact(artifact);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->decisions, cex.decisions);
  EXPECT_EQ(parsed->violation, cex.violation);
  EXPECT_EQ(parsed->processes, cex.processes);

  // And the parsed tape replays the violation with ZERO divergences.
  const ReplayOutcome replay =
      explore::replay_counterexample(system, *parsed, options);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
  EXPECT_EQ(replay.violation, cex.violation);
}

TEST(FaultExplore, CorrectRecoverableElectionYieldsNoV2Artifacts) {
  // The non-mutant under the same options: zero violations.
  RecoverableFvtSystem system(3, 2);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;
  options.preemption_bound = 1;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "rfvt_3_2_recover_refutation_check");
  EXPECT_TRUE(result.ok()) << result.summary();
}

// ------------------------------------------------------- artifact formats

TEST(Artifact, V1StillParsesAndStaysFaultFree) {
  const std::string v1 =
      "bss-counterexample v1\n"
      "system: one_shot[k=4,n=2,mutant=claim-after-cas]\n"
      "processes: 2\n"
      "shrunk-from: 9\n"
      "violation: inconsistent: p1 elected 1001\n"
      "decisions: 0 1 1 0 0 1\n";
  const auto parsed = Counterexample::from_artifact(v1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->decisions, (std::vector<int>{0, 1, 1, 0, 0, 1}));
  EXPECT_EQ(parsed->fault_count(), 0u);
  // A fault-free counterexample re-serializes as v1, bit-for-bit.
  EXPECT_EQ(parsed->to_artifact(), v1);
}

TEST(Artifact, V2TokensEncodeEveryFaultKind) {
  Counterexample cex;
  cex.system = "rfvt[k=3,n=2]";
  cex.processes = 2;
  cex.violation = "demo";
  cex.shrunk_from = 6;
  cex.decisions = {0, encode_action(ActionKind::kCrash, 1),
                   encode_action(ActionKind::kRestart, 0),
                   encode_action(ActionKind::kScFailure, 1), 1};
  const std::string artifact = cex.to_artifact();
  EXPECT_EQ(artifact.rfind("bss-counterexample v2\n", 0), 0u);
  EXPECT_NE(artifact.find("decisions: 0 c1 r0 s1 1"), std::string::npos)
      << artifact;
  const auto parsed = Counterexample::from_artifact(artifact);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->decisions, cex.decisions);
  EXPECT_EQ(parsed->fault_count(), 3u);
}

TEST(Artifact, RejectsMalformedFaultTokens) {
  const std::string prefix =
      "bss-counterexample v2\nsystem: x\nprocesses: 2\nshrunk-from: 1\n"
      "violation: v\n";
  EXPECT_FALSE(Counterexample::from_artifact(prefix + "decisions: 0 q1\n"));
  EXPECT_FALSE(Counterexample::from_artifact(prefix + "decisions: c\n"));
  EXPECT_FALSE(Counterexample::from_artifact(prefix + "decisions: r1x\n"));
  EXPECT_FALSE(Counterexample::from_artifact(prefix + "decisions: -3\n"));
  // Only the canonical spelling parses: no sign and no leading zero, even
  // where std::stoi would read a valid pid.
  for (const char* token :
       {"+1", "-0", "00", "01", "007", "c+1", "s-0", "r01"}) {
    EXPECT_FALSE(Counterexample::from_artifact(prefix + "decisions: 0 " +
                                               token + "\n"))
        << token;
  }
  EXPECT_TRUE(Counterexample::from_artifact(prefix + "decisions: 0 c1 r0 s1\n")
                  .has_value());
  EXPECT_FALSE(
      Counterexample::from_artifact("bss-counterexample v3\n" + prefix));
}

// Regression for a fuzz_counterexample finding: the header-count fields
// went through bare std::stoi/std::stoull, so "processes: x" escaped
// from_artifact as std::invalid_argument (terminate in noexcept callers),
// an out-of-range count threw std::out_of_range, and stoull quietly
// wrapped "shrunk-from: -1" to 2^64-1.  All must now parse to nullopt.
TEST(Artifact, RejectsMalformedHeaderCounts) {
  const auto artifact = [](const std::string& processes,
                           const std::string& shrunk) {
    return "bss-counterexample v1\nsystem: x\nprocesses: " + processes +
           "\nshrunk-from: " + shrunk + "\nviolation: v\ndecisions: 0\n";
  };
  EXPECT_FALSE(Counterexample::from_artifact(artifact("x", "1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact("", "1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact("2x", "1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact("-2", "1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact("+2", "1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact(" 2", "1")));
  EXPECT_FALSE(
      Counterexample::from_artifact(artifact("99999999999999999999", "1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact("2", "-1")));
  EXPECT_FALSE(Counterexample::from_artifact(artifact("2", "1.5")));
  EXPECT_FALSE(
      Counterexample::from_artifact(artifact("2", "99999999999999999999")));
  // The boundary cases stay accepted: zero and kMaxActionPid + 1 processes.
  EXPECT_TRUE(Counterexample::from_artifact(artifact("0", "0")).has_value());
  const auto max_ok = Counterexample::from_artifact(
      artifact(std::to_string(static_cast<long long>(kMaxActionPid) + 1),
               "18446744073709551615"));
  ASSERT_TRUE(max_ok.has_value());
  EXPECT_EQ(max_ok->processes, kMaxActionPid + 1);
}

// Fuzz-corpus replay: tools/fuzz/corpus/counterexample checks in the seeds
// and harvested crashers for fuzz_counterexample (the crash_stoi_* files
// are the exact inputs that used to throw through from_artifact).
TEST(Artifact, FuzzCorpusFilesParseOrRejectWithoutCrashing) {
  const std::string dir =
      std::string(BSS_FUZZ_CORPUS_DIR) + "/counterexample";
  std::size_t seen = 0;
  std::size_t accepted = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seen;
    std::ifstream stream(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const auto parsed = Counterexample::from_artifact(buffer.str());
    const std::string name = entry.path().filename().string();
    if (name.rfind("crash_", 0) == 0 || name.rfind("wrap_", 0) == 0 ||
        name.rfind("header_", 0) == 0) {
      EXPECT_FALSE(parsed.has_value()) << entry.path();
      continue;
    }
    if (!parsed.has_value()) continue;
    ++accepted;
    const std::string round = parsed->to_artifact();
    const auto reparsed = Counterexample::from_artifact(round);
    ASSERT_TRUE(reparsed.has_value()) << entry.path();
    EXPECT_EQ(reparsed->to_artifact(), round) << entry.path();
  }
  EXPECT_GE(seen, 4u) << "corpus dir unexpectedly empty: " << dir;
  EXPECT_GE(accepted, 2u) << "expected at least the two well-formed seeds";
}

TEST(Artifact, ActionEncodingRoundTrips) {
  for (const auto kind : {ActionKind::kGrant, ActionKind::kCrash,
                          ActionKind::kRestart, ActionKind::kScFailure}) {
    for (int pid = 0; pid < 8; ++pid) {
      const int encoded = encode_action(kind, pid);
      const auto action = decode_action(encoded);
      EXPECT_EQ(action.kind, kind);
      EXPECT_EQ(action.pid, pid);
      EXPECT_EQ(sim::is_fault_action(encoded), kind != ActionKind::kGrant);
    }
  }
}

}  // namespace
}  // namespace bss
