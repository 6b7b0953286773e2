// The lease-based leader-election service end to end (DESIGN.md §10):
// config/token algebra, the lease ledger's interval semantics, exhaustive
// model checking of the clean service under a fault budget with timer
// decisions enabled, refutation of both seeded mutants with replayable
// minimized artifacts, the determinism and audit invariants with virtual
// time in the schedule space, and the std::thread backend under seeded
// crash-restart storms.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "expect_identical.h"
#include "explore/explore.h"
#include "obs/obs.h"
#include "obs/runreport.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"
#include "service/lease_config.h"
#include "service/lease_ledger.h"
#include "service/lease_service.h"
#include "service/lease_system.h"
#include "service/thread_platform.h"
#include "util/checked.h"

namespace bss::service {
namespace {

using explore::Counterexample;
using explore::ExploreOptions;
using explore::ExploreResult;
using explore::ReplayOutcome;
using sim::ActionKind;
using sim::decode_action;

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

/// The exhaustively-checkable config: one acquisition attempt, no renewals.
LeaseConfig small_config(int n) {
  LeaseConfig config;
  config.n = n;
  config.renewals = 0;
  config.acquire_attempts = 1;
  config.sc_retries = 0;
  return config;
}

/// The richer config the mutants are refuted under.
LeaseConfig med_config() {
  LeaseConfig config;
  config.n = 2;
  config.renewals = 1;
  config.acquire_attempts = 2;
  config.sc_retries = 1;
  return config;
}

// --------------------------------------------------------- config algebra

TEST(LeaseConfig, TokenEncodingRoundTrips) {
  const int n = 3;
  EXPECT_EQ(holder_domain(n), 7);
  for (int pid = 0; pid < n; ++pid) {
    EXPECT_EQ(token_owner(n, held_token(n, pid)), pid);
    EXPECT_EQ(token_owner(n, pend_token(n, pid)), pid);
    EXPECT_FALSE(is_pend(n, held_token(n, pid)));
    EXPECT_TRUE(is_pend(n, pend_token(n, pid)));
    EXPECT_LT(held_token(n, pid), holder_domain(n));
    EXPECT_LT(pend_token(n, pid), holder_domain(n));
    EXPECT_NE(held_token(n, pid), kVacant);
    EXPECT_NE(pend_token(n, pid), kVacant);
  }
  EXPECT_EQ(token_owner(n, kVacant), -1);
}

TEST(LeaseConfig, BackoffIsDeterministicAndBounded) {
  LeaseConfig config;
  config.backoff_base = 3;
  for (int pid = 0; pid < 4; ++pid) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t wait = lease_backoff(config, pid, attempt);
      EXPECT_EQ(wait, lease_backoff(config, pid, attempt));  // pure
      EXPECT_LE(wait, config.backoff_base *
                              (static_cast<std::uint64_t>(attempt) + 1));
    }
  }
  config.backoff_base = 0;
  EXPECT_EQ(lease_backoff(config, 0, 2), 0u);
}

TEST(LeaseConfig, ValidateTrapsDegenerateConfigs) {
  LeaseConfig bad;
  bad.term = 2;
  bad.renew_margin = 2;  // margin must be strictly inside the term
  EXPECT_THROW(bad.validate(), InvariantError);
  LeaseConfig zero;
  zero.acquire_attempts = 0;
  EXPECT_THROW(zero.validate(), InvariantError);
}

// ------------------------------------------------------------ lease ledger

TEST(LeaseLedger, SequentialReignsAreDisjoint) {
  LeaseLedger ledger;
  ledger.acquired(0, 0, 0, 8, false);
  ledger.led(0, 5);
  ledger.stepped_down(0, 8, StepDownReason::kRetired);
  ledger.acquired(1, 0, 9, 17, true);
  ledger.stepped_down(1, 17, StepDownReason::kRetired);
  EXPECT_EQ(ledger.check(), std::nullopt);
}

// Half-open granularity rule: a handoff WITHIN one tick (the predecessor's
// end tick equals the successor's start tick) is disjoint — the holder
// register, not the clock, orders records inside one tick.
TEST(LeaseLedger, SameTickHandoffCountsAsDisjoint) {
  LeaseLedger ledger;
  ledger.acquired(0, 0, 0, 8, false);
  ledger.stepped_down(0, 5, StepDownReason::kRenewFailed);
  ledger.acquired(1, 0, 5, 13, false);  // acquired the released slot at t=5
  ledger.stepped_down(1, 13, StepDownReason::kRetired);
  EXPECT_EQ(ledger.check(), std::nullopt);
}

TEST(LeaseLedger, OverlappingReignsAreConvicted) {
  LeaseLedger ledger;
  ledger.acquired(0, 0, 0, 10, false);
  ledger.stepped_down(0, 10, StepDownReason::kRetired);
  ledger.acquired(1, 0, 9, 17, true);
  ledger.stepped_down(1, 17, StepDownReason::kRetired);
  const auto violation = ledger.check();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("overlapping leases"), std::string::npos)
      << *violation;
}

TEST(LeaseLedger, OpenReignClipsAtItsExpiry) {
  LeaseLedger ledger;
  ledger.acquired(0, 0, 0, 8, false);  // crashed holder: reign never closed
  ledger.acquired(1, 0, 8, 16, true);  // moved in exactly at the expiry
  ledger.stepped_down(1, 16, StepDownReason::kRetired);
  EXPECT_EQ(ledger.check(), std::nullopt);
  // A successor inside the clip window overlaps.
  LeaseLedger bad;
  bad.acquired(0, 0, 0, 8, false);
  bad.acquired(1, 0, 7, 15, true);
  bad.stepped_down(1, 15, StepDownReason::kRetired);
  EXPECT_TRUE(bad.check().has_value());
}

// led() is honest: an action recorded past the closed end extends the
// effective reign — exactly the mutants' tell.
TEST(LeaseLedger, LateActionExtendsTheEffectiveReign) {
  LeaseLedger ledger;
  ledger.acquired(0, 0, 0, 8, false);
  ledger.led(0, 12);  // acted well past the believed validity
  ledger.stepped_down(0, 8, StepDownReason::kExpired);
  ledger.acquired(1, 0, 9, 17, true);
  ledger.stepped_down(1, 17, StepDownReason::kRetired);
  const auto violation = ledger.check();
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->find("overlapping leases"), std::string::npos);
}

TEST(LeaseLedger, StepDownWithoutAnOpenReignTraps) {
  LeaseLedger ledger;
  EXPECT_THROW(ledger.stepped_down(0, 1, StepDownReason::kRetired),
               InvariantError);
}

TEST(LeaseLedger, FingerprintIsInsertionOrderIndependent) {
  LeaseLedger a;
  a.acquired(0, 0, 0, 8, false);
  a.stepped_down(0, 8, StepDownReason::kRetired);
  a.acquired(1, 0, 9, 17, true);
  a.stepped_down(1, 17, StepDownReason::kRetired);
  LeaseLedger b;  // same history, the other interleaving of the records
  b.acquired(1, 0, 9, 17, true);
  b.stepped_down(1, 17, StepDownReason::kRetired);
  b.acquired(0, 0, 0, 8, false);
  b.stepped_down(0, 8, StepDownReason::kRetired);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_FALSE(a.fingerprint().empty());
}

TEST(LeaseLedger, StatsMergeAddsCounters) {
  LeaseLedger ledger;
  ledger.acquired(0, 0, 0, 8, true);
  ledger.led(0, 3);
  ledger.retried(0);
  ledger.stepped_down(0, 8, StepDownReason::kExpired);
  LeaseStats merged;
  merged.merge_from(ledger.stats());
  merged.merge_from(ledger.stats());
  EXPECT_EQ(merged.leases_acquired, 2u);
  EXPECT_EQ(merged.takeovers, 2u);
  EXPECT_EQ(merged.actions, 2u);
  EXPECT_EQ(merged.retries, 2u);
  EXPECT_EQ(merged.step_downs, 2u);
  EXPECT_EQ(merged.expirations, 2u);
}

// ------------------------------------------------------- single-run sanity

TEST(LeaseService, RoundRobinRunIsSafeAndFingerprints) {
  LeaseServiceSystem system(med_config());
  const auto instance = system.make();
  sim::SimEnv env;
  instance->populate(env);
  sim::RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler);
  EXPECT_EQ(instance->check(env, report), std::nullopt);
  const std::string fingerprint = instance->fingerprint(env);
  EXPECT_NE(fingerprint.find("holder="), std::string::npos);
  EXPECT_NE(fingerprint.find("clock="), std::string::npos);
  EXPECT_NE(fingerprint.find("reigns="), std::string::npos);
}

// ----------------------------------------- exhaustive clean-service sweeps

// The headline certificate at n=2: EVERY schedule of steps x timers x one
// fault (crash, restart, or spurious SC failure) keeps the reigns disjoint.
TEST(LeaseService, CleanServiceExhaustiveUnderOneFaultBudget) {
  LeaseServiceSystem system(small_config(2));
  ExploreOptions options;
  options.fault_bound = 1;
  options.explore_sc_failures = true;
  options.jobs = 2;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "lease_clean_n2_fb1");
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? std::string()
                                   : result.violations.front().violation);
  EXPECT_TRUE(result.exhausted);
  // Timer firings were real decisions in this space, and faults were
  // actually injected — the sweep covered the advertised domain.
  EXPECT_GT(result.stats.timer_grants, 0u);
  EXPECT_GT(result.stats.faults_injected, 0u);
  EXPECT_GT(result.stats.schedules, 10'000u);
}

// n=3 under the same budget is campaign-sized (millions of schedules; run
// `bench_service --campaign exhaustive` with --checkpoint/--resume), so
// the in-tree test bounds preemptions instead: every schedule with at most
// one preemption and at most one fault stays safe.
TEST(LeaseService, CleanServiceAtNThreeBoundedUnderFaultBudget) {
  LeaseServiceSystem system(small_config(3));
  ExploreOptions options;
  options.fault_bound = 1;
  options.explore_sc_failures = true;
  options.preemption_bound = 1;
  options.jobs = 2;
  const ExploreResult result = explore::explore(system, options);
  dump_artifact_on_failure(result, "lease_clean_n3_pb1");
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? std::string()
                                   : result.violations.front().violation);
  EXPECT_FALSE(result.exhausted);  // preemption prunes clear the flag
  EXPECT_GT(result.stats.timer_grants, 0u);
}

// ------------------------------------------------------ mutant refutations

TEST(LeaseService, RenewAfterExpiryMutantIsRefutedScheduleOnly) {
  LeaseServiceSystem system(med_config(), LeaseMutant::kRenewAfterExpiry);
  ExploreOptions options;
  options.fault_bound = 1;
  options.preemption_bound = 2;
  const ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.ok());
  const Counterexample& cex = result.violations.front();
  EXPECT_NE(cex.violation.find("overlapping leases"), std::string::npos)
      << cex.violation;
  // The adversary needs no faults for this one: delaying the holder's wake
  // grant while a challenger's backoff timer drives the clock past the
  // expiry is pure scheduling, so the artifact is schedule-only (v1).
  EXPECT_EQ(cex.fault_count(), 0u);
  EXPECT_EQ(cex.to_artifact().rfind("bss-counterexample v1", 0), 0u)
      << cex.to_artifact();
  // Artifact round-trip and verbatim replay (zero divergences).
  const auto parsed = Counterexample::from_artifact(cex.to_artifact());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->decisions, cex.decisions);
  const ReplayOutcome replay = explore::replay_counterexample(system, cex);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
  EXPECT_NE(replay.violation.find("overlapping leases"), std::string::npos);
}

TEST(LeaseService, NoStepDownMutantNeedsTheSpuriousScFault) {
  LeaseConfig config = med_config();
  config.sc_retries = 0;  // the explorer's single injected failure bites
  LeaseServiceSystem system(config, LeaseMutant::kNoStepDownOnRenewFailure);
  ExploreOptions options;
  options.fault_bound = 1;
  options.explore_crashes = false;
  options.explore_restarts = false;
  options.explore_sc_failures = true;
  options.preemption_bound = 2;
  const ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.ok());
  const Counterexample& cex = result.violations.front();
  EXPECT_NE(cex.violation.find("overlapping leases"), std::string::npos)
      << cex.violation;
  // This mutant re-checks the holder token and only misbehaves when the
  // failed SC was provably spurious — a pure-schedule adversary cannot
  // produce that, so the minimized tape must carry an injected `s` fault
  // and serialize as a v2 artifact.
  EXPECT_GE(cex.fault_count(), 1u);
  bool has_sc_failure = false;
  for (const int decision : cex.decisions) {
    has_sc_failure |= decode_action(decision).kind == ActionKind::kScFailure;
  }
  EXPECT_TRUE(has_sc_failure);
  EXPECT_EQ(cex.to_artifact().rfind("bss-counterexample v2", 0), 0u)
      << cex.to_artifact();
  const auto parsed = Counterexample::from_artifact(cex.to_artifact());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->decisions, cex.decisions);
  const ReplayOutcome replay = explore::replay_counterexample(system, cex);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);
}

// --------------------------------------- determinism and audit invariants

TEST(LeaseService, ParallelExplorationIsByteIdenticalWithTimers) {
  LeaseServiceSystem system(small_config(3));
  ExploreOptions base;
  base.fault_bound = 1;
  base.explore_sc_failures = true;
  base.preemption_bound = 1;
  const ExploreResult serial = explore::explore(system, base);
  ExploreOptions parallel = base;
  parallel.jobs = 4;
  expect_identical(serial, explore::explore(system, parallel),
                   "jobs=1 vs jobs=4");
}

TEST(LeaseService, AuditIsCleanAndPassiveOverTimerOps) {
  // The access-ledger audit cross-checks every declared footprint —
  // including the @clock reads and timer fetch-maxes virtual time added to
  // the op vocabulary.  It must find nothing, and attaching it must not
  // perturb results.
  LeaseServiceSystem system(small_config(2));
  ExploreOptions plain;
  const ExploreResult reference = explore::explore(system, plain);
  ExploreOptions audited = plain;
  audited.audit = true;
  const ExploreResult with_audit = explore::explore(system, audited);
  expect_identical(reference, with_audit, "audit off vs on");
  EXPECT_TRUE(with_audit.audit.enabled);
  EXPECT_GT(with_audit.audit.windows, 0u);
  EXPECT_EQ(with_audit.audit.ledger_violations, 0u);
  EXPECT_EQ(with_audit.audit.commute_mismatches, 0u);
}

TEST(LeaseService, TelemetryIsPassiveAndReportsTimerGrants) {
  LeaseServiceSystem system(small_config(2));
  ExploreOptions plain;
  const ExploreResult reference = explore::explore(system, plain);
  obs::Telemetry telemetry;
  ExploreOptions observed = plain;
  observed.telemetry = &telemetry;
  expect_identical(reference, explore::explore(system, observed),
                   "telemetry off vs on");
  ASSERT_FALSE(telemetry.last_report().empty());
  EXPECT_TRUE(obs::validate_runreport(telemetry.last_report()).empty());
  const auto report = obs::RunReport::parse(telemetry.last_report());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->system(), system.name());
  EXPECT_EQ(report->stat("timer_grants"), reference.stats.timer_grants);
  EXPECT_GT(report->stat("timer_grants"), 0u);
}

// ---------------------------------------------------- std::thread backend

TEST(ThreadBoard, LlScVersioningDefeatsAba) {
  ThreadLeaseBoard board(small_config(2));
  const std::uint64_t linked = board.load_link();
  EXPECT_EQ(ThreadLeaseBoard::token_of(linked), kVacant);
  EXPECT_TRUE(board.store_conditional(linked, held_token(2, 0)));
  // The stale link must fail even though it saw the same token value a
  // fresh LL would: the version advanced.
  EXPECT_FALSE(board.store_conditional(linked, held_token(2, 1)));
  EXPECT_EQ(ThreadLeaseBoard::token_of(board.load_link()), held_token(2, 0));
}

TEST(ThreadBoard, ClockAdvanceIsFetchMax) {
  ThreadLeaseBoard board(small_config(2));
  EXPECT_EQ(board.clock_now(), 0u);
  EXPECT_EQ(board.clock_advance(5), 5u);
  EXPECT_EQ(board.clock_advance(3), 5u);  // never goes backward
  EXPECT_EQ(board.clock_advance(9), 9u);
  EXPECT_EQ(board.clock_now(), 9u);
}

TEST(ThreadStorm, SeededCrashRestartStormsKeepReignsDisjoint) {
  LeaseConfig config = med_config();
  config.n = 3;
  config.acquire_attempts = 3;
  int restarts = 0;
  int spurious = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const ThreadStormReport report =
        run_thread_lease_storm(config, seed, /*max_crashes=*/2);
    EXPECT_EQ(report.violation, std::nullopt)
        << "seed " << seed << ": " << *report.violation;
    restarts += report.restarts;
    spurious += report.spurious_delivered;
  }
  // The storm must actually exercise both fault kinds, or it proves nothing.
  EXPECT_GT(restarts, 10);
  EXPECT_GT(spurious, 0);
}

// The thread-backend analogue of the FaultPlan edge the sim suite pins
// (test_faults.cc): a spurious SC failure scripted INTO a crash-restart
// incarnation must be delivered there and survived.
TEST(ThreadStorm, ScriptedSpuriousScInsideRestartIncarnation) {
  LeaseConfig config;
  config.n = 1;
  config.renewals = 1;
  config.acquire_attempts = 3;
  config.sc_retries = 1;
  ThreadLeaseBoard board(config);
  LeaseLedger ledger;
  ThreadFaultScript script;
  script.abort_before_op = {5};     // incarnation 0 dies mid-two-phase
  script.spurious_sc = {{1, 0}};    // incarnation 1's FIRST SC fails
  ThreadLeasePlatform plat(board, 0, script);
  int restarts = 0;
  for (int incarnation = 0;; ++incarnation) {
    plat.begin_incarnation(incarnation);
    try {
      run_lease_session(plat, ledger, config);
      break;
    } catch (const ThreadLeaseRestart&) {
      ++restarts;
    }
  }
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(plat.spurious_delivered(), 1);
  EXPECT_EQ(ledger.check(), std::nullopt);
  const LeaseStats stats = ledger.stats();
  // Incarnation 1 waited out its own orphaned pend registration, ate the
  // spurious failure, took the slot over, and served a full session.
  EXPECT_EQ(stats.leases_acquired, 1u);
  EXPECT_EQ(stats.takeovers, 1u);
  EXPECT_EQ(stats.renewals, 1u);
}

}  // namespace
}  // namespace bss::service
