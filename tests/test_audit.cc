// Tests for the access-ledger soundness auditor (src/audit): race
// detection, footprint conformance, the commutation cross-check, the
// explorer's audit mode, and — load-bearing for everything else in this
// repository — the guarantee that attaching the audit layer never changes
// what the explorer does.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/commute_check.h"
#include "audit/conformance.h"
#include "audit/ledger.h"
#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/snapshot_system.h"
#include "explore/system.h"
#include "registers/mwmr_register.h"
#include "registers/swmr_register.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::audit {
namespace {

using sim::ObjectName;

// ------------------------------------------------------------ access token

TEST(AccessToken, UnarmedTokenIsANoOp) {
  AccessToken token;
  EXPECT_FALSE(token.armed());
  token.read(ObjectName("x"));  // must be safe without an observer
  token.write(ObjectName("x"));
}

// ---------------------------------------------------- ledger: race detection

TEST(Auditor, FlagsAccessOutsideAnyWindow) {
  Auditor auditor;
  auditor.on_access(0, ObjectName("x"), AccessKind::kRead,
                    AccessToken::kNoWindow);
  EXPECT_FALSE(auditor.clean());
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, ViolationKind::kUnsyncedAccess);
  EXPECT_EQ(auditor.violations()[0].pid, 0);
  EXPECT_EQ(auditor.violations()[0].object, "x");
}

TEST(Auditor, FlagsAccessByWrongPid) {
  Auditor auditor;
  auditor.on_window_begin(0, {ObjectName("x"), "read", 0, 0}, 0);
  auditor.on_access(1, ObjectName("x"), AccessKind::kRead, 0);
  auditor.on_window_end(0, false);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, ViolationKind::kWrongPid);
  EXPECT_EQ(auditor.violations()[0].pid, 1);
}

TEST(Auditor, FlagsStaleToken) {
  Auditor auditor;
  auditor.on_window_begin(0, {ObjectName("x"), "read", 0, 0}, 3);
  // The token was checked out elsewhere.
  auditor.on_access(0, ObjectName("x"), AccessKind::kRead, 7);
  auditor.on_window_end(0, false);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, ViolationKind::kStaleToken);
}

TEST(Auditor, CleanWindowWithMatchingFootprint) {
  Auditor auditor;
  auditor.on_window_begin(0, {ObjectName("x"), "read", 0, 0}, 0);
  auditor.on_access(0, ObjectName("x"), AccessKind::kRead, 0);
  auditor.on_window_end(0, false);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
  EXPECT_EQ(auditor.windows(), 1u);
  EXPECT_EQ(auditor.accesses(), 1u);
}

TEST(Auditor, EmptyTouchWindowIsExempt) {
  // Emulated objects drive sync() directly without tokens; a window with no
  // stamped accesses means "not instrumented", not "touched nothing".
  Auditor auditor;
  auditor.on_window_begin(0, {ObjectName("x"), "write", 1, 0}, 0);
  auditor.on_window_end(0, false);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
}

TEST(Auditor, ResetForgetsEverything) {
  Auditor auditor;
  auditor.on_access(0, ObjectName("x"), AccessKind::kRead,
                    AccessToken::kNoWindow);
  EXPECT_FALSE(auditor.clean());
  auditor.reset();
  EXPECT_TRUE(auditor.clean());
  EXPECT_EQ(auditor.windows(), 0u);
  EXPECT_EQ(auditor.accesses(), 0u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(Auditor, ViolationDescriptionsCarryContext) {
  Auditor auditor;
  auditor.on_window_begin(0, {ObjectName("cas"), "cas", 0, 1}, 0);
  auditor.on_access(0, ObjectName("cas"), AccessKind::kWrite, 0);
  auditor.on_window_end(0, false);
  auditor.on_window_begin(1, {ObjectName("r"), "read", 0, 0}, 1);
  // An undeclared touch:
  auditor.on_access(1, ObjectName("hidden"), AccessKind::kWrite, 1);
  auditor.on_access(1, ObjectName("r"), AccessKind::kRead, 1);
  auditor.on_window_end(1, false);
  ASSERT_EQ(auditor.violations().size(), 1u);
  const std::string text = auditor.violations()[0].to_string();
  EXPECT_NE(text.find("undeclared-touch"), std::string::npos) << text;
  EXPECT_NE(text.find("p1"), std::string::npos) << text;
  EXPECT_NE(text.find("hidden"), std::string::npos) << text;
  // The "who/what/step" context prefix names the preceding grant window.
  EXPECT_NE(text.find("p0 cas.cas@0"), std::string::npos) << text;
}

// ------------------------------------------------- footprint conformance

TEST(Conformance, FlagsUndeclaredTouch) {
  WindowFootprint footprint;
  footprint.pid = 0;
  footprint.step = 2;
  footprint.declared = {ObjectName("x"), "read", 0, 0};
  footprint.touched = {{ObjectName("x"), AccessKind::kRead},
                       {ObjectName("y"), AccessKind::kWrite}};
  const auto violations = check_footprint(footprint);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ViolationKind::kUndeclaredTouch);
  EXPECT_EQ(violations[0].object, "y");
}

TEST(Conformance, FlagsWriteInDeclaredReadOp) {
  WindowFootprint footprint;
  footprint.pid = 1;
  footprint.declared = {ObjectName("x"), "read", 0, 0};
  footprint.touched = {{ObjectName("x"), AccessKind::kWrite}};
  const auto violations = check_footprint(footprint);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ViolationKind::kWriteInReadOp);
}

TEST(Conformance, FlagsPhantomDeclaration) {
  WindowFootprint footprint;
  footprint.pid = 0;
  footprint.declared = {ObjectName("x"), "write", 1, 0};
  footprint.touched = {{ObjectName("y"), AccessKind::kWrite}};
  const auto violations = check_footprint(footprint);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].kind, ViolationKind::kUndeclaredTouch);
  EXPECT_EQ(violations[1].kind, ViolationKind::kPhantomDeclaration);
}

TEST(Conformance, AbortedWindowSkipsThePhantomRuleOnly) {
  WindowFootprint footprint;
  footprint.pid = 0;
  footprint.declared = {ObjectName("x"), "write", 1, 0};
  footprint.touched = {{ObjectName("y"), AccessKind::kWrite}};
  footprint.aborted = true;
  const auto violations = check_footprint(footprint);
  // The undeclared touch still counts; the untouched declaration does not
  // (the op may have trapped before reaching its object).
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, ViolationKind::kUndeclaredTouch);
}

TEST(Conformance, UninstrumentedWindowIsExempt) {
  WindowFootprint footprint;
  footprint.pid = 0;
  footprint.declared = {ObjectName("x"), "write", 1, 0};
  EXPECT_TRUE(check_footprint(footprint).empty());
}

// --------------------------------------------------- simulator integration

TEST(SimIntegration, InstrumentedRegistersAuditClean) {
  sim::SimEnv env;
  sim::SwmrRegister<int> reg("r", sim::SwmrRegister<int>::kAnyWriter, 0);
  env.add_process([&](sim::Ctx& ctx) { reg.write(ctx, 7); });
  env.add_process([&](sim::Ctx& ctx) { (void)reg.read(ctx); });
  Auditor auditor;
  env.set_access_observer(&auditor);
  sim::RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
  EXPECT_EQ(auditor.windows(), 2u);
  EXPECT_EQ(auditor.accesses(), 2u);
}

TEST(SimIntegration, PreSyncPeekIsFlaggedAsUnsynced) {
  sim::SimEnv env;
  sim::MwmrRegister<int> reg("cell", 0);
  env.add_process([&](sim::Ctx& ctx) {
    // No sync yet: no window open.
    ctx.access_token().read(ObjectName("cell"));
    (void)reg.peek();
    (void)reg.read(ctx);
  });
  Auditor auditor;
  env.set_access_observer(&auditor);
  sim::RoundRobinScheduler scheduler;
  (void)env.run(scheduler);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, ViolationKind::kUnsyncedAccess);
}

TEST(SimIntegration, HiddenScratchRegisterIsFlagged) {
  sim::SimEnv env;
  core::HiddenScratchRegister reg("h");
  env.add_process([&](sim::Ctx& ctx) { (void)reg.read(ctx); });
  Auditor auditor;
  env.set_access_observer(&auditor);
  sim::RoundRobinScheduler scheduler;
  (void)env.run(scheduler);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].kind, ViolationKind::kUndeclaredTouch);
  EXPECT_EQ(auditor.violations()[0].object, "h.scratch");
}

TEST(SimIntegration, TrappedDisciplineViolationStaysAuditClean) {
  // A register trapping its own discipline (second writer on an SWMR)
  // aborts the window mid-op; the auditor must not pile a phantom
  // declaration on top of the intended InvariantError.
  sim::SimEnv env;
  sim::SwmrRegister<int> reg("r", sim::SwmrRegister<int>::kAnyWriter, 0);
  env.add_process([&](sim::Ctx& ctx) { reg.write(ctx, 1); });
  env.add_process([&](sim::Ctx& ctx) { reg.write(ctx, 2); });
  Auditor auditor;
  env.set_access_observer(&auditor);
  sim::RoundRobinScheduler scheduler;
  const sim::RunReport report = env.run(scheduler);
  EXPECT_EQ(report.finished_count(), 1);
  EXPECT_TRUE(auditor.clean()) << auditor.summary();
}

// ------------------------------------------------- commutation cross-check

/// Two processes writing the SAME register: the canonical non-commuting
/// pair.  The fingerprint exposes the final value so swapped replays can be
/// told apart even though traces and reports look identical.
class SameRegisterInstance final : public explore::SystemInstance {
 public:
  void populate(sim::SimEnv& env) override {
    env.add_process([this](sim::Ctx& ctx) { reg_.write(ctx, 1); });
    env.add_process([this](sim::Ctx& ctx) { reg_.write(ctx, 2); });
  }
  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport&) override {
    return std::nullopt;
  }
  std::string fingerprint(const sim::SimEnv&) override {
    return "a=" + std::to_string(reg_.peek());
  }

 private:
  sim::MwmrRegister<int> reg_{"a", 0};
};

/// Two processes writing DIFFERENT registers: genuinely independent.
class DisjointInstance final : public explore::SystemInstance {
 public:
  void populate(sim::SimEnv& env) override {
    env.add_process([this](sim::Ctx& ctx) { a_.write(ctx, 1); });
    env.add_process([this](sim::Ctx& ctx) { b_.write(ctx, 2); });
  }
  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport&) override {
    return std::nullopt;
  }
  std::string fingerprint(const sim::SimEnv&) override {
    return "a=" + std::to_string(a_.peek()) +
           ";b=" + std::to_string(b_.peek());
  }

 private:
  sim::MwmrRegister<int> a_{"a", 0};
  sim::MwmrRegister<int> b_{"b", 0};
};

CommuteOracle honest_oracle() {
  return [](const sim::OpDesc& a, const sim::OpDesc& b) {
    return explore::ops_commute(a, b);
  };
}

TEST(CommuteCheck, IndependentPairPassesSwappedReplay) {
  explore::FactorySystem system("disjoint", 2, [] {
    return std::make_unique<DisjointInstance>();
  });
  const std::vector<int> tape{0, 1};
  const CommuteCheckReport report =
      cross_check_commutation(system, tape, honest_oracle());
  EXPECT_TRUE(report.baseline_ok);
  EXPECT_EQ(report.pairs_considered, 1u);
  EXPECT_EQ(report.swaps_replayed, 1u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CommuteCheck, RefutesALyingOracle) {
  explore::FactorySystem system("same-register", 2, [] {
    return std::make_unique<SameRegisterInstance>();
  });
  const std::vector<int> tape{0, 1};
  // An oracle that calls conflicting writes independent must be refuted by
  // the swapped replay (the final register value flips).
  const CommuteCheckReport report = cross_check_commutation(
      system, tape, [](const sim::OpDesc&, const sim::OpDesc&) {
        return true;
      });
  EXPECT_TRUE(report.baseline_ok);
  EXPECT_EQ(report.pairs_considered, 1u);
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_EQ(report.mismatches[0].first_pid, 0);
  EXPECT_EQ(report.mismatches[0].second_pid, 1);
  EXPECT_FALSE(report.ok());
}

TEST(CommuteCheck, HonestOracleSkipsConflictingPairs) {
  explore::FactorySystem system("same-register", 2, [] {
    return std::make_unique<SameRegisterInstance>();
  });
  const std::vector<int> tape{0, 1};
  const CommuteCheckReport report =
      cross_check_commutation(system, tape, honest_oracle());
  EXPECT_TRUE(report.baseline_ok);
  EXPECT_EQ(report.pairs_considered, 0u);  // write/write never commutes
  EXPECT_TRUE(report.ok());
}

TEST(CommuteCheck, ForeignTapeFailsBaseline) {
  explore::FactorySystem system("disjoint", 2, [] {
    return std::make_unique<DisjointInstance>();
  });
  const CommuteCheckReport report =
      cross_check_commutation(system, {5, 7}, honest_oracle());
  EXPECT_FALSE(report.baseline_ok);
  EXPECT_EQ(report.swaps_replayed, 0u);
}

// --------------------------------------- explorer audit mode: negatives
//
// Every real system in the repository — fault sweeps included — must pass
// the audit clean: no ledger violations, no footprint drift, no
// commutation mismatch on any cross-checked schedule.

void expect_audit_clean(const explore::ExplorableSystem& system,
                        explore::ExploreOptions options = {}) {
  options.audit = true;
  const explore::ExploreResult result = explore::explore(system, options);
  EXPECT_TRUE(result.ok()) << system.name() << ": " << result.summary();
  EXPECT_TRUE(result.audit.enabled);
  EXPECT_TRUE(result.audit.clean())
      << system.name() << ": " << result.audit.summary();
  EXPECT_GT(result.audit.windows, 0u) << system.name();
  EXPECT_GT(result.audit.accesses, 0u) << system.name();
}

TEST(ExploreAudit, OneShotElectionAuditClean) {
  explore::ExploreOptions options;
  options.audit_commute_sample = 1;  // cross-check every schedule
  expect_audit_clean(explore::OneShotSystem(4, 2), options);
}

TEST(ExploreAudit, ThreeProcessOneShotAuditClean) {
  expect_audit_clean(explore::OneShotSystem(4, 3));
}

TEST(ExploreAudit, LlScElectionAuditClean) {
  explore::ExploreOptions options;
  options.preemption_bound = 2;  // keep the audited space affordable
  expect_audit_clean(explore::LlScSystem(3, 2), options);
}

TEST(ExploreAudit, FvtElectionAuditClean) {
  explore::ExploreOptions options;
  options.preemption_bound = 2;
  expect_audit_clean(explore::FvtSystem(3, 2), options);
}

TEST(ExploreAudit, SnapshotScanAuditClean) {
  explore::ExploreOptions options;
  options.preemption_bound = 2;
  // Audited with trace recording on as well; the linearizability check
  // itself reads the instance's own interval history, not the trace.
  options.record_trace = true;
  expect_audit_clean(explore::SnapshotScanSystem(1, 1), options);
}

TEST(ExploreAudit, FaultSweepAuditClean) {
  explore::ExploreOptions options;
  options.preemption_bound = 1;
  options.fault_bound = 1;
  options.iterative = true;
  expect_audit_clean(
      explore::RecoverableFvtSystem(3, 2, core::RestartBehavior::kRecover),
      options);
}

// --------------------------------------- explorer audit mode: positives

TEST(ExploreAudit, HiddenScratchMutantRefutedWithReplayableArtifact) {
  explore::AuditMutantSystem system(core::AuditMutant::kHiddenScratch);
  explore::ExploreOptions options;
  options.audit = true;
  const explore::ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.ok()) << "undeclared footprint not flagged";
  EXPECT_NE(result.violations[0].violation.find("undeclared-touch"),
            std::string::npos)
      << result.violations[0].violation;

  // The refutation must round-trip through the artifact format and replay
  // with zero divergences, like any property counterexample.
  const std::string artifact = result.violations[0].to_artifact();
  const auto parsed = explore::Counterexample::from_artifact(artifact);
  ASSERT_TRUE(parsed.has_value());
  const explore::ReplayOutcome replay =
      explore::replay_counterexample(system, *parsed, options);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);

  // Control: with the audit off the mutant is invisible.
  const explore::ExploreResult off = explore::explore(system, {});
  EXPECT_TRUE(off.ok()) << off.summary();
}

// Only the options switch the audit layer on: with a variable named like an
// audit switch exported, an audit-off explore() and replay still cannot see
// the mutant.
TEST(ExploreAudit, EnvironmentCannotSwitchAuditOn) {
  explore::AuditMutantSystem system(core::AuditMutant::kHiddenScratch);
  explore::ExploreOptions audited;
  audited.audit = true;
  const explore::ExploreResult result = explore::explore(system, audited);
  ASSERT_FALSE(result.ok());

  ASSERT_EQ(setenv("BSS_AUDIT", "1", 1), 0);
  const explore::ExploreResult off = explore::explore(system, {});
  const explore::ReplayOutcome replay =
      explore::replay_counterexample(system, result.violations[0], {});
  ASSERT_EQ(unsetenv("BSS_AUDIT"), 0);
  EXPECT_TRUE(off.ok()) << off.summary();
  EXPECT_FALSE(off.audit.enabled);
  EXPECT_FALSE(replay.violated) << replay.violation;
}

TEST(ExploreAudit, UnsyncedPeekMutantRefuted) {
  explore::AuditMutantSystem system(core::AuditMutant::kUnsyncedPeek);
  explore::ExploreOptions options;
  options.audit = true;
  const explore::ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.ok()) << "unsynced access not flagged";
  EXPECT_NE(result.violations[0].violation.find("unsynced-access"),
            std::string::npos)
      << result.violations[0].violation;
  const explore::ReplayOutcome replay =
      explore::replay_counterexample(system, result.violations[0], options);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.divergences, 0u);

  const explore::ExploreResult off = explore::explore(system, {});
  EXPECT_TRUE(off.ok()) << off.summary();
}

TEST(ExploreAudit, StealthCounterCaughtOnlyByCrossCheck) {
  explore::AuditMutantSystem system(core::AuditMutant::kStealthCounter);
  explore::ExploreOptions options;
  options.audit = true;
  options.audit_commute_sample = 1;
  const explore::ExploreResult result = explore::explore(system, options);
  // Ledger- and property-clean: no counterexample, no ledger violation.
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.audit.ledger_violations, 0u);
  // POR pruned the swapped schedule (reads "commute"), so only the
  // cross-check can notice that swapping the reads changes the outcome.
  EXPECT_EQ(result.stats.schedules, 1u) << result.stats.summary();
  EXPECT_GT(result.stats.sleep_set_prunes, 0u);
  EXPECT_GT(result.audit.commute_mismatches, 0u) << result.audit.summary();
  ASSERT_FALSE(result.audit.findings.empty());
  EXPECT_NE(result.audit.findings[0].find("commute mismatch"),
            std::string::npos)
      << result.audit.findings[0];
}

// ----------------------------------------------- determinism preservation
//
// The audit layer is passive: on audit-clean systems, audit on/off must
// yield byte-identical stats, violation lists and minimized artifacts.

void expect_audit_invariant(const explore::ExplorableSystem& system,
                            explore::ExploreOptions options = {}) {
  explore::ExploreOptions off = options;
  off.audit = false;
  explore::ExploreOptions on = options;
  on.audit = true;
  on.audit_commute_sample = 4;
  const explore::ExploreResult without = explore::explore(system, off);
  const explore::ExploreResult with = explore::explore(system, on);

  EXPECT_EQ(without.stats.summary(), with.stats.summary()) << system.name();
  EXPECT_EQ(without.exhausted, with.exhausted) << system.name();
  EXPECT_EQ(without.summary(), with.summary()) << system.name();
  ASSERT_EQ(without.violations.size(), with.violations.size())
      << system.name();
  for (std::size_t i = 0; i < without.violations.size(); ++i) {
    EXPECT_EQ(without.violations[i].decisions, with.violations[i].decisions)
        << system.name();
    EXPECT_EQ(without.violations[i].violation, with.violations[i].violation)
        << system.name();
    EXPECT_EQ(without.violations[i].to_artifact(),
              with.violations[i].to_artifact())
        << system.name();
  }
  // The audited arm really was audited — identical output is not vacuous.
  EXPECT_GT(with.audit.windows, 0u) << system.name();
}

TEST(AuditDeterminism, CleanSystemUnchanged) {
  expect_audit_invariant(explore::OneShotSystem(4, 2));
}

TEST(AuditDeterminism, ClaimAfterCasMutantUnchanged) {
  expect_audit_invariant(
      explore::OneShotSystem(4, 2, core::OneShotMutant::kClaimAfterCas));
}

TEST(AuditDeterminism, SplitCasMutantUnchanged) {
  expect_audit_invariant(
      explore::OneShotSystem(4, 2, core::OneShotMutant::kSplitCas));
}

TEST(AuditDeterminism, ScBlindMutantUnchanged) {
  explore::ExploreOptions options;
  options.fault_bound = 1;
  options.explore_sc_failures = true;
  options.iterative = true;
  expect_audit_invariant(explore::LlScSystem(3, 2, true), options);
  options.jobs = 4;  // the ledger and the swap replays under the worker pool
  expect_audit_invariant(explore::LlScSystem(3, 2, true), options);
}

TEST(AuditDeterminism, FreshClaimRestartMutantUnchanged) {
  explore::ExploreOptions options;
  options.preemption_bound = 1;
  options.fault_bound = 1;
  options.iterative = true;
  const explore::RecoverableFvtSystem system(
      3, 2, core::RestartBehavior::kFreshClaim);
  expect_audit_invariant(system, options);
  options.jobs = 4;  // the ledger and the swap replays under the worker pool
  expect_audit_invariant(system, options);
}

TEST(AuditDeterminism, ParallelExplorationUnchanged) {
  explore::ExploreOptions options;
  options.jobs = 4;
  options.stop_at_first_violation = false;
  options.max_violations = 4;
  expect_audit_invariant(
      explore::OneShotSystem(4, 3, core::OneShotMutant::kSplitCas), options);
}

}  // namespace
}  // namespace bss::audit
