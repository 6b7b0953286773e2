// The kill-and-resume battery for `bss-checkpoint v1`.
//
// The durability contract under test: a campaign that is killed after any
// periodic checkpoint and resumed from the artifact must end byte-identical
// to an uninterrupted serial run — same stats summary, same exhausted
// verdict, same violations with the same minimized tapes.  The kill is the
// deterministic halt_after_checkpoints valve (the engine stops dead right
// after a periodic write, exactly what a SIGKILL leaves behind); CI
// additionally delivers a real SIGKILL through bench_explore.  On top of
// the resume loops: artifact round-trip byte-equality, golden mid-campaign
// seeds the engine must rewrite and resume byte for byte, and strict
// rejection of malformed inputs (unknown schema, truncation, missing keys,
// out-of-range pid tokens, structural lies, inconsistent explored siblings).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/mutant_elections.h"
#include "expect_identical.h"
#include "explore/checkpoint.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/skewed_system.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/runreport.h"
#include "obs/status.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::explore {
namespace {

using core::OneShotMutant;

/// Removes every temp_path file when the process exits.
struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const std::string& path : paths) std::remove(path.c_str());
  }
};

/// Per-process names, so copies of this binary that share a temp directory
/// (a plain and a sanitizer build, say) never touch each other's files.
std::string temp_path(const std::string& name) {
  static TempFiles files;
  files.paths.push_back(::testing::TempDir() + "/" +
                        std::to_string(getpid()) + "." + name);
  return files.paths.back();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs the campaign to completion through repeated kill-and-resume cycles:
/// every cycle halts right after `halt_after` periodic checkpoints (dropping
/// the engine and all in-memory state on the floor, like a SIGKILL would),
/// then the next cycle resumes from the artifact.  Returns the final,
/// non-halted result.
ExploreResult run_killed_campaign(const ExplorableSystem& system,
                                  ExploreOptions options,
                                  const std::string& path,
                                  std::uint64_t checkpoint_every,
                                  int* cycles_out = nullptr,
                                  std::uint64_t halt_after = 1) {
  options.checkpoint_path = path;
  options.checkpoint_every = checkpoint_every;
  options.halt_after_checkpoints = halt_after;
  int cycles = 0;
  for (; cycles < 1000; ++cycles) {
    ExploreOptions attempt = options;
    attempt.resume_path = cycles == 0 ? "" : path;
    const ExploreResult result = explore(system, attempt);
    if (!result.halted) {
      if (cycles_out != nullptr) *cycles_out = cycles;
      return result;
    }
    EXPECT_EQ(result.checkpoints_written, halt_after)
        << "a halted cycle writes exactly its periodic checkpoints";
  }
  ADD_FAILURE() << "campaign did not converge within 1000 resume cycles";
  if (cycles_out != nullptr) *cycles_out = cycles;
  return ExploreResult{};
}

/// run_killed_campaign with the visited-state cache engaged, serially and
/// at jobs=4, against the uninterrupted serial pruned run (returned).
/// Periodic checkpoints serialize the frozen per-pass cache and the
/// partials that finished units fold into the prefix under the pool lock;
/// the jobs=4 run also writes a heartbeat, which reads that prefix under
/// the same lock.
ExploreResult expect_pruned_kill_and_resume_identical(
    const ExplorableSystem& system, ExploreOptions options,
    const std::string& name, std::uint64_t checkpoint_every) {
  options.fingerprint_prune = true;
  options.jobs = 1;
  ExploreResult uninterrupted = explore(system, options);
  for (const int jobs : {1, 4}) {
    const std::string label = name + " pruned jobs=" + std::to_string(jobs);
    options.jobs = jobs;
    if (jobs > 1) {
      options.status_path = temp_path(name + "_status.json");
      options.status_every_ms = 1;
    }
    int cycles = 0;
    const ExploreResult resumed = run_killed_campaign(
        system, options, temp_path(name + "_fp.json"), checkpoint_every,
        &cycles);
    EXPECT_GE(cycles, 2) << label;
    expect_identical(uninterrupted, resumed, label);
  }
  EXPECT_TRUE(obs::validate_status(read_file(options.status_path)).empty());
  return uninterrupted;
}

/// A mid-campaign checkpoint checked in under tools/fuzz/corpus/checkpoint:
/// the artifact a jobs=1 run of `system` under `options` leaves when it is
/// halted after its `halt_after_checkpoints`-th periodic write.
struct GoldenSeed {
  std::string file;
  std::unique_ptr<ExplorableSystem> system;
  ExploreOptions options;
};

/// The golden seeds: LL/SC under a preemption bound with SC-failure, crash
/// and restart tokens (one `done` list continues prev_grant before a lower
/// pid); a POR collect-all mutant campaign whose frontier unit carries
/// violations and their tallies; and a pruned iterative sweep whose
/// artifact carries the frozen cache, coverage partials and dirty frames.
std::vector<GoldenSeed> golden_seeds() {
  std::vector<GoldenSeed> seeds;
  const auto add = [&](std::string file,
                       std::unique_ptr<ExplorableSystem> system,
                       ExploreOptions options, std::uint64_t every,
                       std::uint64_t halt) {
    options.jobs = 1;
    options.checkpoint_every = every;
    options.halt_after_checkpoints = halt;
    seeds.push_back({std::move(file), std::move(system), options});
  };
  ExploreOptions llsc;
  llsc.fault_bound = 1;
  llsc.explore_sc_failures = true;
  llsc.preemption_bound = 2;
  add("golden_llsc_faults.json", std::make_unique<LlScSystem>(3, 2), llsc, 41,
      11);
  ExploreOptions collect;
  collect.stop_at_first_violation = false;
  collect.max_violations = 50;
  add("golden_split_cas_collect.json",
      std::make_unique<OneShotSystem>(4, 3, OneShotMutant::kSplitCas),
      collect, 2, 5);
  ExploreOptions pruned;
  pruned.iterative = true;
  pruned.preemption_bound = 3;
  pruned.fingerprint_prune = true;
  add("golden_skewed_pruned.json",
      std::make_unique<SkewedWriterSystem>(3, 5, 2), pruned, 7, 1);
  return seeds;
}

std::string read_corpus_file(const std::string& name);

// ------------------------------------------------------ artifact round-trip

TEST(Checkpoint, CompleteArtifactRoundTripsByteIdentical) {
  const std::string path = temp_path("cp_roundtrip.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.checkpoint_path = path;
  const ExploreResult result = explore(system, options);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.checkpoints_written, 1u);  // just the final artifact

  const std::string text = read_file(path);
  EXPECT_TRUE(validate_checkpoint(text).empty());
  const auto cp = Checkpoint::from_artifact(text);
  ASSERT_TRUE(cp.has_value());
  EXPECT_TRUE(cp->complete);
  EXPECT_TRUE(cp->frontier.empty());
  EXPECT_EQ(cp->system, system.name());
  EXPECT_EQ(cp->stats.schedules, result.stats.schedules);
  EXPECT_EQ(cp->to_artifact(), text);  // byte-identical round trip
}

TEST(Checkpoint, HaltedArtifactWithFrontierRoundTripsByteIdentical) {
  const std::string path = temp_path("cp_frontier.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.use_por = false;  // 1680 schedules: the halt valve actually fires
  options.checkpoint_path = path;
  options.checkpoint_every = 30;
  options.halt_after_checkpoints = 1;
  const ExploreResult result = explore(system, options);
  ASSERT_TRUE(result.halted);

  const std::string text = read_file(path);
  EXPECT_TRUE(validate_checkpoint(text).empty());
  const auto cp = Checkpoint::from_artifact(text);
  ASSERT_TRUE(cp.has_value());
  EXPECT_FALSE(cp->complete);
  ASSERT_FALSE(cp->frontier.empty());
  EXPECT_EQ(cp->to_artifact(), text);
}

// ------------------------------------------------------ kill-and-resume

TEST(Checkpoint, KillAndResumeCleanCampaignByteIdentical) {
  // The skewed workload defeats POR entirely (504 schedules), so the
  // campaign is killed and resumed many times before it completes.
  SkewedWriterSystem system(4, 6, 1);
  const ExploreResult uninterrupted = explore(system, {});
  int cycles = 0;
  const ExploreResult resumed = run_killed_campaign(
      system, {}, temp_path("cp_clean.json"), 40, &cycles);
  EXPECT_GE(cycles, 2) << "the campaign must actually be killed mid-flight";
  expect_identical(uninterrupted, resumed, "clean kill-and-resume");

  ExploreOptions iterative;
  iterative.preemption_bound = 3;
  iterative.iterative = true;
  const ExploreResult pruned = expect_pruned_kill_and_resume_identical(
      system, iterative, "cp_clean", 10);
  EXPECT_GT(pruned.stats.fingerprint_prunes, 0u);
}

TEST(Checkpoint, KillAndResumeCollectAllMutantCampaignByteIdentical) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  ExploreOptions options;
  options.use_por = false;  // enough schedules for several kill cycles
  options.stop_at_first_violation = false;
  options.max_violations = 8;
  const ExploreResult uninterrupted = explore(system, options);
  ASSERT_FALSE(uninterrupted.ok());
  int cycles = 0;
  const ExploreResult resumed = run_killed_campaign(
      system, options, temp_path("cp_mutant.json"), 5, &cycles);
  EXPECT_GE(cycles, 1);
  expect_identical(uninterrupted, resumed, "collect-all kill-and-resume");
}

TEST(Checkpoint, KillAndResumeCrashRestartCampaignByteIdentical) {
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  const ExploreResult uninterrupted = explore(system, options);
  int cycles = 0;
  const ExploreResult resumed = run_killed_campaign(
      system, options, temp_path("cp_faults.json"), 25, &cycles);
  EXPECT_GE(cycles, 2);
  expect_identical(uninterrupted, resumed, "crash-restart kill-and-resume");
  // Every subtree here is fault-limited, so none is cleanly covered and the
  // cache prunes nothing; its keys and partials still ride every artifact.
  const ExploreResult pruned =
      expect_pruned_kill_and_resume_identical(system, options, "cp_faults", 25);
  EXPECT_EQ(pruned.stats.fingerprint_prunes, 0u);
}

TEST(Checkpoint, KillAndResumeWithFourWorkersByteIdentical) {
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.use_por = false;  // 1680 schedules
  const ExploreResult uninterrupted = explore(system, options);  // serial
  options.jobs = 4;
  const ExploreResult resumed = run_killed_campaign(
      system, options, temp_path("cp_jobs4.json"), 80);
  expect_identical(uninterrupted, resumed, "jobs=4 kill-and-resume");
}

TEST(Checkpoint, KillAndResumeCollectAllWithFourWorkersByteIdentical) {
  // The mutant-refutation shape (naive DFS, every violation kept, no ddmin)
  // at jobs=4: owners publish their frames, floor and result only when they
  // split or a checkpoint falls due, so every checkpoint serializes
  // snapshots of both kinds.  A cycle is killed after its 16th checkpoint
  // at checkpoint_every=7 and its second at 80, about ten cycles a
  // campaign (a kill after every checkpoint takes over two minutes under
  // TSan).
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 30;
  options.minimize = false;
  const ExploreResult uninterrupted = explore(system, options);  // serial
  ASSERT_FALSE(uninterrupted.ok());
  options.jobs = 4;
  for (const std::uint64_t every : {7u, 80u}) {
    const std::string label =
        "collect-all jobs=4 checkpoint_every=" + std::to_string(every);
    int cycles = 0;
    const ExploreResult resumed = run_killed_campaign(
        system, options, temp_path("cp_collect_jobs4.json"), every, &cycles,
        /*halt_after=*/every < 10 ? 16 : 2);
    EXPECT_GE(cycles, 2) << label;
    expect_identical(uninterrupted, resumed, label);
  }
  // A small cap: the fold's stop lands inside a resumed pass.
  options.max_violations = 100;
  options.jobs = 1;
  const ExploreResult capped = explore(system, options);  // serial
  ASSERT_EQ(capped.violations.size(), 100u);
  options.jobs = 4;
  int cycles = 0;
  const ExploreResult resumed =
      run_killed_campaign(system, options, temp_path("cp_capped_jobs4.json"),
                          7, &cycles, /*halt_after=*/16);
  EXPECT_GE(cycles, 2) << "the stop must land after a resume";
  expect_identical(capped, resumed, "collect-100 jobs=4");
}

TEST(Checkpoint, ResumeFromCompleteArtifactReproducesTheResult) {
  const std::string path = temp_path("cp_complete.json");
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.checkpoint_path = path;
  const ExploreResult first = explore(system, options);
  ASSERT_FALSE(first.ok());

  ExploreOptions again = options;
  again.resume_path = path;
  const ExploreResult second = explore(system, again);
  EXPECT_FALSE(second.halted);
  expect_identical(first, second, "resume from complete artifact");
}

// ------------------------------------------------------ resume validation

TEST(Checkpoint, ResumeRejectsDifferentSystem) {
  const std::string path = temp_path("cp_wrong_system.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.checkpoint_path = path;
  explore(system, options);

  OneShotSystem other(4, 2);
  ExploreOptions resume;
  resume.resume_path = path;
  resume.checkpoint_path = path;
  EXPECT_THROW(explore(other, resume), InvariantError);
}

TEST(Checkpoint, ResumeRejectsDifferentResultAffectingOptions) {
  const std::string path = temp_path("cp_wrong_options.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.checkpoint_path = path;
  explore(system, options);

  // Every result-affecting field, flipped one at a time.
  using Flip = void (*)(ExploreOptions&);
  const std::pair<const char*, Flip> flips[] = {
      {"max_depth", [](ExploreOptions& o) { o.max_depth -= 1; }},
      {"preemption_bound", [](ExploreOptions& o) { o.preemption_bound = 5; }},
      {"iterative", [](ExploreOptions& o) { o.iterative = true; }},
      {"use_por", [](ExploreOptions& o) { o.use_por = false; }},
      {"max_schedules", [](ExploreOptions& o) { o.max_schedules -= 1; }},
      {"stop_at_first_violation",
       [](ExploreOptions& o) { o.stop_at_first_violation = false; }},
      {"max_violations", [](ExploreOptions& o) { o.max_violations -= 1; }},
      {"minimize", [](ExploreOptions& o) { o.minimize = false; }},
      {"shrink_budget", [](ExploreOptions& o) { o.shrink_budget -= 1; }},
      {"record_trace", [](ExploreOptions& o) { o.record_trace = true; }},
      {"fault_bound", [](ExploreOptions& o) { o.fault_bound = 1; }},
      {"explore_crashes",
       [](ExploreOptions& o) { o.explore_crashes = false; }},
      {"explore_restarts",
       [](ExploreOptions& o) { o.explore_restarts = false; }},
      {"explore_sc_failures",
       [](ExploreOptions& o) { o.explore_sc_failures = true; }},
      {"audit", [](ExploreOptions& o) { o.audit = true; }},
      {"audit_commute_sample",
       [](ExploreOptions& o) { o.audit_commute_sample = 8; }},
      {"fingerprint_prune",
       [](ExploreOptions& o) { o.fingerprint_prune = true; }},
  };
  for (const auto& [name, flip] : flips) {
    ExploreOptions resume = options;
    resume.resume_path = path;
    flip(resume);
    EXPECT_THROW(explore(system, resume), InvariantError) << name;
  }

  // Scheduling and observation knobs are excluded from the fingerprint.
  obs::Telemetry telemetry;
  ExploreOptions benign = options;
  benign.resume_path = path;
  benign.jobs = 4;
  benign.checkpoint_every = 7;
  benign.status_path = temp_path("cp_benign_status.json");
  benign.status_every_ms = 5;
  benign.telemetry = &telemetry;
  EXPECT_FALSE(explore(system, benign).halted);
}

// ----------------------------------------------------- counter listings

TEST(Checkpoint, EveryCounterRoundTripsUnderItsOwnKeyAndFolds) {
  // Each counter gets a distinct value, so a table row bound to the wrong
  // member (or the wrong key) cannot round-trip unnoticed.  The key lists
  // here are written out independently of the engine's counter tables.
  using StatsMember = std::uint64_t ExploreStats::*;
  const std::pair<const char*, StatsMember> stats_keys[] = {
      {"schedules", &ExploreStats::schedules},
      {"transitions", &ExploreStats::transitions},
      {"timer_grants", &ExploreStats::timer_grants},
      {"sleep_set_prunes", &ExploreStats::sleep_set_prunes},
      {"preemption_prunes", &ExploreStats::preemption_prunes},
      {"truncated", &ExploreStats::truncated},
      {"max_depth_seen", &ExploreStats::max_depth_seen},
      {"shrink_runs", &ExploreStats::shrink_runs},
      {"shrink_budget_hits", &ExploreStats::shrink_budget_hits},
      {"fault_prunes", &ExploreStats::fault_prunes},
      {"faults_injected", &ExploreStats::faults_injected},
      {"fingerprint_prunes", &ExploreStats::fingerprint_prunes},
      {"fault_points", &ExploreStats::fault_points},
  };
  using AuditMember = std::uint64_t AuditSummary::*;
  const std::pair<const char*, AuditMember> audit_keys[] = {
      {"windows", &AuditSummary::windows},
      {"accesses", &AuditSummary::accesses},
      {"ledger_violations", &AuditSummary::ledger_violations},
      {"schedules_cross_checked", &AuditSummary::schedules_cross_checked},
      {"pairs_considered", &AuditSummary::pairs_considered},
      {"swaps_replayed", &AuditSummary::swaps_replayed},
      {"commute_mismatches", &AuditSummary::commute_mismatches},
  };
  const auto stats_with = [&](std::uint64_t base) {
    ExploreStats stats;
    std::uint64_t value = base;
    for (const auto& [key, member] : stats_keys) stats.*member = ++value;
    return stats;
  };
  const auto audit_with = [&](std::uint64_t base) {
    AuditSummary audit;
    audit.enabled = true;
    std::uint64_t value = base;
    for (const auto& [key, member] : audit_keys) audit.*member = ++value;
    audit.note("finding " + std::to_string(base));
    return audit;
  };

  // The prefix result and a frontier unit's tally, plus the tally of one
  // of its violations, each with its own values.
  Checkpoint cp;
  cp.system = "counters";
  cp.processes = 2;
  cp.stats = stats_with(100);
  cp.audit = audit_with(200);
  CheckpointUnit unit;
  unit.complete = true;
  unit.result.stats = stats_with(300);
  unit.result.audit = audit_with(400);
  unit.result.fault_points = {
      {sim::encode_action(sim::ActionKind::kCrash, 1), 3}};
  Counterexample cex;
  cex.system = cp.system;
  cex.processes = cp.processes;
  cex.violation = "counter probe";
  cex.decisions = {0, 1};
  cex.shrunk_from = 2;
  unit.result.violations.push_back(cex);
  UnitTally tally;
  tally.stats = stats_with(500);
  tally.audit = audit_with(600);
  tally.budget_limited = true;
  unit.result.tallies.push_back(tally);
  cp.frontier.push_back(unit);

  const std::string text = cp.to_artifact();
  const auto root = obs::json::Value::parse(text);
  ASSERT_TRUE(root.has_value());
  const obs::json::Object& json_unit =
      root->as_object().at("frontier").as_array().at(0).as_object();
  const obs::json::Object& json_violation =
      json_unit.at("violations").as_array().at(0).as_object();
  const auto expect_keys = [&](const obs::json::Object& object,
                               const ExploreStats& stats,
                               const AuditSummary& audit,
                               const std::string& label) {
    const obs::json::Object& json_stats = object.at("stats").as_object();
    EXPECT_EQ(json_stats.size(), std::size(stats_keys)) << label;
    for (const auto& [key, member] : stats_keys) {
      ASSERT_EQ(json_stats.count(key), 1u) << label << " " << key;
      EXPECT_EQ(json_stats.at(key).as_int(),
                static_cast<std::int64_t>(stats.*member))
          << label << " " << key;
    }
    const obs::json::Object& json_audit = object.at("audit").as_object();
    EXPECT_EQ(json_audit.size(), std::size(audit_keys) + 2) << label;
    for (const auto& [key, member] : audit_keys) {
      ASSERT_EQ(json_audit.count(key), 1u) << label << " " << key;
      EXPECT_EQ(json_audit.at(key).as_int(),
                static_cast<std::int64_t>(audit.*member))
          << label << " " << key;
    }
  };
  expect_keys(root->as_object(), cp.stats, cp.audit, "prefix");
  expect_keys(json_unit, unit.result.stats, unit.result.audit, "unit");
  expect_keys(json_violation, tally.stats, tally.audit, "violation");

  std::string error;
  const auto parsed = Checkpoint::from_artifact(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_artifact(), text);
  ASSERT_EQ(parsed->frontier.size(), 1u);
  const UnitResult& result = parsed->frontier[0].result;
  ASSERT_EQ(result.tallies.size(), 1u);
  const auto expect_same = [&](const ExploreStats& stats,
                               const ExploreStats& want,
                               const AuditSummary& audit,
                               const AuditSummary& audit_want,
                               const std::string& label) {
    for (const auto& [key, member] : stats_keys) {
      EXPECT_EQ(stats.*member, want.*member) << label << " " << key;
    }
    for (const auto& [key, member] : audit_keys) {
      EXPECT_EQ(audit.*member, audit_want.*member) << label << " " << key;
    }
    EXPECT_EQ(audit.enabled, audit_want.enabled) << label;
    EXPECT_EQ(audit.findings, audit_want.findings) << label;
  };
  expect_same(parsed->stats, cp.stats, parsed->audit, cp.audit, "prefix");
  expect_same(result.stats, unit.result.stats, result.audit,
              unit.result.audit, "unit");
  expect_same(result.tallies[0].stats, tally.stats, result.tallies[0].audit,
              tally.audit, "violation");
  EXPECT_EQ(result.fault_points, unit.result.fault_points);
  EXPECT_TRUE(result.tallies[0].budget_limited);
  EXPECT_FALSE(result.tallies[0].fault_limited);

  // merge_from: sums add, max_depth_seen keeps the larger value,
  // fault_points is left alone.
  ExploreStats total = stats_with(100);
  const ExploreStats part = stats_with(1000);
  total.merge_from(part);
  const ExploreStats before = stats_with(100);
  for (const auto& [key, member] : stats_keys) {
    const std::string name = key;
    if (name == "max_depth_seen") {
      EXPECT_EQ(total.*member, part.*member) << key;
    } else if (name == "fault_points") {
      EXPECT_EQ(total.*member, before.*member) << key;
    } else {
      EXPECT_EQ(total.*member, before.*member + part.*member) << key;
    }
  }
  total.merge_from(stats_with(0));  // a smaller high-water mark
  EXPECT_EQ(total.max_depth_seen, part.max_depth_seen);

  AuditSummary audit_total = audit_with(200);
  audit_total.enabled = false;
  const AuditSummary audit_part = audit_with(2000);
  audit_total.merge_from(audit_part);
  const AuditSummary audit_before = audit_with(200);
  for (const auto& [key, member] : audit_keys) {
    EXPECT_EQ(audit_total.*member, audit_before.*member + audit_part.*member)
        << key;
  }
  EXPECT_TRUE(audit_total.enabled);
  EXPECT_EQ(audit_total.findings,
            (std::vector<std::string>{"finding 200", "finding 2000"}));
}

// --------------------------------------------------- malformed artifacts

/// A real halted artifact (non-empty frontier) to corrupt.  ctest runs
/// every case in its own process, so each process writes its own donor.
const std::string& frontier_artifact() {
  static const std::string text = [] {
    const std::string path = temp_path("cp_donor.json");
    OneShotSystem system(4, 3);
    ExploreOptions options;
    options.use_por = false;  // big enough that the halt valve fires
    options.checkpoint_path = path;
    options.checkpoint_every = 30;
    options.halt_after_checkpoints = 1;
    const ExploreResult result = explore(system, options);
    expects(result.halted, "donor campaign must halt mid-flight");
    return read_file(path);
  }();
  return text;
}

/// Parses the donor artifact, applies `mutate` to the root object, and
/// returns the re-dumped document.
template <class Fn>
std::string mutated_artifact(Fn mutate) {
  auto value = obs::json::Value::parse(frontier_artifact());
  expects(value.has_value(), "donor artifact must parse");
  mutate(value->as_object());
  return value->dump(2) + "\n";
}

void expect_rejected(const std::string& text, const std::string& label) {
  std::string error;
  EXPECT_FALSE(Checkpoint::from_artifact(text, &error).has_value()) << label;
  EXPECT_FALSE(error.empty()) << label;
  EXPECT_FALSE(validate_checkpoint(text).empty()) << label;
}

TEST(Checkpoint, RejectsUnknownSchemaVersion) {
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root["schema"] = obs::json::Value("bss-checkpoint v2");
                  }),
                  "unknown version");
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root.erase("schema");
                  }),
                  "missing schema");
}

TEST(Checkpoint, RejectsTruncatedDocument) {
  const std::string& text = frontier_artifact();
  expect_rejected(text.substr(0, text.size() / 2), "truncated JSON");
  expect_rejected("", "empty document");
  expect_rejected("not json at all\n", "garbage");
}

TEST(Checkpoint, RejectsMissingAndUnknownKeys) {
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root.erase("frontier");
                  }),
                  "missing frontier");
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root.erase("stats");
                  }),
                  "missing stats");
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root["extra"] = obs::json::Value(1);
                  }),
                  "unknown key");
}

TEST(Checkpoint, RejectsOutOfRangePidTokens) {
  const auto poison_first_chosen = [](const char* token) {
    return [token](obs::json::Object& root) {
      auto& frontier = root.at("frontier").as_array();
      for (auto& unit : frontier) {
        auto& frames = unit.as_object().at("frames").as_array();
        if (frames.empty()) continue;
        frames.front().as_object()["chosen"] = obs::json::Value(token);
        return;
      }
      expects(false, "donor frontier has no frames to poison");
    };
  };
  // pid >= the artifact's own process count
  expect_rejected(mutated_artifact(poison_first_chosen("7")),
                  "pid past process count");
  // pid past the dense-encoding ceiling
  expect_rejected(mutated_artifact(poison_first_chosen("c999999999999")),
                  "pid past encoding ceiling");
  expect_rejected(mutated_artifact(poison_first_chosen("x1")),
                  "unknown action prefix");
  // Non-canonical spellings of in-range pids (the donor has 3 processes)
  for (const char* token :
       {"+2", "-0", "02", "002", " 2", "2 ", "c+1", "s-0", "r01"}) {
    expect_rejected(mutated_artifact(poison_first_chosen(token)),
                    std::string("non-canonical token '") + token + "'");
  }
}

/// Resumes `seed`'s campaign from `text` and expects the replay to reject
/// it with an InvariantError naming `frame`.
void expect_resume_rejected(const GoldenSeed& seed, ExploreOptions options,
                            const std::string& text, const std::string& frame,
                            const std::string& label) {
  const std::string path = temp_path("cp_lie.json");
  ASSERT_TRUE(obs::write_file_atomic(path, text)) << label;
  options.resume_path = path;
  options.checkpoint_path = path;
  options.halt_after_checkpoints = 0;
  try {
    explore(*seed.system, options);
    ADD_FAILURE() << label << ": resume accepted the artifact";
  } catch (const InvariantError& error) {
    EXPECT_NE(std::string(error.what()).find(frame), std::string::npos)
        << label << ": " << error.what();
  }
}

TEST(Checkpoint, RejectsStructuralLies) {
  // complete campaign with a non-empty frontier
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root["complete"] = obs::json::Value(true);
                  }),
                  "complete with outstanding frontier");
  // floor past the frame stack
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    auto& frontier = root.at("frontier").as_array();
                    for (auto& unit : frontier) {
                      auto& obj = unit.as_object();
                      const auto frames =
                          obj.at("frames").as_array().size();
                      obj["floor"] = obs::json::Value(
                          static_cast<std::uint64_t>(frames + 1));
                      return;
                    }
                  }),
                  "floor past frame stack");

  // Lies only the resume replay can see: a frame's `done` list must be
  // exactly the feasible choices before `chosen` in the engine's order.  In
  // the LL/SC seed's unit 0 (runnable {0,1} throughout) frame 4 chose 1
  // after 0; frame 5 has 0 asleep and continues 1; frame 14 chose c1 after
  // 1 (prev_grant), 0 and c0.
  const GoldenSeed seed = std::move(golden_seeds().front());
  const std::string text = read_corpus_file(seed.file);
  const auto with_frame = [&](std::size_t frame, const char* key,
                              obs::json::Value value) {
    auto root = obs::json::Value::parse(text);
    expects(root.has_value(), "golden seed must parse");
    root->as_object()
        .at("frontier")
        .as_array()
        .at(0)
        .as_object()
        .at("frames")
        .as_array()
        .at(frame)
        .as_object()[key] = std::move(value);
    return root->dump(2) + "\n";
  };
  const auto tokens = [](std::vector<const char*> list) {
    obs::json::Array array;
    for (const char* token : list) array.emplace_back(token);
    return obs::json::Value(std::move(array));
  };
  // Re-exploring the dropped sibling would count its schedules twice.
  expect_resume_rejected(seed, seed.options,
                         with_frame(4, "done", tokens({})), "unit 0 frame 4",
                         "dropped sibling");
  expect_resume_rejected(seed, seed.options,
                         with_frame(5, "done", tokens({"0"})),
                         "unit 0 frame 5", "asleep sibling");
  expect_resume_rejected(seed, seed.options,
                         with_frame(14, "done", tokens({"0", "1", "c0"})),
                         "unit 0 frame 14", "siblings out of order");
  expect_resume_rejected(seed, seed.options,
                         with_frame(5, "chosen", obs::json::Value("0")),
                         "unit 0 frame 5", "asleep chosen");
  // Under a preemption bound of 1, frame 14 (one preemption spent, 1 last
  // granted) cannot grant 0: its persisted `done` lists an over-budget
  // sibling.
  auto root = obs::json::Value::parse(text);
  ASSERT_TRUE(root.has_value());
  root->as_object().at("options").as_object()["preemption_bound"] =
      obs::json::Value(1);
  ExploreOptions tighter = seed.options;
  tighter.preemption_bound = 1;
  expect_resume_rejected(seed, tighter, root->dump(2) + "\n",
                         "unit 0 frame 14", "over-budget sibling");
}

TEST(Checkpoint, WriteIsAtomicReplacement) {
  const std::string path = temp_path("cp_atomic.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "previous contents";
  }
  ASSERT_TRUE(obs::write_file_atomic(path, "new contents\n"));
  EXPECT_EQ(read_file(path), "new contents\n");
  const std::filesystem::path target(path);
  const std::string tmp_prefix = target.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(tmp_prefix, 0), 0u)
        << "the temp file must not survive the rename: " << entry.path();
  }
}

TEST(Checkpoint, WriteUsesAPerProcessTemporaryName) {
  // Two writers of one path must not share a temporary file: a directory
  // squatting on the shared name `<path>.tmp` does not block this process.
  const std::string path = temp_path("cp_tmp_squat.json");
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_TRUE(obs::write_file_atomic(path, "contents\n"));
  EXPECT_EQ(read_file(path), "contents\n");
  std::filesystem::remove(path + ".tmp");
}

// ---------------------------------------------------------------------------
// Fuzz-corpus regressions.  tools/fuzz/corpus/checkpoint holds the seed and
// harvested inputs for fuzz_checkpoint; replaying them here keeps every
// malformed shape a named, debuggable regression even without the fuzz
// driver.  BSS_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt.

std::string read_corpus_file(const std::string& name) {
  const std::string path =
      std::string(BSS_FUZZ_CORPUS_DIR) + "/checkpoint/" + name;
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(stream.is_open()) << "missing corpus file: " << path;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

TEST(CheckpointCorpus, RealCampaignSeedRoundTripsByteIdentical) {
  const std::string text = read_corpus_file("campaign.json");
  std::string error;
  const auto parsed = Checkpoint::from_artifact(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_artifact(), text)
      << "a bench_explore-written checkpoint must already be canonical";
}

TEST(CheckpointCorpus, GoldenSeedsAreRewrittenAndResumeByteIdentical) {
  for (const GoldenSeed& seed : golden_seeds()) {
    const std::string text = read_corpus_file(seed.file);
    std::string error;
    const auto parsed = Checkpoint::from_artifact(text, &error);
    ASSERT_TRUE(parsed.has_value()) << seed.file << ": " << error;
    EXPECT_FALSE(parsed->frontier.empty()) << seed.file;
    EXPECT_EQ(parsed->to_artifact(), text) << seed.file << " round trip";

    // The engine halted at the same point writes the same bytes.
    ExploreOptions halted = seed.options;
    halted.checkpoint_path = temp_path("golden_" + seed.file);
    ASSERT_TRUE(explore(*seed.system, halted).halted) << seed.file;
    EXPECT_EQ(read_file(halted.checkpoint_path), text) << seed.file;

    // Resuming from the seed ends where an uninterrupted run ends.
    ExploreOptions plain = seed.options;
    plain.checkpoint_every = 0;
    plain.halt_after_checkpoints = 0;
    const ExploreResult uninterrupted = explore(*seed.system, plain);
    ExploreOptions resume = plain;
    resume.resume_path = temp_path("golden_resume_" + seed.file);
    ASSERT_TRUE(obs::write_file_atomic(resume.resume_path, text));
    resume.checkpoint_path = resume.resume_path;
    const ExploreResult resumed = explore(*seed.system, resume);
    EXPECT_FALSE(resumed.halted) << seed.file;
    expect_identical(uninterrupted, resumed, seed.file + " resumed");
  }
}

TEST(CheckpointCorpus, TruncatedRealArtifactIsRejectedWithReason) {
  const std::string text = read_corpus_file("truncated.json");
  std::string error;
  EXPECT_FALSE(Checkpoint::from_artifact(text, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCorpus, SchemaOnlyDocumentIsRejectedWithReason) {
  const std::string text = read_corpus_file("schema_only.json");
  std::string error;
  EXPECT_FALSE(Checkpoint::from_artifact(text, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCorpus, EveryCorpusFileParsesOrRejectsWithoutCrashing) {
  const std::string dir = std::string(BSS_FUZZ_CORPUS_DIR) + "/checkpoint";
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seen;
    std::ifstream stream(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string text = buffer.str();
    std::string error;
    const auto parsed = Checkpoint::from_artifact(text, &error);
    // The fuzz_checkpoint oracles: gate/parse agreement, reasons on
    // rejection, to_artifact a fixed point on acceptance.
    EXPECT_EQ(parsed.has_value(), validate_checkpoint(text).empty())
        << entry.path();
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty()) << entry.path();
      continue;
    }
    const std::string round = parsed->to_artifact();
    const auto reparsed = Checkpoint::from_artifact(round, &error);
    ASSERT_TRUE(reparsed.has_value()) << entry.path() << ": " << error;
    EXPECT_EQ(reparsed->to_artifact(), round) << entry.path();
  }
  EXPECT_GE(seen, 3u) << "corpus dir unexpectedly empty: " << dir;
}

}  // namespace
}  // namespace bss::explore
