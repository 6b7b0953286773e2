// bench_explore — the explorer's fast-path gate and its checkpoint/resume
// campaign (DESIGN.md §4e, §4f).
//
// By default it runs the fast-path gate on the mutant-refutation workload:
// the claim_after_cas and split_cas one-shot mutants at (k=4, n=3), naive
// DFS, every violation collected, no minimization (19,920 schedules,
// 15,936 violations).  Passes alternate between observers off (the replay
// fast path) and fully audited (audit on, every schedule commute-checked,
// metrics+events telemetry), three per side, and each side keeps its
// fastest pass.  The bench exits 1 unless audited/off is at least 2.0 and
// every pass's result (summary and violation tapes) equals the first off
// pass.  The explorer's rates are measured by perfbench; the identity
// checks across worker counts, pruning, telemetry and audit live in ctest.
//
// `--jobs N` sets the explorer worker count; `--out PATH` additionally
// writes a `bss-runreport v1` artifact carrying every row.  The runreport
// labels the one documented nondeterminism exception (the max_schedules
// valve) explicitly, so downstream tooling never mistakes a valve-capped
// comparison for a determinism violation.
//
// `--campaign NAME [--checkpoint PATH] [--checkpoint-every N]
// [--resume PATH] [--status PATH] [--status-every MS]` runs ONE long
// campaign instead of the gate — the checkpoint/resume smoke: CI starts
// a campaign with a checkpoint path (and a bss-status v1 heartbeat path),
// SIGKILLs the process mid-run, resumes from the artifact, and validates
// the final runreport, checkpoint and heartbeat with tools/report_check.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/skewed_system.h"
#include "obs/obs.h"

namespace {

using bss::explore::ExplorableSystem;
using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;

struct Row {
  std::string label;
  ExploreResult result;
  double seconds = 0;
};

Row timed_explore(std::string label, const ExplorableSystem& system,
                  const ExploreOptions& options) {
  Row row;
  row.label = std::move(label);
  const auto start = std::chrono::steady_clock::now();
  row.result = bss::explore::explore(system, options);
  row.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return row;
}

double rate_of(const Row& row) {
  return row.seconds > 0
             ? static_cast<double>(row.result.stats.schedules) / row.seconds
             : 0;
}

void print_table(const Row& row) {
  const auto& stats = row.result.stats;
  std::printf("%-28s %9s %11s %10s %9s %9s %s\n", "system", "schedules",
              "transitions", "sched/s", "slp-prune", "pre-prune", "coverage");
  std::printf("%-28s %9llu %11llu %10.0f %9llu %9llu %s\n", row.label.c_str(),
              static_cast<unsigned long long>(stats.schedules),
              static_cast<unsigned long long>(stats.transitions), rate_of(row),
              static_cast<unsigned long long>(stats.sleep_set_prunes),
              static_cast<unsigned long long>(stats.preemption_prunes),
              row.result.exhausted ? "exhaustive" : "bounded");
}

// ------------------------------------------------------- fast-path gate

constexpr int kRepeats = 3;          ///< passes per side
constexpr double kMinSpeedup = 2.0;  ///< audited/off must reach this

/// Naive DFS collecting every violation, unminimized: the refutation
/// workload's options, shared by the gate and the "mutant" campaign.
ExploreOptions collect_all(ExploreOptions options) {
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  return options;
}

/// True iff the two results agree on the summary (every stat, the exhausted
/// verdict, every violation message) and on every violation's tape.
bool same_result(const ExploreResult& a, const ExploreResult& b) {
  if (a.summary() != b.summary() ||
      a.violations.size() != b.violations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    if (a.violations[i].decisions != b.violations[i].decisions) return false;
  }
  return true;
}

struct Gate {
  double off_seconds = 0;        ///< fastest observers-off pass
  double audited_seconds = 0;    ///< fastest fully-audited pass
  std::uint64_t schedules = 0;   ///< per pass
  std::uint64_t violations = 0;  ///< per pass
  bool identical = true;         ///< every pass equals the first off pass
  double speedup() const {
    return off_seconds > 0 ? audited_seconds / off_seconds : 0;
  }
};

/// Alternates off, audited, off, audited, … so both sides see the same
/// drift in host load.  Results are deterministic, so only the clock may
/// differ between passes; the fastest pass is each side's least-contended
/// estimate.
Gate run_gate(int jobs) {
  bss::explore::OneShotSystem claim_after(
      4, 3, bss::core::OneShotMutant::kClaimAfterCas);
  bss::explore::OneShotSystem split_cas(4, 3,
                                        bss::core::OneShotMutant::kSplitCas);
  const std::vector<const ExplorableSystem*> mutants = {&claim_after,
                                                        &split_cas};
  bss::obs::Telemetry::Options obs_options;
  obs_options.metrics = true;
  obs_options.events = true;
  bss::obs::Telemetry telemetry(obs_options);

  Gate gate;
  std::vector<ExploreResult> first;
  for (int pass = 0; pass < 2 * kRepeats; ++pass) {
    const bool audited = pass % 2 == 1;
    ExploreOptions options = collect_all({});
    options.jobs = jobs;
    if (audited) {
      options.audit = true;
      options.audit_commute_sample = 1;
      options.telemetry = &telemetry;
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<ExploreResult> results;
    for (const ExplorableSystem* system : mutants) {
      results.push_back(bss::explore::explore(*system, options));
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    double& fastest = audited ? gate.audited_seconds : gate.off_seconds;
    if (pass < 2 || seconds < fastest) fastest = seconds;

    if (first.empty()) {
      for (const ExploreResult& result : results) {
        gate.schedules += result.stats.schedules;
        gate.violations += result.violations.size();
      }
      first = std::move(results);
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      gate.identical &= same_result(results[i], first[i]);
    }
  }
  return gate;
}

/// Labels the one documented nondeterminism exception in the runreport, so
/// downstream tooling comparing reports across worker counts knows exactly
/// which discrepancy is expected and which is a bug.
void note_valve_exception(bss::bench::BenchReport& report) {
  report.builder().environment(
      "determinism_exception",
      "max_schedules valve: with jobs > 1 the shared schedule budget is "
      "claimed concurrently, so which schedules fit under a cap that "
      "actually fires is timing-dependent (the run is flagged not exhausted "
      "either way); every other stat, violation and artifact is "
      "byte-identical at every worker count");
}

// ------------------------------------------------------------- campaigns

/// The valid --campaign names; parse_flags enumerates these on a typo.
const std::vector<std::string> kCampaigns = {"skewed", "mutant"};

/// `--campaign NAME`: one long exploration instead of the gate, wired to
/// the checkpoint/resume flags — the workload CI SIGKILLs mid-run and
/// resumes.  "skewed" is a clean six-figure-schedule sweep; "mutant" is a
/// collect-all refutation whose checkpoints carry violations.
int run_campaign(const bss::bench::BenchFlags& flags) {
  // Constructed BEFORE the exploration so the report's wall clock covers
  // the campaign itself — otherwise schedules/second divides by only the
  // report-assembly time and the headline is garbage.
  bss::bench::BenchReport report(flags, "bench_explore");
  ExploreOptions options;
  options.jobs = flags.jobs;
  options.checkpoint_path = flags.checkpoint;
  if (flags.checkpoint_every > 0) {
    options.checkpoint_every = flags.checkpoint_every;
  }
  options.resume_path = flags.resume;
  options.status_path = flags.status;
  options.status_every_ms = flags.status_every;

  Row row;
  if (flags.campaign == "skewed") {
    bss::explore::SkewedWriterSystem system(4, 7, 2);
    row = timed_explore("campaign:skewed", system, options);
  } else if (flags.campaign == "mutant") {
    bss::explore::OneShotSystem system(4, 3,
                                       bss::core::OneShotMutant::kSplitCas);
    row = timed_explore("campaign:mutant", system, collect_all(options));
  } else {
    // Unreachable: parse_flags validated the name against kCampaigns.
    std::fprintf(stderr,
                 "bench_explore: unknown campaign '%s' (valid: %s)\n",
                 flags.campaign.c_str(),
                 bss::bench::campaign_list(kCampaigns).c_str());
    return 2;
  }

  note_valve_exception(report);
  report.builder().environment("campaign",
                               bss::obs::json::Value(flags.campaign));
  report.builder().environment(
      "resumed", bss::obs::json::Value(!flags.resume.empty()));
  bss::obs::json::Object object;
  object.emplace("workload", bss::obs::json::Value(row.label));
  object.emplace("jobs", bss::obs::json::Value(flags.jobs));
  object.emplace("schedules",
                 bss::obs::json::Value(row.result.stats.schedules));
  object.emplace("violations",
                 bss::obs::json::Value(
                     static_cast<std::uint64_t>(row.result.violations.size())));
  object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
  object.emplace(
      "checkpoints_written",
      bss::obs::json::Value(row.result.checkpoints_written));
  object.emplace("seconds", bss::obs::json::Value(row.seconds));
  report.row(std::move(object));
  report.schedules(row.result.stats.schedules);

  print_table(row);
  std::printf("  checkpoints written: %llu%s\n",
              static_cast<unsigned long long>(row.result.checkpoints_written),
              flags.resume.empty() ? "" : " (resumed)");
  report.finalize();
  return row.result.exhausted ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags = bss::bench::parse_flags(
      argc, argv, /*accepts_jobs=*/true, /*accepts_checkpoint=*/true,
      kCampaigns);
  if (!flags.campaign.empty()) return run_campaign(flags);
  // Constructed before any exploration: the report's wall clock must span
  // the actual work or the schedules/second headline is meaningless.
  bss::bench::BenchReport report(flags, "bench_explore");
  const Gate gate = run_gate(flags.jobs);
  const bool ok = gate.identical && gate.speedup() >= kMinSpeedup;

  struct Side {
    const char* mode;
    double seconds;
  };
  const Side sides[] = {{"off", gate.off_seconds},
                        {"audited", gate.audited_seconds}};

  note_valve_exception(report);
  for (const Side& side : sides) {
    bss::obs::json::Object object;
    object.emplace("workload",
                   bss::obs::json::Value(std::string("mutant-refutation")));
    object.emplace("mode", bss::obs::json::Value(std::string(side.mode)));
    object.emplace("jobs", bss::obs::json::Value(flags.jobs));
    object.emplace("schedules", bss::obs::json::Value(gate.schedules));
    object.emplace("violations", bss::obs::json::Value(gate.violations));
    object.emplace("seconds", bss::obs::json::Value(side.seconds));
    report.row(std::move(object));
  }
  report.builder().stat("results_identical", gate.identical ? 1 : 0);
  report.builder().timing("fastpath_speedup",
                          bss::obs::json::Value(gate.speedup()));
  report.schedules(gate.schedules * 2 * kRepeats);

  std::printf("fast-path gate: mutant-refutation, jobs %d, fastest of %d "
              "passes per side\n%-10s %9s %10s %9s\n",
              flags.jobs, kRepeats, "mode", "schedules", "violations",
              "seconds");
  for (const Side& side : sides) {
    std::printf("%-10s %9llu %10llu %9.3f\n", side.mode,
                static_cast<unsigned long long>(gate.schedules),
                static_cast<unsigned long long>(gate.violations),
                side.seconds);
  }
  std::printf("  audited/off: %.2fx (gate >= %.1fx)%s\n", gate.speedup(),
              kMinSpeedup, gate.speedup() >= kMinSpeedup ? "" : " BELOW GATE");
  if (!gate.identical) {
    std::printf("FATAL: a pass's result differs from the first off pass "
                "(determinism or observer passivity violated)\n");
  }
  report.finalize();
  return ok ? 0 : 1;
}
