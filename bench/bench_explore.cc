// bench_explore — throughput and pruning-ratio table for the schedule
// explorer (DESIGN.md "Schedule exploration").
//
// For each system we explore the schedule space twice — naive DFS and
// sleep-set POR — and report complete schedules, granted transitions,
// states/sec, and the POR pruning ratio (fraction of naive schedules the
// sleep sets never had to run).  The LL/SC rows also show Chess-style
// iterative preemption bounding at small budgets.
//
// The parallel-scaling section runs the mutant-refutation workload (every
// seeded mutant explored exhaustively, collecting all violations) at
// --jobs N against the serial baseline, checks the deterministic-merge
// invariant on the spot (identical schedules totals and identical violation
// tapes), and replays a minimized artifact produced under the worker pool.
//
// The telemetry-overhead section re-runs the refutation workload with the
// observability layer off, metrics-only, and metrics+events, verifying on
// the spot that results are byte-identical in every mode (the ObsSink
// passivity contract) and reporting the relative cost of each layer.
//
// The steal-scaling section runs the skewed-writer workload — one long
// writer against three short ones on a single register, the shape a fixed
// prefix-depth split load-balances worst — at 1/2/4/8 workers, checking
// byte-identity against the serial baseline on the spot (EXPERIMENTS.md
// carries the table).
//
// `--json` prints the same rows as a JSON array instead of the tables;
// `--jobs N` sets the explorer worker count (results are identical for
// every N — only the rate moves); `--out PATH` additionally writes a
// `bss-runreport v1` artifact carrying every row.  The runreport labels the
// one documented nondeterminism exception (the max_schedules valve)
// explicitly, so downstream tooling never mistakes a valve-capped
// comparison for a determinism violation.
//
// `--campaign NAME [--checkpoint PATH] [--checkpoint-every N]
// [--resume PATH] [--status PATH] [--status-every MS]` runs ONE long
// campaign instead of the tables — the checkpoint/resume smoke: CI starts
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

void print_table(const std::vector<Row>& rows) {
  std::printf("%-28s %9s %11s %10s %9s %9s %s\n", "system", "schedules",
              "transitions", "sched/s", "slp-prune", "pre-prune", "coverage");
  for (const Row& row : rows) {
    const auto& stats = row.result.stats;
    std::printf("%-28s %9llu %11llu %10.0f %9llu %9llu %s\n",
                row.label.c_str(),
                static_cast<unsigned long long>(stats.schedules),
                static_cast<unsigned long long>(stats.transitions),
                rate_of(row),
                static_cast<unsigned long long>(stats.sleep_set_prunes),
                static_cast<unsigned long long>(stats.preemption_prunes),
                row.result.exhausted ? "exhaustive" : "bounded");
  }
}

void print_json(const std::vector<Row>& rows, bool more) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& stats = rows[i].result.stats;
    std::printf(
        "  {\"system\": \"%s\", \"schedules\": %llu, \"transitions\": %llu, "
        "\"schedules_per_sec\": %.0f, \"sleep_set_prunes\": %llu, "
        "\"preemption_prunes\": %llu, \"exhausted\": %s}%s\n",
        rows[i].label.c_str(),
        static_cast<unsigned long long>(stats.schedules),
        static_cast<unsigned long long>(stats.transitions), rate_of(rows[i]),
        static_cast<unsigned long long>(stats.sleep_set_prunes),
        static_cast<unsigned long long>(stats.preemption_prunes),
        rows[i].result.exhausted ? "true" : "false",
        more || i + 1 < rows.size() ? "," : "");
  }
}

// ----------------------------------------------------- parallel scaling

/// The mutant-refutation workload: every seeded mutant, explored
/// exhaustively under naive DFS (all violations collected, no minimization
/// — the cost being measured is schedule-space traversal, not ddmin; POR is
/// off so the space is large enough for the worker pool to bite).
ExploreOptions refutation_options(int jobs) {
  ExploreOptions options;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  options.jobs = jobs;
  return options;
}

struct ScaleRow {
  std::string label;
  int jobs = 1;
  double seconds = 0;
  std::uint64_t schedules = 0;
  std::size_t violations = 0;
  bool identical = true;  ///< vs the jobs=1 baseline of the same workload
};

/// True iff the two results are byte-identical where it matters: schedule
/// totals, violation count, and every violation's decision tape.
bool results_match(const ExploreResult& a, const ExploreResult& b) {
  if (a.stats.schedules != b.stats.schedules ||
      a.stats.transitions != b.stats.transitions ||
      a.exhausted != b.exhausted ||
      a.violations.size() != b.violations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    if (a.violations[i].decisions != b.violations[i].decisions) return false;
  }
  return true;
}

std::vector<ScaleRow> run_scaling(int jobs) {
  // Register-based mutants only: they stay memory-safe when exploration
  // continues past a violation (the sc-blind LL/SC mutant does not — a
  // corrupted slot value indexes out of bounds on deep violating paths).
  bss::explore::OneShotSystem claim_after(
      4, 3, bss::core::OneShotMutant::kClaimAfterCas);
  bss::explore::OneShotSystem split_cas(4, 3,
                                        bss::core::OneShotMutant::kSplitCas);
  const std::vector<const ExplorableSystem*> mutants = {&claim_after,
                                                        &split_cas};

  std::vector<ScaleRow> rows;
  std::vector<int> worker_counts = {1};
  if (jobs > 1) worker_counts.push_back(jobs);
  std::vector<ExploreResult> baseline;
  for (const int j : worker_counts) {
    ScaleRow row;
    row.label = "mutant-refutation";
    row.jobs = j;
    const auto start = std::chrono::steady_clock::now();
    std::vector<ExploreResult> results;
    for (const ExplorableSystem* system : mutants) {
      results.push_back(
          bss::explore::explore(*system, refutation_options(j)));
    }
    row.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    for (std::size_t i = 0; i < results.size(); ++i) {
      row.schedules += results[i].stats.schedules;
      row.violations += results[i].violations.size();
      if (!baseline.empty() && !results_match(results[i], baseline[i])) {
        row.identical = false;
      }
    }
    if (baseline.empty()) baseline = std::move(results);
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_scaling_table(const std::vector<ScaleRow>& rows) {
  std::printf("\n%-24s %5s %9s %10s %10s %8s %s\n", "workload", "jobs",
              "schedules", "violations", "sched/s", "speedup", "identical");
  const double base_rate =
      rows[0].seconds > 0
          ? static_cast<double>(rows[0].schedules) / rows[0].seconds
          : 0;
  for (const ScaleRow& row : rows) {
    const double rate =
        row.seconds > 0 ? static_cast<double>(row.schedules) / row.seconds
                        : 0;
    std::printf("%-24s %5d %9llu %10zu %10.0f %7.2fx %s\n", row.label.c_str(),
                row.jobs, static_cast<unsigned long long>(row.schedules),
                row.violations, rate, base_rate > 0 ? rate / base_rate : 0,
                row.identical ? "yes" : "NO");
  }
}

void print_scaling_json(const std::vector<ScaleRow>& rows, bool more) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& row = rows[i];
    const double rate =
        row.seconds > 0 ? static_cast<double>(row.schedules) / row.seconds
                        : 0;
    std::printf(
        "  {\"workload\": \"%s\", \"jobs\": %d, \"schedules\": %llu, "
        "\"violations\": %zu, \"schedules_per_sec\": %.0f, "
        "\"identical\": %s}%s\n",
        row.label.c_str(), row.jobs,
        static_cast<unsigned long long>(row.schedules), row.violations, rate,
        row.identical ? "true" : "false",
        more || i + 1 < rows.size() ? "," : "");
  }
}

// ------------------------------------------------------ stealing scaling

/// The skewed-writer workload at 1/2/4/8 workers: POR prunes nothing (every
/// operation pair conflicts) and process 0's subtrees dwarf the others', so
/// only on-the-fly rebalancing keeps the workers busy.  Byte-identity
/// against the serial baseline is checked for every cell.
std::vector<ScaleRow> run_steal_scaling() {
  bss::explore::SkewedWriterSystem system(4, 6, 1);
  ExploreOptions serial;
  serial.jobs = 1;
  const ExploreResult baseline = bss::explore::explore(system, serial);

  std::vector<ScaleRow> rows;
  for (const int jobs : {1, 2, 4, 8}) {
    ScaleRow row;
    row.label = "skewed-writers";
    row.jobs = jobs;
    ExploreOptions options;
    options.jobs = jobs;
    const auto start = std::chrono::steady_clock::now();
    const ExploreResult result = bss::explore::explore(system, options);
    row.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    row.schedules = result.stats.schedules;
    row.identical = results_match(result, baseline) &&
                    result.summary() == baseline.summary();
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------- fingerprint-prune fast path

/// One (mode, jobs) cell of the fingerprint-prune before/after table.
struct PruneRow {
  std::string mode;  ///< "off" or "on"
  int jobs = 1;
  double seconds = 0;
  std::uint64_t schedules = 0;       ///< schedules actually run
  std::uint64_t covered = 0;         ///< schedules covered (== off baseline)
  std::uint64_t prunes = 0;          ///< subtrees served from the cache
  bool identical = true;             ///< vs the same-mode serial baseline
  bool coverage_parity = true;       ///< violations + exhausted vs prune-off
  bool passivity = true;             ///< audit+telemetry on == plain (on@1)
};

/// The iterative skewed workload where the visited-state cache bites: the
/// Chess sweep re-explores every ≤b-preemption schedule at budget b+1, and
/// once the short writers have finished only the long writer's linear tail
/// remains — a cut-free subtree that caches clean and is served from the
/// cache on every later revisit.
ExploreOptions prune_workload_options(bool prune, int jobs, int steal_depth) {
  ExploreOptions options;
  options.use_por = false;
  options.iterative = true;
  options.preemption_bound = 4;
  options.fingerprint_prune = prune;
  options.jobs = jobs;
  options.steal_depth = steal_depth;
  return options;
}

/// Runs the before/after table: prune-off serial is the baseline; prune-on
/// runs at 1/2/4/8 workers with byte-identity checked per cell against the
/// prune-on serial run, coverage parity (identical violation tapes and
/// exhausted flag) checked against the prune-off baseline, and audit+obs
/// passivity asserted on the serial prune-on cell with the fast path
/// engaged.  The "on" rows report *covered* schedules per second — the
/// cache serves previously-explored subtrees, so the covered space is the
/// baseline's, reached in less wall time.
std::vector<PruneRow> run_prune_scaling(int steal_depth) {
  bss::explore::SkewedWriterSystem system(4, 6, 1);

  const auto run_cell = [&](bool prune, int jobs, bool with_observers) -> Row {
    ExploreOptions options = prune_workload_options(prune, jobs, steal_depth);
    bss::obs::Telemetry::Options obs_options;
    obs_options.metrics = true;
    obs_options.events = true;
    bss::obs::Telemetry telemetry(obs_options);
    if (with_observers) {
      options.audit = true;
      options.telemetry = &telemetry;
    }
    return timed_explore(prune ? "prune-on" : "prune-off", system, options);
  };

  const Row off = run_cell(false, 1, false);
  const Row on_serial = run_cell(true, 1, false);
  const Row on_observed = run_cell(true, 1, true);
  const bool passivity =
      results_match(on_serial.result, on_observed.result) &&
      on_serial.result.stats.fingerprint_prunes ==
          on_observed.result.stats.fingerprint_prunes;

  const auto parity = [&](const ExploreResult& result) {
    if (result.exhausted != off.result.exhausted ||
        result.violations.size() != off.result.violations.size()) {
      return false;
    }
    for (std::size_t i = 0; i < result.violations.size(); ++i) {
      if (result.violations[i].decisions != off.result.violations[i].decisions)
        return false;
    }
    return true;
  };

  std::vector<PruneRow> rows;
  PruneRow base;
  base.mode = "off";
  base.jobs = 1;
  base.seconds = off.seconds;
  base.schedules = off.result.stats.schedules;
  base.covered = off.result.stats.schedules;
  base.prunes = 0;
  rows.push_back(std::move(base));

  for (const int jobs : {1, 2, 4, 8}) {
    const Row cell = jobs == 1 ? on_serial : run_cell(true, jobs, false);
    PruneRow row;
    row.mode = "on";
    row.jobs = jobs;
    row.seconds = cell.seconds;
    row.schedules = cell.result.stats.schedules;
    row.covered = off.result.stats.schedules;
    row.prunes = cell.result.stats.fingerprint_prunes;
    row.identical = results_match(cell.result, on_serial.result) &&
                    cell.result.summary() == on_serial.result.summary();
    row.coverage_parity = parity(cell.result);
    row.passivity = passivity;
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Refutation parity under pruning: the collect-all mutant workload run
/// iteratively with the cache off and on must find the IDENTICAL violation
/// tapes — a subtree only enters the cache after being fully explored
/// violation-free, so no refutation can hide behind a prune.
bool run_prune_refutation_parity(int steal_depth) {
  bss::explore::OneShotSystem mutant(4, 3,
                                     bss::core::OneShotMutant::kClaimAfterCas);
  std::vector<ExploreResult> results;
  for (const bool prune : {false, true}) {
    ExploreOptions options = prune_workload_options(prune, 1, steal_depth);
    options.preemption_bound = 1;
    options.stop_at_first_violation = false;
    options.max_violations = std::size_t{1} << 20;
    options.minimize = false;
    results.push_back(bss::explore::explore(mutant, options));
  }
  if (results[0].violations.size() != results[1].violations.size() ||
      results[0].exhausted != results[1].exhausted) {
    return false;
  }
  for (std::size_t i = 0; i < results[0].violations.size(); ++i) {
    if (results[0].violations[i].decisions !=
        results[1].violations[i].decisions) {
      return false;
    }
  }
  return !results[0].violations.empty();
}

double prune_rate_of(const PruneRow& row) {
  return row.seconds > 0 ? static_cast<double>(row.covered) / row.seconds : 0;
}

void print_prune_table(const std::vector<PruneRow>& rows,
                       bool refutation_parity) {
  std::printf("\n%-24s %5s %5s %9s %8s %10s %8s %5s %7s\n",
              "workload", "prune", "jobs", "schedules", "prunes",
              "cov-sched/s", "speedup", "ident", "parity");
  const double base_rate = prune_rate_of(rows[0]);
  for (const PruneRow& row : rows) {
    const double rate = prune_rate_of(row);
    std::printf("%-24s %5s %5d %9llu %8llu %10.0f %7.2fx %5s %7s\n",
                "skewed-iterative", row.mode.c_str(), row.jobs,
                static_cast<unsigned long long>(row.schedules),
                static_cast<unsigned long long>(row.prunes), rate,
                base_rate > 0 ? rate / base_rate : 0,
                row.identical ? "yes" : "NO",
                row.coverage_parity ? "yes" : "NO");
  }
  std::printf("  mutant refutation parity under pruning: %s\n",
              refutation_parity ? "identical tapes" : "DIVERGED");
}

void print_prune_json(const std::vector<PruneRow>& rows,
                      bool refutation_parity, bool more) {
  const double base_rate = prune_rate_of(rows[0]);
  for (const PruneRow& row : rows) {
    const double rate = prune_rate_of(row);
    std::printf(
        "  {\"workload\": \"skewed-iterative\", \"prune\": \"%s\", "
        "\"jobs\": %d, \"schedules\": %llu, \"prunes\": %llu, "
        "\"covered_schedules_per_sec\": %.0f, \"speedup\": %.2f, "
        "\"identical\": %s, \"coverage_parity\": %s, \"passivity\": %s},\n",
        row.mode.c_str(), row.jobs,
        static_cast<unsigned long long>(row.schedules),
        static_cast<unsigned long long>(row.prunes), rate,
        base_rate > 0 ? rate / base_rate : 0,
        row.identical ? "true" : "false",
        row.coverage_parity ? "true" : "false",
        row.passivity ? "true" : "false");
  }
  std::printf("  {\"workload\": \"mutant-prune-parity\", \"identical\": %s}%s\n",
              refutation_parity ? "true" : "false", more ? "," : "");
}

// --------------------------------------------------- telemetry overhead

/// One observability configuration of the refutation workload.
struct OverheadRow {
  std::string mode;  ///< "off", "metrics", …, "status", "status+profile"
  double seconds = 0;
  std::uint64_t schedules = 0;
  bool identical = true;  ///< results byte-identical to the "off" baseline
};

/// Runs the mutant-refutation workload under telemetry off / metrics-only /
/// metrics+events / status heartbeat / status+profiler / fully-audited and
/// cross-checks that stats, coverage and every violation tape are
/// byte-identical — the ObsSink (and audit) passivity contract, asserted on
/// the benchmark workload itself.  The "off" row is the replay fast path
/// (no token stamping, no sink dispatch); "status" writes a live bss-status
/// heartbeat at an aggressive 50ms cadence and "status+profile" adds the
/// phase self-profiler, so the table carries the introspection layers'
/// overhead next to the layers they ride on; "audited" is the slow path
/// with every schedule commute-cross-checked, and the off/audited rate
/// ratio is the fast path's before/after headline.
std::vector<OverheadRow> run_overhead(int jobs) {
  bss::explore::OneShotSystem claim_after(
      4, 3, bss::core::OneShotMutant::kClaimAfterCas);
  bss::explore::OneShotSystem split_cas(4, 3,
                                        bss::core::OneShotMutant::kSplitCas);
  const std::vector<const ExplorableSystem*> mutants = {&claim_after,
                                                        &split_cas};
  const char* status_path = "bench_explore_overhead.status.json";

  std::vector<OverheadRow> rows;
  std::vector<ExploreResult> baseline;
  for (const char* mode : {"off", "metrics", "metrics+events", "status",
                           "status+profile", "audited"}) {
    const std::string mode_name(mode);
    const bool status_mode =
        mode_name == "status" || mode_name == "status+profile";
    bss::obs::Telemetry::Options obs_options;
    obs_options.metrics = mode_name != "off" && !status_mode;
    obs_options.events =
        mode_name == "metrics+events" || mode_name == "audited";
    obs_options.profile = mode_name == "status+profile";
    bss::obs::Telemetry telemetry(obs_options);

    OverheadRow row;
    row.mode = mode;
    // Min-of-3: the off/audited time ratio gates the bench's exit status,
    // and on a time-sliced container a single-shot measurement of either
    // side swings enough to flip the verdict.  The minimum is the
    // least-contended estimate for both sides; results are byte-identical
    // across repeats (determinism), so only the clock varies.
    std::vector<ExploreResult> results;
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<ExploreResult> pass;
      for (const ExplorableSystem* system : mutants) {
        ExploreOptions options = refutation_options(jobs);
        if (mode_name != "off" && mode_name != "status") {
          options.telemetry = &telemetry;
        }
        if (status_mode) {
          options.status_path = status_path;
          options.status_every_ms = 50;
        }
        if (mode_name == "audited") {
          options.audit = true;
          options.audit_commute_sample = 1;
        }
        pass.push_back(bss::explore::explore(*system, options));
      }
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (repeat == 0 || seconds < row.seconds) row.seconds = seconds;
      results = std::move(pass);
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      row.schedules += results[i].stats.schedules;
      if (!baseline.empty() &&
          (!results_match(results[i], baseline[i]) ||
           results[i].summary() != baseline[i].summary())) {
        row.identical = false;
      }
    }
    if (baseline.empty()) baseline = std::move(results);
    rows.push_back(std::move(row));
  }
  std::remove(status_path);
  return rows;
}

void print_overhead_table(const std::vector<OverheadRow>& rows) {
  std::printf("\n%-24s %9s %9s %10s %s\n", "telemetry", "schedules",
              "seconds", "overhead", "identical");
  for (const OverheadRow& row : rows) {
    const double overhead =
        rows[0].seconds > 0 ? 100.0 * (row.seconds / rows[0].seconds - 1.0)
                            : 0;
    std::printf("%-24s %9llu %9.3f %9.1f%% %s\n", row.mode.c_str(),
                static_cast<unsigned long long>(row.schedules), row.seconds,
                overhead, row.identical ? "yes" : "NO");
  }
}

void print_overhead_json(const std::vector<OverheadRow>& rows, bool more) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OverheadRow& row = rows[i];
    const double overhead =
        rows[0].seconds > 0 ? row.seconds / rows[0].seconds - 1.0 : 0;
    std::printf(
        "  {\"workload\": \"telemetry-overhead\", \"mode\": \"%s\", "
        "\"schedules\": %llu, \"seconds\": %.4f, \"overhead\": %.4f, "
        "\"identical\": %s}%s\n",
        row.mode.c_str(), static_cast<unsigned long long>(row.schedules),
        row.seconds, overhead, row.identical ? "true" : "false",
        more || i + 1 < rows.size() ? "," : "");
  }
}

/// Minimized-artifact check under the worker pool: refute one mutant with
/// defaults (minimize on) at --jobs workers, then replay the artifact.
/// Returns the divergence count (0 is the only healthy answer).
std::uint64_t artifact_replay_divergences(int jobs) {
  bss::explore::OneShotSystem mutant(4, 3,
                                     bss::core::OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.jobs = jobs;
  const ExploreResult result = bss::explore::explore(mutant, options);
  if (result.violations.empty()) return ~std::uint64_t{0};
  const auto replay =
      bss::explore::replay_counterexample(mutant, result.violations.front());
  return replay.violated ? replay.divergences : ~std::uint64_t{0};
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
      "byte-identical at every worker count, steal granularity and shard "
      "depth");
}

// ------------------------------------------------------------- campaigns

/// The valid --campaign names; parse_flags enumerates these on a typo.
const std::vector<std::string> kCampaigns = {"skewed", "mutant"};

/// `--campaign NAME`: one long exploration instead of the tables, wired to
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
  options.steal_depth = flags.steal_depth;
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
    options.use_por = false;
    options.stop_at_first_violation = false;
    options.max_violations = std::size_t{1} << 20;
    options.minimize = false;
    row = timed_explore("campaign:mutant", system, options);
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

  if (flags.json) {
    std::printf("[\n");
    print_json({row}, /*more=*/false);
    std::printf("]\n");
  } else {
    print_table({row});
    std::printf("  checkpoints written: %llu%s\n",
                static_cast<unsigned long long>(
                    row.result.checkpoints_written),
                flags.resume.empty() ? "" : " (resumed)");
  }
  report.finalize();
  return row.result.exhausted ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags = bss::bench::parse_flags(
      argc, argv, /*accepts_jobs=*/true, /*accepts_json=*/true,
      /*accepts_checkpoint=*/true, kCampaigns);
  if (!flags.campaign.empty()) return run_campaign(flags);
  // Constructed before any exploration: the report's wall clock must span
  // the actual work or the schedules/second headline is meaningless.
  bss::bench::BenchReport report(flags, "bench_explore");
  std::vector<Row> rows;

  {
    bss::explore::OneShotSystem system(4, 3);
    ExploreOptions naive;
    naive.use_por = false;
    naive.jobs = flags.jobs;
    rows.push_back(timed_explore("one_shot[n=3] naive", system, naive));
    ExploreOptions por;
    por.jobs = flags.jobs;
    rows.push_back(timed_explore("one_shot[n=3] POR", system, por));
  }

  {
    bss::explore::LlScSystem system(3, 2);
    ExploreOptions por;
    por.jobs = flags.jobs;
    rows.push_back(timed_explore("llsc[k=3,n=2] POR", system, por));
    for (int bound = 0; bound <= 2; ++bound) {
      ExploreOptions options;
      options.preemption_bound = bound;
      options.jobs = flags.jobs;
      rows.push_back(timed_explore(
          "llsc[k=3,n=2] POR b=" + std::to_string(bound), system, options));
    }
  }

  const std::vector<ScaleRow> scaling = run_scaling(flags.jobs);
  const std::vector<ScaleRow> steal_scaling = run_steal_scaling();
  const std::vector<PruneRow> prune_rows = run_prune_scaling(flags.steal_depth);
  const bool prune_refutation_parity =
      run_prune_refutation_parity(flags.steal_depth);
  const std::vector<OverheadRow> overhead = run_overhead(flags.jobs);
  const std::uint64_t divergences = artifact_replay_divergences(flags.jobs);
  bool telemetry_passive = true;
  for (const OverheadRow& row : overhead) {
    telemetry_passive &= row.identical;
  }
  bool steal_identical = true;
  for (const ScaleRow& row : steal_scaling) {
    steal_identical &= row.identical;
  }
  // The fast-path gate: >= 2x schedules/second on at least one workload —
  // either a prune-table cell against the prune-off serial baseline, or the
  // replay fast path (observers off) against the fully-audited slow path on
  // the refutation workload — with byte-identity, coverage parity and
  // observer passivity intact on EVERY cell.  A speedup that costs
  // determinism or coverage is a bug, not a feature.
  const double prune_base_rate = prune_rate_of(prune_rows[0]);
  double fastpath_speedup = 0;
  bool prune_sound = prune_refutation_parity;
  for (const PruneRow& row : prune_rows) {
    const double speedup =
        prune_base_rate > 0 ? prune_rate_of(row) / prune_base_rate : 0;
    if (speedup > fastpath_speedup) fastpath_speedup = speedup;
    prune_sound &= row.identical && row.coverage_parity && row.passivity;
  }
  for (const OverheadRow& row : overhead) {
    if (row.mode == "audited" && row.seconds > 0 &&
        overhead.front().seconds > 0) {
      // Same schedules either way, so the rate ratio is the time ratio.
      const double ratio = row.seconds / overhead.front().seconds;
      if (ratio > fastpath_speedup) fastpath_speedup = ratio;
    }
  }

  note_valve_exception(report);
  for (const Row& row : rows) {
    bss::obs::json::Object object;
    object.emplace("system", bss::obs::json::Value(row.label));
    object.emplace("schedules",
                   bss::obs::json::Value(row.result.stats.schedules));
    object.emplace("transitions",
                   bss::obs::json::Value(row.result.stats.transitions));
    object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    report.row(std::move(object));
  }
  std::vector<ScaleRow> scale_rows = scaling;
  scale_rows.insert(scale_rows.end(), steal_scaling.begin(),
                    steal_scaling.end());
  for (const ScaleRow& row : scale_rows) {
    bss::obs::json::Object object;
    object.emplace("workload", bss::obs::json::Value(row.label));
    object.emplace("jobs", bss::obs::json::Value(row.jobs));
    object.emplace("schedules", bss::obs::json::Value(row.schedules));
    object.emplace(
        "violations",
        bss::obs::json::Value(static_cast<std::uint64_t>(row.violations)));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    object.emplace("identical", bss::obs::json::Value(row.identical));
    report.row(std::move(object));
  }
  for (const PruneRow& row : prune_rows) {
    bss::obs::json::Object object;
    object.emplace("workload",
                   bss::obs::json::Value(std::string("skewed-iterative")));
    object.emplace("prune", bss::obs::json::Value(row.mode));
    object.emplace("jobs", bss::obs::json::Value(row.jobs));
    object.emplace("schedules", bss::obs::json::Value(row.schedules));
    object.emplace("fingerprint_prunes", bss::obs::json::Value(row.prunes));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    object.emplace("identical", bss::obs::json::Value(row.identical));
    object.emplace("coverage_parity",
                   bss::obs::json::Value(row.coverage_parity));
    report.row(std::move(object));
  }
  for (const OverheadRow& row : overhead) {
    bss::obs::json::Object object;
    object.emplace("workload",
                   bss::obs::json::Value(std::string("telemetry-overhead")));
    object.emplace("mode", bss::obs::json::Value(row.mode));
    object.emplace("schedules", bss::obs::json::Value(row.schedules));
    object.emplace("seconds", bss::obs::json::Value(row.seconds));
    object.emplace("identical", bss::obs::json::Value(row.identical));
    report.row(std::move(object));
  }
  report.builder().stat("artifact_replay_divergences", divergences);
  report.builder().stat("telemetry_passive", telemetry_passive ? 1 : 0);
  report.builder().stat("steal_identical", steal_identical ? 1 : 0);
  report.builder().stat("prune_sound", prune_sound ? 1 : 0);
  report.builder().timing(
      "fastpath_speedup",
      bss::obs::json::Value(fastpath_speedup >= 0 ? fastpath_speedup : 0.0));
  std::uint64_t total_schedules = 0;
  for (const Row& row : rows) total_schedules += row.result.stats.schedules;
  for (const ScaleRow& row : scaling) total_schedules += row.schedules;
  for (const ScaleRow& row : steal_scaling) total_schedules += row.schedules;
  for (const PruneRow& row : prune_rows) total_schedules += row.schedules;
  for (const OverheadRow& row : overhead) total_schedules += row.schedules;
  report.schedules(total_schedules);

  const bool ok = divergences == 0 && telemetry_passive && steal_identical &&
                  prune_sound && fastpath_speedup >= 2.0;
  if (flags.json) {
    std::printf("[\n");
    print_json(rows, /*more=*/true);
    print_scaling_json(scaling, /*more=*/true);
    print_scaling_json(steal_scaling, /*more=*/true);
    print_prune_json(prune_rows, prune_refutation_parity, /*more=*/true);
    print_overhead_json(overhead, /*more=*/true);
    std::printf("  {\"workload\": \"artifact-replay\", \"jobs\": %d, "
                "\"divergences\": %llu}\n",
                flags.jobs, static_cast<unsigned long long>(divergences));
    std::printf("]\n");
    report.finalize();
    return ok ? 0 : 1;
  }
  print_table(rows);
  const double ratio = 1.0 - static_cast<double>(rows[1].result.stats.schedules) /
                                 static_cast<double>(rows[0].result.stats.schedules);
  std::printf("  POR pruning ratio: %.1f%% (%llu -> %llu schedules)\n",
              100.0 * ratio,
              static_cast<unsigned long long>(rows[0].result.stats.schedules),
              static_cast<unsigned long long>(rows[1].result.stats.schedules));
  print_scaling_table(scaling);
  print_scaling_table(steal_scaling);
  print_prune_table(prune_rows, prune_refutation_parity);
  std::printf("  fast-path speedup (best cell vs prune-off serial): %.2fx%s\n",
              fastpath_speedup, fastpath_speedup >= 2.0 ? "" : " (BELOW 2x)");
  print_overhead_table(overhead);
  if (!prune_sound) {
    std::printf("FATAL: fingerprint pruning changed results, lost coverage "
                "or broke observer passivity\n");
  }
  if (!telemetry_passive) {
    std::printf("FATAL: telemetry changed exploration results (ObsSink "
                "passivity violated)\n");
  }
  if (!steal_identical) {
    std::printf("FATAL: the worker pool diverged from the serial baseline "
                "on the skewed workload\n");
  }
  std::printf("  minimized artifact replay at --jobs %d: %llu divergences\n",
              flags.jobs, static_cast<unsigned long long>(divergences));
  report.finalize();
  return ok ? 0 : 1;
}
