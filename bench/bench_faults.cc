// bench_faults — the crash-recovery fault machinery's certificate
// (DESIGN.md §4c).
//
// Two experiments:
//
//  1. Fault-space exploration: the single-fault and double-fault DFS sweeps
//     over the restartable one-shot election and the recoverable
//     FirstValueTree election, reporting schedules, violations, faults
//     injected, distinct fault points covered, fault prunes, and whether the
//     sweep was exhaustive.  The shape to see: fault budget b multiplies the
//     space roughly by the number of fault points per schedule.
//
//  2. Randomized crash-restart storm: full recoverable sim elections under
//     FaultPlan::random, each checked against the election's four
//     invariants (core::verify_election); the bench exits 1 on the first
//     seed that fails them.
//
// The table must equal the one recorded below, or the bench prints the
// differing rows and exits 1.  The explorer's rates are measured by
// perfbench, not here.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "core/election_validator.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "util/rng.h"

namespace {

using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;

/// The certificate as last reviewed (EXPERIMENTS.md "Fault campaign").
constexpr const char* kRecorded = R"(
fault sweep                     schedules viol faults points prunes coverage
one_shot[n=2,restartable] fb=0          2    0      0      0      0 exhaustive
one_shot[n=2,restartable] fb=1         78    0    120     12    952 exhaustive
one_shot[n=2,restartable] fb=2       1294    0   3658     20  12144 exhaustive
rfvt[k=3,n=2] crashes fb=1           5202    0   4882     32  16986 exhaustive
rfvt[k=3,n=2] restarts fb=1 b=1       506    0    688     27  12562 bounded

restart storm                   runs restarted verified
rfvt[k=4,n=6] fault-free         200         0      200
rfvt[k=4,n=6] crash+restart      200       161      200
)";

struct SweepRow {
  std::string label;
  ExploreResult result;
};

struct StormRow {
  std::string label;
  int runs = 0;
  int restarted_runs = 0;
  int verified = 0;  ///< runs that kept all four election invariants
};

/// Runs `runs` seeded crash-restart elections and verifies each one; a run
/// that breaks an election invariant ends the bench with exit 1.
StormRow storm(std::string label, int k, int n, double crash_p,
               double restart_p, int runs) {
  StormRow row;
  row.label = std::move(label);
  row.runs = runs;
  for (int i = 0; i < runs; ++i) {
    bss::Rng rng(static_cast<std::uint64_t>(i));
    const auto plan = bss::sim::FaultPlan::random(n, crash_p, restart_p, 0.0,
                                                  30, rng);
    bss::sim::RandomScheduler scheduler(static_cast<std::uint64_t>(i) * 31);
    const auto report =
        bss::core::run_recoverable_sim_election(k, n, scheduler, plan);
    const auto verdict = bss::core::verify_election(report.election);
    if (!verdict.ok()) {
      std::fprintf(stderr, "FATAL: %s seed %d violated the election: %s\n",
                   row.label.c_str(), i, verdict.diagnosis.c_str());
      std::exit(1);
    }
    if (report.election.run.restarted_count() > 0) ++row.restarted_runs;
    ++row.verified;
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  // Constructed first so the report's wall clock covers the whole bench.
  bss::bench::BenchReport report(flags, "bench_faults");

  std::vector<SweepRow> sweeps;
  {
    bss::explore::OneShotSystem system(4, 2, bss::core::OneShotMutant::kNone,
                                       /*restartable=*/true);
    for (int fb = 0; fb <= 2; ++fb) {
      ExploreOptions options;
      options.fault_bound = fb;
      options.iterative = true;
      sweeps.push_back({"one_shot[n=2,restartable] fb=" + std::to_string(fb),
                        bss::explore::explore(system, options)});
    }
  }
  {
    bss::explore::RecoverableFvtSystem system(3, 2);
    ExploreOptions crash_only;
    crash_only.fault_bound = 1;
    crash_only.iterative = true;
    crash_only.explore_restarts = false;
    sweeps.push_back({"rfvt[k=3,n=2] crashes fb=1",
                      bss::explore::explore(system, crash_only)});
    ExploreOptions restarts;
    restarts.fault_bound = 1;
    restarts.iterative = true;
    restarts.explore_crashes = false;
    restarts.preemption_bound = 1;
    sweeps.push_back({"rfvt[k=3,n=2] restarts fb=1 b=1",
                      bss::explore::explore(system, restarts)});
  }

  std::vector<StormRow> storms;
  storms.push_back(storm("rfvt[k=4,n=6] fault-free", 4, 6, 0.0, 0.0, 200));
  storms.push_back(storm("rfvt[k=4,n=6] crash+restart", 4, 6, 0.2, 0.5, 200));

  std::string table;
  bss::bench::appendf(table, "%-31s %9s %4s %6s %6s %6s %s\n", "fault sweep",
                      "schedules", "viol", "faults", "points", "prunes",
                      "coverage");
  for (const auto& row : sweeps) {
    const auto& stats = row.result.stats;
    const auto violations =
        static_cast<std::uint64_t>(row.result.violations.size());
    bss::bench::appendf(
        table, "%-31s %9llu %4llu %6llu %6llu %6llu %s\n", row.label.c_str(),
        static_cast<unsigned long long>(stats.schedules),
        static_cast<unsigned long long>(violations),
        static_cast<unsigned long long>(stats.faults_injected),
        static_cast<unsigned long long>(stats.fault_points),
        static_cast<unsigned long long>(stats.fault_prunes),
        row.result.exhausted ? "exhaustive" : "bounded");

    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("sweep")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("schedules", bss::obs::json::Value(stats.schedules));
    object.emplace("violations", bss::obs::json::Value(violations));
    object.emplace("faults_injected",
                   bss::obs::json::Value(stats.faults_injected));
    object.emplace("fault_points", bss::obs::json::Value(stats.fault_points));
    object.emplace("fault_prunes", bss::obs::json::Value(stats.fault_prunes));
    object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
    report.row(std::move(object));
  }
  bss::bench::appendf(table, "\n%-31s %4s %9s %8s\n", "restart storm", "runs",
                      "restarted", "verified");
  for (const auto& row : storms) {
    bss::bench::appendf(table, "%-31s %4d %9d %8d\n", row.label.c_str(),
                        row.runs, row.restarted_runs, row.verified);

    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("storm")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("runs", bss::obs::json::Value(row.runs));
    object.emplace("restarted_runs",
                   bss::obs::json::Value(row.restarted_runs));
    object.emplace("verified", bss::obs::json::Value(row.verified));
    report.row(std::move(object));
  }
  report.finalize();
  bss::bench::print_certificate(table, kRecorded);
  return 0;
}
