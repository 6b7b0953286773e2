// bench_service — the lease-based election service's certificate
// (DESIGN.md §10).
//
// Two experiments:
//
//  1. Model checking the service: exhaustive sweeps of the two-process
//     lease protocol (fault-free and under a one-fault budget with crashes,
//     restarts, and spurious SC failures all enabled), a preemption-bounded
//     three-process sweep, and the refutation of two seeded mutants.  The
//     schedule space here is steps x timers x faults — every timer firing is
//     an explorer decision — so each row reports schedules, timer grants,
//     violations, and whether the sweep was exhaustive.
//
//  2. Thread-backend storm: full lease sessions on real std::threads under
//     seeded crash-restart storms; the bench exits 1 on the first session
//     that breaks lease safety.  Thread interleavings are real, so only the
//     verified-run count is a certificate; the merged service counters
//     (acquisitions, takeovers, renewals, step-downs) go to the runreport as
//     `service.*` stats.
//
// The table must equal the one recorded below at every --jobs, or the bench
// prints the differing rows and exits 1.  The explorer's rates are measured
// by perfbench, not here.
//
// `--campaign exhaustive` replaces the tables with the long n=3 certificate:
// the full one-fault-budget exhaustive sweep (~1M schedules), wired to
// --checkpoint/--resume so CI can SIGKILL and resume it.  Exits 0 iff the
// sweep was exhaustive and violation-free.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "explore/explore.h"
#include "service/lease_config.h"
#include "service/lease_system.h"
#include "service/thread_platform.h"

namespace {

using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;
using bss::service::LeaseConfig;
using bss::service::LeaseMutant;
using bss::service::LeaseServiceSystem;

/// The two-process config whose fault-budget sweep is exhaustively checkable
/// in seconds: one acquisition attempt, no renewals.
LeaseConfig small_config(int n) {
  LeaseConfig config;
  config.n = n;
  config.renewals = 0;
  config.acquire_attempts = 1;
  config.sc_retries = 0;
  return config;
}

/// The richer config the mutants are refuted under: one renewal cycle, two
/// acquisition attempts (so losers back off and retry through the timers).
LeaseConfig med_config() {
  LeaseConfig config;
  config.n = 2;
  config.renewals = 1;
  config.acquire_attempts = 2;
  config.sc_retries = 1;
  return config;
}

/// The certificate as last reviewed (EXPERIMENTS.md "S1 — lease service").
constexpr const char* kRecorded = R"(
service sweep                 schedules timers viol coverage
lease[n=2] fb=0                     144    286    0 exhaustive
lease[n=2] fb=1 c+r+s             19188  48644    0 exhaustive
lease[n=3] fb=1 c+r+s pb=2       143300 327220    0 bounded
mutant:renew-after-expiry          8448  72225    1 bounded
mutant:no-step-down                5047  23932    1 bounded

thread storm                  runs verified
lease[n=4] fault-free          100      100
lease[n=4] crash-storm         100      100
)";

struct SweepRow {
  std::string label;
  ExploreResult result;
};

struct StormRow {
  std::string label;
  int runs = 0;
  int verified = 0;  ///< runs with no lease-safety violation
  int restarts = 0;
  int spurious = 0;
  bss::service::LeaseStats stats;
};

/// Runs `runs` seeded thread-backend lease sessions; a session that breaks
/// lease safety ends the bench with exit 1.
StormRow storm(std::string label, const LeaseConfig& config, int max_crashes,
               int runs) {
  StormRow row;
  row.label = std::move(label);
  row.runs = runs;
  for (int i = 0; i < runs; ++i) {
    const auto report = bss::service::run_thread_lease_storm(
        config, static_cast<std::uint64_t>(i), max_crashes);
    if (report.violation.has_value()) {
      std::fprintf(stderr, "FATAL: storm seed %d violated safety: %s\n", i,
                   report.violation->c_str());
      std::exit(1);
    }
    ++row.verified;
    row.restarts += report.restarts;
    row.spurious += report.spurious_delivered;
    row.stats.merge_from(report.stats);
  }
  return row;
}

/// The certificate table's sweep section: a header and one row per sweep.
std::string sweep_table(const std::vector<SweepRow>& sweeps) {
  std::string table;
  bss::bench::appendf(table, "%-29s %9s %6s %4s %s\n", "service sweep",
                      "schedules", "timers", "viol", "coverage");
  for (const auto& row : sweeps) {
    bss::bench::appendf(
        table, "%-29s %9llu %6llu %4zu %s\n", row.label.c_str(),
        static_cast<unsigned long long>(row.result.stats.schedules),
        static_cast<unsigned long long>(row.result.stats.timer_grants),
        row.result.violations.size(),
        row.result.exhausted ? "exhaustive" : "bounded");
  }
  return table;
}

/// Records a storm's merged LeaseStats as the closed `service.*` stat family
/// (tools/report_check validates the names and the load-bearing trio).
void report_service_stats(bss::bench::BenchReport& report,
                          const bss::service::LeaseStats& stats) {
  report.builder().stat("service.leases_acquired", stats.leases_acquired);
  report.builder().stat("service.takeovers", stats.takeovers);
  report.builder().stat("service.renewals", stats.renewals);
  report.builder().stat("service.renew_failures", stats.renew_failures);
  report.builder().stat("service.retries", stats.retries);
  report.builder().stat("service.step_downs", stats.step_downs);
  report.builder().stat("service.expirations", stats.expirations);
  report.builder().stat("service.give_ups", stats.give_ups);
  report.builder().stat("service.actions", stats.actions);
}

// ------------------------------------------------------------- campaigns

/// The valid --campaign names; parse_flags enumerates these on a typo.
const std::vector<std::string> kCampaigns = {"exhaustive"};

/// `--campaign exhaustive`: the n=3 safety certificate — every schedule of
/// three service processes under a one-fault budget (crashes, restarts, and
/// spurious SC failures all explorable) with timer firings as decisions.
int run_campaign(const bss::bench::BenchFlags& flags) {
  ExploreOptions options;
  options.jobs = flags.jobs;
  options.fault_bound = 1;
  options.explore_sc_failures = true;
  // The default max_schedules valve would truncate this campaign-scale
  // space (millions of schedules; the valve counts claimed schedules,
  // speculative parallel work included) — a campaign must run to
  // exhaustion, so leave only a far-off runaway backstop and rely on
  // --checkpoint/--resume for slicing.
  options.max_schedules = 100'000'000;
  options.checkpoint_path = flags.checkpoint;
  if (flags.checkpoint_every > 0) {
    options.checkpoint_every = flags.checkpoint_every;
  }
  options.resume_path = flags.resume;
  options.status_path = flags.status;
  options.status_every_ms = flags.status_every;

  // Constructed before the exploration so the report's wall clock
  // (timing.wall_ns) covers the campaign itself.
  bss::bench::BenchReport report(flags, "bench_service");
  LeaseServiceSystem system(small_config(3));
  const SweepRow row = {"campaign:exhaustive[n=3,fb=1]",
                        bss::explore::explore(system, options)};

  report.builder().set_system(system.name());
  report.builder().environment("campaign",
                               bss::obs::json::Value(flags.campaign));
  report.builder().environment("resumed",
                               bss::obs::json::Value(!flags.resume.empty()));
  bss::obs::json::Object object;
  object.emplace("workload", bss::obs::json::Value(row.label));
  object.emplace("jobs", bss::obs::json::Value(flags.jobs));
  object.emplace("schedules",
                 bss::obs::json::Value(row.result.stats.schedules));
  object.emplace("violations",
                 bss::obs::json::Value(
                     static_cast<std::uint64_t>(row.result.violations.size())));
  object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
  object.emplace("checkpoints_written",
                 bss::obs::json::Value(row.result.checkpoints_written));
  report.row(std::move(object));

  std::fputs(sweep_table({row}).c_str(), stdout);
  std::printf("  checkpoints written: %llu%s\n",
              static_cast<unsigned long long>(row.result.checkpoints_written),
              flags.resume.empty() ? "" : " (resumed)");
  report.finalize();
  return row.result.exhausted && row.result.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags = bss::bench::parse_flags(
      argc, argv, /*accepts_jobs=*/true, /*accepts_checkpoint=*/true,
      kCampaigns);
  if (!flags.campaign.empty()) return run_campaign(flags);
  // Constructed first so the report's wall clock covers the whole bench.
  bss::bench::BenchReport report(flags, "bench_service");

  std::vector<SweepRow> sweeps;
  {
    LeaseServiceSystem system(small_config(2));
    ExploreOptions fault_free;
    fault_free.jobs = flags.jobs;
    sweeps.push_back(
        {"lease[n=2] fb=0", bss::explore::explore(system, fault_free)});
    ExploreOptions budget;
    budget.jobs = flags.jobs;
    budget.fault_bound = 1;
    budget.explore_sc_failures = true;
    sweeps.push_back(
        {"lease[n=2] fb=1 c+r+s", bss::explore::explore(system, budget)});
  }
  {
    LeaseServiceSystem system(small_config(3));
    ExploreOptions bounded;
    bounded.jobs = flags.jobs;
    bounded.fault_bound = 1;
    bounded.explore_sc_failures = true;
    bounded.preemption_bound = 2;
    sweeps.push_back({"lease[n=3] fb=1 c+r+s pb=2",
                      bss::explore::explore(system, bounded)});
  }
  {
    // Refutation: the schedules the explorer needs to convict each mutant.
    ExploreOptions refute;
    refute.jobs = flags.jobs;
    refute.fault_bound = 1;
    LeaseServiceSystem m1(med_config(), LeaseMutant::kRenewAfterExpiry);
    sweeps.push_back(
        {"mutant:renew-after-expiry", bss::explore::explore(m1, refute)});
    LeaseConfig m2cfg = med_config();
    m2cfg.sc_retries = 0;
    ExploreOptions sc_only = refute;
    sc_only.explore_crashes = false;
    sc_only.explore_restarts = false;
    sc_only.explore_sc_failures = true;
    LeaseServiceSystem m2(m2cfg, LeaseMutant::kNoStepDownOnRenewFailure);
    sweeps.push_back(
        {"mutant:no-step-down", bss::explore::explore(m2, sc_only)});
  }

  std::vector<StormRow> storms;
  {
    LeaseConfig storm_config = med_config();
    storm_config.n = 4;
    storm_config.acquire_attempts = 3;
    storms.push_back(storm("lease[n=4] fault-free", storm_config, 0, 100));
    storms.push_back(storm("lease[n=4] crash-storm", storm_config, 2, 100));
  }

  bss::service::LeaseStats merged;
  for (const auto& row : storms) merged.merge_from(row.stats);
  report_service_stats(report, merged);
  std::string table = sweep_table(sweeps);
  for (const auto& row : sweeps) {
    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("sweep")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("schedules",
                   bss::obs::json::Value(row.result.stats.schedules));
    object.emplace("timer_grants",
                   bss::obs::json::Value(row.result.stats.timer_grants));
    object.emplace("violations",
                   bss::obs::json::Value(static_cast<std::uint64_t>(
                       row.result.violations.size())));
    object.emplace("exhausted", bss::obs::json::Value(row.result.exhausted));
    report.row(std::move(object));
  }
  // Thread interleavings are real, so only the verdict is a certificate; the
  // lease counters stay in the runreport (service.* stats, storm rows).
  bss::bench::appendf(table, "\n%-29s %4s %8s\n", "thread storm", "runs",
                      "verified");
  for (const auto& row : storms) {
    bss::bench::appendf(table, "%-29s %4d %8d\n", row.label.c_str(), row.runs,
                        row.verified);

    bss::obs::json::Object object;
    object.emplace("kind", bss::obs::json::Value(std::string("storm")));
    object.emplace("label", bss::obs::json::Value(row.label));
    object.emplace("runs", bss::obs::json::Value(row.runs));
    object.emplace("verified", bss::obs::json::Value(row.verified));
    object.emplace("restarts", bss::obs::json::Value(row.restarts));
    object.emplace("spurious_sc", bss::obs::json::Value(row.spurious));
    object.emplace("leases_acquired",
                   bss::obs::json::Value(row.stats.leases_acquired));
    object.emplace("step_downs",
                   bss::obs::json::Value(row.stats.step_downs));
    report.row(std::move(object));
  }
  report.finalize();
  bss::bench::print_certificate(table, kRecorded);
  return 0;
}
