// leader_worker_pool — the lease-based election service under crash storms.
//
// The paper's motivating scenario, upgraded from a one-shot election to a
// long-lived service: a pool of workers needs exactly one *leader* at any
// moment to seal epochs, and the leader may crash at any point.  The lease
// protocol (DESIGN.md §10) runs here on BOTH backends:
//
//   1. sim: every seed drives a RandomScheduler plus a FaultPlan::random
//      crash-restart storm through the deterministic simulator with virtual
//      time — timer firings, crashes, restarts and spurious SC failures are
//      all explicit schedule decisions;
//   2. threads: run_thread_lease_storm() runs the same protocol template on
//      real std::thread + atomics with scripted aborts (run this binary
//      under ASan/TSan to check the memory-model story).
//
// Every run's lease ledger is checked for the safety property "no two
// processes ever hold overlapping valid leases".  With --out PATH the run
// emits a bss-runreport v1 with the service.* stat family, schema-gated by
// the same validator CI uses (tools/report_check).  With --status PATH (or
// BSS_STATUS) a live bss-status v1 heartbeat tracks the soak: one storm
// counts as one schedule, the planned storm total is the bound, so
// tools/bss_top shows progress and an ETA while the soak runs.
//
//   ./leader_worker_pool [--soak] [--seed N] [--out PATH]
//                        [--status PATH] [--status-every MS]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "obs/runreport.h"
#include "obs/status.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"
#include "service/lease_config.h"
#include "service/lease_ledger.h"
#include "service/lease_service.h"
#include "service/sim_platform.h"
#include "service/thread_platform.h"
#include "util/rng.h"

namespace {

using bss::service::LeaseConfig;
using bss::service::LeaseLedger;
using bss::service::LeaseStats;

LeaseConfig pool_config() {
  LeaseConfig config;
  config.n = 4;
  config.renewals = 1;
  config.acquire_attempts = 3;
  config.sc_retries = 1;
  return config;
}

/// One seeded sim storm: random schedule, random crash-restart-spurious
/// plan, ledger checked after the run.  Returns nullopt when safe.
std::optional<std::string> run_sim_storm(const LeaseConfig& config,
                                         std::uint64_t seed,
                                         LeaseStats& stats, int& restarts) {
  bss::service::LeaseSharedState state(config);
  LeaseLedger ledger;
  bss::sim::SimEnv env;
  for (int pid = 0; pid < config.n; ++pid) {
    const auto program = [&, pid](bss::sim::Ctx& ctx) {
      (void)pid;
      bss::service::SimLeasePlatform plat(ctx, state);
      bss::service::run_lease_session(plat, ledger, config);
    };
    env.add_process(program, program);  // the session is its own restart hook
  }
  bss::Rng rng(seed);
  const bss::sim::FaultPlan plan = bss::sim::FaultPlan::random(
      config.n, /*crash_p=*/0.25, /*restart_p=*/0.5, /*sc_p=*/0.25,
      /*max_op=*/24, rng);
  bss::sim::RandomScheduler scheduler(seed * 0x9e3779b97f4a7c15ULL + 1);
  const bss::sim::RunReport report = env.run(scheduler, plan);
  for (int pid = 0; pid < config.n; ++pid) {
    const auto i = static_cast<std::size_t>(pid);
    restarts += report.restarts_by_pid[i];
    if (report.outcomes[i] == bss::sim::ProcOutcome::kFailed) {
      return "seed " + std::to_string(seed) + ": p" + std::to_string(pid) +
             " failed: " + report.errors[i];
    }
  }
  stats.merge_from(ledger.stats());
  if (const auto violation = ledger.check(); violation.has_value()) {
    return "seed " + std::to_string(seed) + ": " + *violation;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) try {
  bool soak = false;
  std::uint64_t base_seed = 1;
  std::string out_path;
  std::string status_path;
  std::uint64_t status_every = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--soak") {
      soak = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      base_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--status" && i + 1 < argc) {
      status_path = argv[++i];
    } else if (arg == "--status-every" && i + 1 < argc) {
      status_every = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--soak] [--seed N] [--out PATH]"
                   " [--status PATH] [--status-every MS]\n",
                   argv[0]);
      return 2;
    }
  }

  const LeaseConfig config = pool_config();
  const int sim_runs = soak ? 400 : 40;
  const int thread_runs = soak ? 200 : 20;

  // --- heartbeat: one storm == one "schedule", bounded by the plan -------
  bss::obs::StatusWriter status_writer(status_path, status_every);
  const std::uint64_t planned =
      static_cast<std::uint64_t>(sim_runs + thread_runs);
  int violations = 0;
  std::uint64_t storms_done = 0;
  const auto heartbeat = [&](std::uint64_t backend_index, std::string state) {
    if (!status_writer.enabled()) return;
    bss::obs::Status s;
    s.producer = "leader_worker_pool";
    s.system = "lease[n=" + std::to_string(config.n) + "]";
    s.state = std::move(state);
    s.schedules = storms_done;
    s.violations = static_cast<std::uint64_t>(violations);
    s.frontier = planned - storms_done;
    s.max_schedules = planned;
    s.passes = backend_index;  // 0 = sim backend, 1 = thread backend
    s.jobs = 1;
    status_writer.write(std::move(s));
  };
  heartbeat(0, "running");  // seq 0: the soak is visible immediately

  // --- sim backend: seeded random storms through the simulator -----------
  LeaseStats sim_stats;
  int sim_restarts = 0;
  for (int run = 0; run < sim_runs; ++run) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(run);
    const auto verdict = run_sim_storm(config, seed, sim_stats, sim_restarts);
    if (verdict.has_value()) {
      std::fprintf(stderr, "sim VIOLATION: %s\n", verdict->c_str());
      ++violations;
    }
    ++storms_done;
    if (status_writer.due()) heartbeat(0, "running");
  }
  std::printf("sim    %4d seeded storms  n=%d  restarts=%d  acquired=%llu  "
              "takeovers=%llu  step-downs=%llu  violations=%d\n",
              sim_runs, config.n, sim_restarts,
              static_cast<unsigned long long>(sim_stats.leases_acquired),
              static_cast<unsigned long long>(sim_stats.takeovers),
              static_cast<unsigned long long>(sim_stats.step_downs),
              violations);

  // --- thread backend: the same protocol on real atomics -----------------
  LeaseStats thread_stats;
  int thread_restarts = 0;
  int thread_spurious = 0;
  for (int run = 0; run < thread_runs; ++run) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(run);
    const auto report =
        bss::service::run_thread_lease_storm(config, seed, /*max_crashes=*/2);
    thread_stats.merge_from(report.stats);
    thread_restarts += report.restarts;
    thread_spurious += report.spurious_delivered;
    if (report.violation.has_value()) {
      std::fprintf(stderr, "thread VIOLATION: seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   report.violation->c_str());
      ++violations;
    }
    ++storms_done;
    if (status_writer.due()) heartbeat(1, "running");
  }
  heartbeat(1, "complete");  // terminal: unconditional, final totals
  std::printf("thread %4d seeded storms  n=%d  restarts=%d  spurious-sc=%d  "
              "acquired=%llu  step-downs=%llu  violations=%d\n",
              thread_runs, config.n, thread_restarts, thread_spurious,
              static_cast<unsigned long long>(thread_stats.leases_acquired),
              static_cast<unsigned long long>(thread_stats.step_downs),
              violations);

  // --- runreport: the service.* stat family, schema-gated ----------------
  if (!out_path.empty()) {
    LeaseStats total;
    total.merge_from(sim_stats);
    total.merge_from(thread_stats);
    bss::obs::ReportBuilder report("service_storm", "leader_worker_pool");
    report.set_system("lease[n=" + std::to_string(config.n) + "]");
    report.option("soak", soak);
    report.option("base_seed", static_cast<double>(base_seed));
    report.stat("sim_runs", static_cast<std::uint64_t>(sim_runs));
    report.stat("thread_runs", static_cast<std::uint64_t>(thread_runs));
    report.stat("restarts",
                static_cast<std::uint64_t>(sim_restarts + thread_restarts));
    report.stat("violations", static_cast<std::uint64_t>(violations));
    report.stat("service.leases_acquired", total.leases_acquired);
    report.stat("service.takeovers", total.takeovers);
    report.stat("service.renewals", total.renewals);
    report.stat("service.renew_failures", total.renew_failures);
    report.stat("service.retries", total.retries);
    report.stat("service.step_downs", total.step_downs);
    report.stat("service.expirations", total.expirations);
    report.stat("service.give_ups", total.give_ups);
    report.stat("service.actions", total.actions);
    const std::string text = report.to_json();
    const auto errors = bss::obs::validate_runreport(text);
    if (!errors.empty()) {
      std::fprintf(stderr, "runreport invalid: %s\n", errors.front().c_str());
      return 1;
    }
    std::ofstream(out_path) << text;
    std::printf("runreport -> %s (validator clean)\n", out_path.c_str());
  }

  return violations == 0 ? 0 : 1;
} catch (const std::exception& error) {
  std::fprintf(stderr, "leader_worker_pool: error: %s\n", error.what());
  return 2;
}
