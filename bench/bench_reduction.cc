// F2 — anatomy of the Section 3 reduction, run live.
//
// The emulation turns a leader-election algorithm A (here: FirstValueTree)
// into a set-consensus protocol for the emulators.  The quantities the
// proof lives on, measured:
//   * labels/groups produced (must stay <= (k-1)!),
//   * splits, installs, suspensions, releases,
//   * distinct decisions (the l of the l-set consensus delivered),
//   * completion vs stall as the v-process supply varies — the stall at
//     m > (k-1)! IS the theorem: A's capacity cannot feed (k-1)!+1
//     emulators, so the impossible algorithm cannot be built.
#include <cstdio>

#include "bench_flags.h"
#include "bench_report.h"
#include "emulation/driver.h"
#include "emulation/reduction_check.h"
#include "util/checked.h"

namespace {

using bss::emu::EmuParams;
using bss::emu::EmulationDriver;
using bss::emu::EmuStats;

void sweep_fvt(bss::bench::BenchReport& report) {
  std::printf(
      "F2a — A = FirstValueTree election, varying emulators and v-processes\n");
  std::printf("%3s %3s %5s %9s %7s %7s %9s %10s %8s\n", "k", "m", "vps/m",
              "outcome", "labels", "splits", "installs", "decisions",
              "verdict");
  struct Config {
    int k;
    int m;
    int vps;
  };
  const Config configs[] = {{3, 1, 2}, {3, 2, 1}, {4, 1, 3}, {4, 2, 3},
                            {4, 3, 2}, {4, 6, 1}, {5, 2, 6}, {5, 4, 6}};
  for (const auto& config : configs) {
    EmuParams params;
    params.k = config.k;
    params.m = config.m;
    params.vps_per_emulator = config.vps;
    EmulationDriver driver(params, bss::emu::fvt_vp_factory());
    const EmuStats stats = driver.run();
    const auto verdict = bss::emu::verify_reduction(driver, stats);
    std::printf("%3d %3d %5d %9s %7zu %7d %9d %10d %8s\n", config.k, config.m,
                config.vps, stats.completed ? "complete" : "STALL",
                driver.forest().tree_count(), stats.splits, stats.installs,
                stats.distinct_decisions, verdict.ok() ? "OK" : "FAIL");
    bss::obs::json::Object object;
    object.emplace("kind", "fvt");
    object.emplace("k", config.k);
    object.emplace("m", config.m);
    object.emplace("vps_per_emulator", config.vps);
    object.emplace("completed", stats.completed);
    object.emplace("labels",
                   static_cast<std::uint64_t>(driver.forest().tree_count()));
    object.emplace("splits", stats.splits);
    object.emplace("installs", stats.installs);
    object.emplace("distinct_decisions", stats.distinct_decisions);
    object.emplace("ok", verdict.ok());
    report.row(std::move(object));
  }
  const std::uint64_t bound3 = 2;  // (3-1)!
  std::printf(
      "\nshape: distinct decisions never exceed (k-1)! (e.g. %llu at k=3);\n"
      "the (k-1)!+1-st emulator cannot be fed (A has only (k-1)! slots) —\n"
      "the impossibility made operational.\n\n",
      static_cast<unsigned long long>(bound3));
}

void sweep_token_race(bss::bench::BenchReport& report) {
  std::printf(
      "F2b — A = token-race (value-reusing) exerciser: the rebalance path\n");
  std::printf("%3s %3s %5s %7s %9s %11s %9s %9s\n", "k", "m", "vps/m",
              "rounds", "outcome", "suspensions", "releases", "installs");
  struct Config {
    int k;
    int m;
    int vps;
    int rounds;
  };
  const Config configs[] = {{3, 1, 4, 8}, {3, 2, 3, 6}, {4, 2, 4, 8},
                            {4, 3, 4, 12}};
  for (const auto& config : configs) {
    EmuParams params;
    params.k = config.k;
    params.m = config.m;
    params.vps_per_emulator = config.vps;
    params.suspend_trigger = 2;
    params.suspend_quota = 1;
    EmulationDriver driver(params,
                           bss::emu::token_race_factory(config.rounds));
    const EmuStats stats = driver.run();
    std::printf("%3d %3d %5d %7d %9s %11d %9d %9d\n", config.k, config.m,
                config.vps, config.rounds,
                stats.completed ? "complete" : "STALL", stats.suspensions,
                stats.releases, stats.installs);
    bss::obs::json::Object object;
    object.emplace("kind", "token_race");
    object.emplace("k", config.k);
    object.emplace("m", config.m);
    object.emplace("vps_per_emulator", config.vps);
    object.emplace("rounds", config.rounds);
    object.emplace("completed", stats.completed);
    object.emplace("suspensions", stats.suspensions);
    object.emplace("releases", stats.releases);
    object.emplace("installs", stats.installs);
    report.row(std::move(object));
  }
  {
    // Paper-faithful mode: installs must be backed by suspended
    // v-processes, releases pay the history's debts (CanRebalance), and
    // value reuse goes through the excess-cycle ancestor attach.
    EmuParams params;
    params.k = 3;
    params.m = 1;
    params.vps_per_emulator = 8;
    params.suspend_trigger = 2;
    params.suspend_quota = 2;
    params.direct_install = false;
    EmulationDriver driver(params, bss::emu::token_race_factory(9));
    const EmuStats stats = driver.run();
    std::printf("%3d %3d %5d %7d %9s %11d %9d %9d   (faithful mode)\n", 3, 1,
                8, 9, stats.completed ? "complete" : "STALL",
                stats.suspensions, stats.releases, stats.installs);
    bss::obs::json::Object object;
    object.emplace("kind", "token_race_faithful");
    object.emplace("k", 3);
    object.emplace("m", 1);
    object.emplace("vps_per_emulator", 8);
    object.emplace("rounds", 9);
    object.emplace("completed", stats.completed);
    object.emplace("suspensions", stats.suspensions);
    object.emplace("releases", stats.releases);
    object.emplace("installs", stats.installs);
    report.row(std::move(object));
  }
  std::printf(
      "\nshape: value reuse makes installs exceed k-1 and drives the\n"
      "suspension/release machinery that first-value algorithms never\n"
      "touch — the part of the construction the paper built the history\n"
      "trees for.\n\n");
}

void show_history_tree(bss::bench::BenchReport& report) {
  std::printf("F2c — a constructed history, spelled out (k=3, token race)\n");
  EmuParams params;
  params.k = 3;
  params.m = 1;
  params.vps_per_emulator = 4;
  params.suspend_trigger = 2;
  params.suspend_quota = 1;
  EmulationDriver driver(params, bss::emu::token_race_factory(6));
  const EmuStats stats = driver.run();
  for (const auto& label : driver.forest().active_labels()) {
    const auto history = driver.forest().compute_history(label);
    std::printf("  t_%s: h = %s\n", bss::emu::label_string(label).c_str(),
                bss::emu::label_string(history).c_str());
  }
  std::printf("  vp steps=%d, events=%zu, completed=%s\n", stats.vp_steps,
              driver.events().size(), stats.completed ? "yes" : "no");
  bss::obs::json::Object object;
  object.emplace("kind", "history");
  object.emplace("vp_steps", stats.vp_steps);
  object.emplace("events", static_cast<std::uint64_t>(driver.events().size()));
  object.emplace("completed", stats.completed);
  object.emplace("active_labels",
                 static_cast<std::uint64_t>(
                     driver.forest().active_labels().size()));
  report.row(std::move(object));
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_reduction");
  sweep_fvt(report);
  sweep_token_race(report);
  show_history_tree(report);
  report.finalize();
  return 0;
}
