// M1 — substrate microbenchmarks (google-benchmark).
//
// Costs of the building blocks everything else runs on: the deterministic
// scheduler's step dispatch, abandoning parked processes, compare&swap-(k)
// operations, the AADGMS atomic snapshot as a function of component count,
// and the emulation board's label-compatibility reads.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

#include "bench_gbench.h"
#include "emulation/board.h"
#include "registers/cas_register_k.h"
#include "registers/mwmr_register.h"
#include "registers/snapshot.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace {

void BM_SimStepDispatch(benchmark::State& state) {
  const int ops = bss::checked_cast<int>(state.range(0));
  for (auto _ : state) {
    bss::sim::SimEnv env({.record_trace = false});
    bss::sim::CasRegisterK cas("c", 4);
    env.add_process([&, ops](bss::sim::Ctx& ctx) {
      for (int i = 0; i < ops; ++i) (void)cas.read(ctx);
    });
    bss::sim::RoundRobinScheduler scheduler;
    const auto report = env.run(scheduler);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_SimStepDispatch)->Arg(1000)->Arg(10000);

// Abandoning parked processes: finish() on N processes parked inside a
// register operation, the explorer's cost for every schedule it prunes.
// Each process is unwound by one forced unwind through its parked frames,
// so any object with a destructor on the park path makes every abandoned
// process pay for another landing pad.  Only finish() is timed; items are
// abandoned processes.
void BM_SimAbandonParked(benchmark::State& state) {
  const int processes = bss::checked_cast<int>(state.range(0));
  bss::sim::MwmrRegister<int> reg("abandoned", 0);
  std::optional<bss::sim::SimEnv> env;
  for (auto _ : state) {
    state.PauseTiming();
    env.reset();
    env.emplace(bss::sim::SimOptions{.record_trace = false});
    for (int pid = 0; pid < processes; ++pid) {
      env->add_process([&](bss::sim::Ctx& ctx) {
        for (int v = 0;; ++v) {
          (void)reg.read(ctx);
          reg.write(ctx, v);
        }
      });
    }
    env->start();
    for (int pid = 0; pid < processes; ++pid) env->apply(pid);
    state.ResumeTiming();
    env->finish();
  }
  state.SetItemsProcessed(state.iterations() * processes);
}
BENCHMARK(BM_SimAbandonParked)->Arg(1)->Arg(4)->Arg(16);

// Crash-restart: a restart fault on each of N processes parked inside a
// register operation.  Each restart unwinds the process the way finish()
// does, then re-enters its restart hook on a fresh fiber up to its first
// operation.  Lease-service schedules pay about one per schedule.  Items
// are restarts.
void BM_SimCrashRestart(benchmark::State& state) {
  const int processes = bss::checked_cast<int>(state.range(0));
  bss::sim::MwmrRegister<int> reg("restarted", 0);
  bss::sim::SimEnv env({.record_trace = false});
  const auto body = [&](bss::sim::Ctx& ctx) {
    for (int v = 0;; ++v) {
      (void)reg.read(ctx);
      reg.write(ctx, v);
    }
  };
  for (int pid = 0; pid < processes; ++pid) env.add_process(body, body);
  env.start();
  for (int pid = 0; pid < processes; ++pid) env.apply(pid);
  for (auto _ : state) {
    for (int pid = 0; pid < processes; ++pid) env.restart_process(pid);
  }
  env.finish();
  state.SetItemsProcessed(state.iterations() * processes);
}
BENCHMARK(BM_SimCrashRestart)->Arg(1)->Arg(4)->Arg(16);

void BM_CasRegisterOps(benchmark::State& state) {
  const int ops = bss::checked_cast<int>(state.range(0));
  for (auto _ : state) {
    bss::sim::SimEnv env({.record_trace = false});
    bss::sim::CasRegisterK cas("c", 8);
    env.add_process([&, ops](bss::sim::Ctx& ctx) {
      int value = 0;
      for (int i = 0; i < ops; ++i) {
        const int next = (value + 1) % 8;
        (void)cas.compare_and_swap(ctx, value, next);
        value = next;
      }
    });
    bss::sim::RoundRobinScheduler scheduler;
    env.run(scheduler);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_CasRegisterOps)->Arg(1000);

void BM_SnapshotScan(benchmark::State& state) {
  const int components = bss::checked_cast<int>(state.range(0));
  std::uint64_t reads = 0;
  std::uint64_t scans = 0;
  for (auto _ : state) {
    bss::sim::SimEnv env({.record_trace = false});
    bss::sim::AtomicSnapshot snapshot("s", components);
    env.add_process([&](bss::sim::Ctx& ctx) {
      for (int round = 0; round < 20; ++round) {
        snapshot.update(ctx, 0, round);
        (void)snapshot.scan(ctx);
        reads += snapshot.reads_in_last_scan(ctx.pid());
        ++scans;
      }
    });
    bss::sim::RoundRobinScheduler scheduler;
    env.run(scheduler);
  }
  state.counters["reads/scan"] = benchmark::Counter(
      scans == 0 ? 0 : static_cast<double>(reads) / static_cast<double>(scans));
}
BENCHMARK(BM_SnapshotScan)->Arg(2)->Arg(8)->Arg(32);

void BM_SnapshotScanContended(benchmark::State& state) {
  const int writers = bss::checked_cast<int>(state.range(0));
  for (auto _ : state) {
    bss::sim::SimEnv env({.record_trace = false});
    bss::sim::AtomicSnapshot snapshot("s", writers + 1);
    env.add_process([&](bss::sim::Ctx& ctx) {
      for (int i = 0; i < 10; ++i) (void)snapshot.scan(ctx);
    });
    for (int w = 0; w < writers; ++w) {
      env.add_process([&, w](bss::sim::Ctx& ctx) {
        for (int i = 1; i <= 10; ++i) snapshot.update(ctx, w + 1, i);
      });
    }
    bss::sim::RandomScheduler scheduler(5);
    env.run(scheduler);
  }
}
BENCHMARK(BM_SnapshotScanContended)->Arg(2)->Arg(6);

void BM_BoardRead(benchmark::State& state) {
  const int entries = bss::checked_cast<int>(state.range(0));
  bss::emu::Board board;
  bss::emu::Label deep{0};
  for (int i = 1; i < 4; ++i) deep.push_back(i);
  for (int i = 0; i < entries; ++i) {
    board.write("r", i % 2 == 0 ? bss::emu::Label{0} : deep, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(board.read("r", deep));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoardRead)->Arg(16)->Arg(256);

}  // namespace

// Same main shape as bench_election: --json for machine-readable stdout,
// --out PATH for the shared bss-runreport v1 artifact, everything else is
// google-benchmark's.
int main(int argc, char** argv) {
  auto pre = bss::bench::preprocess_gbench_args(argc, argv);
  int args_count = bss::checked_cast<int>(pre.args.size());
  benchmark::Initialize(&args_count, pre.args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, pre.args.data())) {
    std::fprintf(stderr,
                 "usage: %s [--json] [--out PATH] [google-benchmark flags]\n"
                 "  --json     shorthand for --benchmark_format=json\n"
                 "  --out PATH write a bss-runreport v1 artifact to PATH\n",
                 argv[0]);
    return 1;
  }
  return bss::bench::run_gbench_with_report(pre, "bench_primitives");
}
