// F1 — election cost curves (google-benchmark).
//
// The paper's algorithmic claim behind n_k >= (k-1)! is that the election is
// *bounded wait-free*: O(k) compare&swap accesses per process no matter the
// schedule.  These benchmarks measure, per (k, n, scheduler):
//   * wall time of a full simulated election,
//   * shared-memory steps and c&s accesses per process (counters),
// plus the real-thread lock-free backend at full capacity.  The shape to
// see: c&s accesses per process stay ~2k (flat in n), while total steps grow
// with n (the helping scans) — bounded synchronization, unbounded gossip.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_gbench.h"

#include "core/concurrent_election.h"
#include "core/election_validator.h"
#include "core/one_shot_election.h"
#include "core/sim_election.h"
#include "util/checked.h"

namespace {

using bss::core::run_sim_election;

void BM_SimElection_RoundRobin(benchmark::State& state) {
  const int k = bss::checked_cast<int>(state.range(0));
  const int n = bss::checked_cast<int>(state.range(1));
  std::uint64_t total_steps = 0;
  std::uint64_t total_cas = 0;
  int max_cas = 0;
  for (auto _ : state) {
    bss::sim::RoundRobinScheduler scheduler;
    const auto report = run_sim_election(k, n, scheduler);
    total_steps += report.run.total_steps;
    total_cas += report.cas_total_accesses;
    for (const auto& outcome : report.outcomes) {
      if (outcome.has_value() && outcome->cas_accesses > max_cas) {
        max_cas = outcome->cas_accesses;
      }
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["steps/proc"] = benchmark::Counter(
      static_cast<double>(total_steps) / static_cast<double>(state.iterations()) / n);
  state.counters["cas/proc"] = benchmark::Counter(
      static_cast<double>(total_cas) / static_cast<double>(state.iterations()) / n);
  state.counters["max-cas"] = benchmark::Counter(static_cast<double>(max_cas));
}
BENCHMARK(BM_SimElection_RoundRobin)
    ->Args({4, 6})
    ->Args({5, 6})
    ->Args({5, 24})
    ->Args({6, 24})
    ->Args({6, 120})
    ->Unit(benchmark::kMillisecond);

void BM_SimElection_Adversarial(benchmark::State& state) {
  const int k = bss::checked_cast<int>(state.range(0));
  const int n = bss::checked_cast<int>(state.range(1));
  std::uint64_t seed = 1;
  int max_cas = 0;
  for (auto _ : state) {
    bss::sim::CasConvoyScheduler scheduler(seed++);
    const auto report = run_sim_election(k, n, scheduler);
    for (const auto& outcome : report.outcomes) {
      if (outcome.has_value() && outcome->cas_accesses > max_cas) {
        max_cas = outcome->cas_accesses;
      }
    }
    benchmark::DoNotOptimize(report);
  }
  state.counters["max-cas"] = benchmark::Counter(static_cast<double>(max_cas));
  state.counters["bound-4k+8"] =
      benchmark::Counter(static_cast<double>(bss::core::max_iterations(k)));
}
BENCHMARK(BM_SimElection_Adversarial)
    ->Args({4, 6})
    ->Args({5, 24})
    ->Args({6, 120})
    ->Unit(benchmark::kMillisecond);

void BM_SimElection_WithCrashes(benchmark::State& state) {
  const int k = bss::checked_cast<int>(state.range(0));
  const int n = bss::checked_cast<int>(state.range(1));
  std::uint64_t seed = 2026;
  for (auto _ : state) {
    bss::Rng rng(seed++);
    const auto crashes = bss::sim::FaultPlan::random_crashes(n, 0.3, 20, rng);
    bss::sim::RandomScheduler scheduler(seed);
    const auto report = run_sim_election(k, n, scheduler, crashes);
    const auto verdict = bss::core::verify_election(report);
    if (!verdict.ok()) state.SkipWithError("election verdict failed");
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SimElection_WithCrashes)
    ->Args({5, 24})
    ->Args({6, 120})
    ->Unit(benchmark::kMillisecond);

void BM_ConcurrentElection(benchmark::State& state) {
  const int k = bss::checked_cast<int>(state.range(0));
  const int n = bss::checked_cast<int>(state.range(1));
  for (auto _ : state) {
    const auto report = bss::core::run_concurrent_election(k, n);
    if (!report.consistent) state.SkipWithError("inconsistent election");
    benchmark::DoNotOptimize(report);
  }
  state.counters["threads"] = benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_ConcurrentElection)
    ->Args({5, 24})
    ->Args({6, 120})
    ->Args({7, 720})
    ->Unit(benchmark::kMillisecond);

void BM_OneShotElection(benchmark::State& state) {
  const int k = bss::checked_cast<int>(state.range(0));
  for (auto _ : state) {
    bss::sim::RandomScheduler scheduler(3);
    const auto report = bss::core::run_one_shot_election(k, k - 1, scheduler);
    if (!report.consistent) state.SkipWithError("inconsistent one-shot");
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_OneShotElection)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace

// Hand-rolled main instead of BENCHMARK_MAIN(): `--json` is sugar for
// google-benchmark's JSON reporter, so every bench binary in this repo
// shares one machine-readable flag (EXPERIMENTS.md), and `--out PATH`
// writes the shared bss-runreport v1 artifact (bench_gbench.h).  Flags are
// accepted in any position; anything neither we nor google-benchmark
// recognize gets a usage message instead of being silently ignored.
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
  return bss::bench::run_gbench_with_report(pre.flags, "bench_election");
}
