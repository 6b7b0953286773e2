// Runreport capture for the google-benchmark binaries (bench_election,
// bench_primitives): the same `bss-runreport v1` artifact the table-shaped
// benches emit, produced by wrapping whichever display reporter the run
// uses in a capture shim — one row per benchmark run, counters included.
//
// The binaries keep google-benchmark's own flag handling; this header only
// peels off `--out PATH` (ours) and rewrites `--json` into benchmark's JSON
// format flag before Initialize sees the argument vector.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_report.h"

namespace bss::bench {

struct GBenchArgs {
  std::vector<char*> args;  ///< what benchmark::Initialize should consume
  BenchFlags flags;         ///< --out, decoded for the report
  bool json = false;        ///< --json: benchmark's JSON display reporter
};

/// Extracts `--out PATH` / `--out=PATH` and maps `--json` onto
/// `--benchmark_format=json`; every other argument passes through.
inline GBenchArgs preprocess_gbench_args(int argc, char** argv) {
  static char json_flag[] = "--benchmark_format=json";
  GBenchArgs result;
  result.args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" || arg == "--benchmark_format=json") {
      result.json = true;
      result.args.push_back(json_flag);
    } else if (arg == "--out" && i + 1 < argc) {
      result.flags.out = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      result.flags.out = std::string(arg.substr(std::strlen("--out=")));
    } else {
      result.args.push_back(argv[i]);
    }
  }
  return result;
}

/// Display reporter (console or JSON, matching `Base`) that additionally
/// records every run into the report: name, iterations, adjusted times in
/// the benchmark's declared unit, and all user counters.
template <typename Base>
class CapturingReporter final : public Base {
 public:
  explicit CapturingReporter(BenchReport* report) : report_(report) {}

  void ReportRuns(
      const std::vector<benchmark::BenchmarkReporter::Run>& runs) override {
    for (const auto& run : runs) {
      obs::json::Object row;
      row.emplace("name", run.benchmark_name());
      row.emplace("iterations", static_cast<std::int64_t>(run.iterations));
      row.emplace("real_time", run.GetAdjustedRealTime());
      row.emplace("cpu_time", run.GetAdjustedCPUTime());
      row.emplace("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      if (run.error_occurred) row.emplace("error", run.error_message);
      for (const auto& [name, counter] : run.counters) {
        row.emplace("counter:" + name, static_cast<double>(counter));
      }
      report_->row(std::move(row));
    }
    Base::ReportRuns(runs);
  }

 private:
  BenchReport* report_;
};

/// Runs the registered benchmarks under a capture reporter matching the
/// --json choice, finalizes the report (writing --out when given), and
/// shuts benchmark down.  The whole tail of main().
inline int run_gbench_with_report(const GBenchArgs& pre,
                                  std::string producer) {
  BenchReport report(pre.flags, std::move(producer));
  if (pre.json) {
    CapturingReporter<benchmark::JSONReporter> reporter(&report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  } else {
    CapturingReporter<benchmark::ConsoleReporter> reporter(&report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  report.finalize();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bss::bench
