// Fixture: a certificate bench that times its explorer runs.  Only
// bench/bench_explore.cc (the fast-path gate) and bench/bench_report.h (the
// runreport's wall_ns) may read a clock; every other bench prints counts,
// which must not sit next to a stopwatch too coarse to read.
#include <chrono>

double explore_seconds() {
  const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
