// Shared `bss-runreport v1` emission for the bench binaries: every bench —
// table-shaped and google-benchmark alike — funnels its rows through a
// BenchReport so one schema covers all benchmark trajectories (the bench
// counterpart of the report explore() emits; see src/obs/runreport.h).
//
// stdout is untouched: the table prints exactly as before, and the report
// is written only when --out PATH was given.
//
// Benches whose rows are deterministic certificates (bench_audit,
// bench_faults, bench_service) also check their table against the one
// recorded in their source: see print_certificate.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "bench_flags.h"
#include "obs/runreport.h"

namespace bss::bench {

class BenchReport {
 public:
  BenchReport(const BenchFlags& flags, std::string producer)
      : out_(flags.out),
        builder_("bench", std::move(producer)),
        wall_begin_(std::chrono::steady_clock::now()) {
    builder_.environment("jobs", flags.jobs);
  }

  /// Direct access for environment/options/stats the bench wants recorded.
  obs::ReportBuilder& builder() { return builder_; }

  /// One table row as a JSON object (the table's fields).
  void row(obs::json::Object row) { builder_.row(std::move(row)); }

  /// Accumulates schedules executed across the bench's cells; finalize()
  /// turns the total into the timing channel's schedules/second headline.
  void schedules(std::uint64_t count) { schedules_ += count; }

  /// Writes the report to --out (no-op without the flag).  Call once, after
  /// the last row; exits nonzero on I/O failure so CI catches a bad path.
  void finalize() {
    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - wall_begin_)
                             .count();
    builder_.timing("wall_ns",
                    obs::json::Value(static_cast<std::uint64_t>(wall_ns)));
    if (schedules_ > 0 && wall_ns > 0) {
      builder_.timing("schedules_per_second",
                      obs::json::Value(static_cast<double>(schedules_) * 1e9 /
                                       static_cast<double>(wall_ns)));
    }
    if (out_.empty()) return;
    if (!obs::write_file(out_, builder_.to_json())) {
      std::fprintf(stderr, "FATAL: cannot write runreport to '%s'\n",
                   out_.c_str());
      std::exit(1);
    }
  }

 private:
  std::string out_;
  obs::ReportBuilder builder_;
  std::chrono::steady_clock::time_point wall_begin_;
  std::uint64_t schedules_ = 0;
};

/// printf onto the end of `out` (one table row, under 256 bytes): certificate
/// tables are built as text, so the bytes printed are the bytes compared
/// with the recorded table.
[[gnu::format(printf, 2, 3)]] inline void appendf(std::string& out,
                                                  const char* format, ...) {
  char line[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  out += line;
}

/// Prints a certificate table to stdout, then compares it line by line with
/// `recorded`, the table the bench's source holds (one leading newline is
/// skipped, so a raw string literal can start the table on its own line).
/// On any difference it prints the expected and the actual row to stderr and
/// exits 1, so a count that moves fails ctest instead of drifting in
/// EXPERIMENTS.md.  Copy the bench's new stdout into its recorded table only
/// when a change is meant to move a count.
inline void print_certificate(const std::string& table, const char* recorded) {
  std::fputs(table.c_str(), stdout);
  std::fflush(stdout);
  if (*recorded == '\n') ++recorded;
  std::istringstream want(recorded);
  std::istringstream got(table);
  bool ok = true;
  for (int row = 1;; ++row) {
    std::string expected;
    std::string actual;
    const bool more_expected = static_cast<bool>(std::getline(want, expected));
    const bool more_actual = static_cast<bool>(std::getline(got, actual));
    if (!more_expected && !more_actual) break;
    if (more_expected && more_actual && expected == actual) continue;
    std::fprintf(stderr,
                 "certificate mismatch at row %d\n  expected: %s\n"
                 "  actual:   %s\n",
                 row, more_expected ? expected.c_str() : "(no row)",
                 more_actual ? actual.c_str() : "(no row)");
    ok = false;
  }
  if (!ok) std::exit(1);
}

}  // namespace bss::bench
