// `bss-runreport v1` — the schema-versioned run artifact of the telemetry
// layer, written next to `bss-counterexample` artifacts and emitted by both
// explore() and every bench binary, so benchmark trajectories and
// exploration campaigns diff under ONE schema across PRs.
//
// Top-level document shape (all keys optional unless marked required):
//
//   {
//     "schema": "bss-runreport v1",      // required, exact string
//     "kind": "explore" | "bench",       // required
//     "producer": "explore()" | "bench_explore" | …,   // required
//     "system": "one_shot[…]",           // explored system, "" for benches
//     "environment": { … },              // host/config facts (jobs, threads)
//     "options": { … },                  // the knobs the run was given
//     "stats": { name: integer, … },     // deterministic result counters
//     "coverage": { … },                 // fault points, exhausted, …
//     "violations": [ { … }, … ],        // per-counterexample summaries
//     "rows": [ { … }, … ],              // bench table rows, one object each
//     "metrics": { counters/gauges/histograms },   // MetricsSnapshot
//     "events": { "emitted": N, "dropped": N },    // older producers only
//     "profile": { "<phase>": {"calls": N, "ns": N}, … },  // PhaseProfiler
//     "timing": { "wall_seconds": … }    // wall-clock channel, quarantined
//   }
//
// Everything outside "timing" and "profile" is the deterministic channel;
// those two sections are the only places wall-clock may appear ("profile"
// carries the phase self-profiler's accumulated nanoseconds, keyed by the
// closed phase set in obs/profile.h).  Consumers must reject documents whose
// schema line is missing or names a version they do not understand —
// exactly the `bss-counterexample v2` policy — and unknown top-level keys,
// so schema drift fails loudly instead of silently forking the format.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace bss::obs {

inline constexpr std::string_view kRunReportSchema = "bss-runreport v1";

/// Incremental builder; every setter feeds the deterministic channel except
/// timing().  build()/to_json() may be called repeatedly.
class ReportBuilder {
 public:
  ReportBuilder(std::string kind, std::string producer);

  void set_system(std::string system);
  void environment(const std::string& key, json::Value value);
  void option(const std::string& key, json::Value value);
  void stat(const std::string& key, std::uint64_t value);
  void coverage(const std::string& key, json::Value value);
  void violation(json::Object summary);
  void row(json::Object row);
  void metrics(const MetricsSnapshot& snapshot);
  /// Phase wall-time table (PhaseProfiler::to_json()) — quarantined like
  /// timing().
  void profile(json::Object table);
  /// Wall-clock channel — nondeterministic, like profile().
  void timing(const std::string& key, json::Value value);

  json::Value build() const;
  /// Pretty-printed document with a trailing newline (file-ready).
  std::string to_json() const;

 private:
  json::Object root_;
};

/// A parsed report.
struct RunReport {
  json::Value root;

  /// The one walk over a parsed document: records every error in `errors`
  /// (a missing or unknown schema version, unknown top-level keys,
  /// wrong-typed known keys, stats outside the closed "service." family,
  /// unknown profile phases, a negative or non-finite schedule rate).  The
  /// result means something only when no error was recorded.
  static RunReport read(json::Value document,
                        std::vector<std::string>& errors);

  /// Parse + read: accepts exactly what validate_runreport accepts, so a
  /// future schema version or a drifted key is a hard reject, and returns
  /// the first error in `error` otherwise.
  static std::optional<RunReport> parse(std::string_view text,
                                        std::string* error = nullptr);

  std::string kind() const;
  std::string producer() const;
  std::string system() const;
  /// stats[name], or `fallback` when absent/mistyped.
  std::uint64_t stat(const std::string& name, std::uint64_t fallback = 0) const;
  const json::Object* stats() const;
  const json::Array* rows() const;
};

/// The walk's error list for the CI gate (tools/report_check): empty ==
/// valid, the same verdict as RunReport::parse.
std::vector<std::string> validate_runreport(std::string_view text);

/// Writes `text` to `path` atomically enough for artifacts (truncate +
/// write + close); returns false on any I/O failure.
bool write_file(const std::string& path, std::string_view text);

/// Atomically replaces `path` with `text`: write `path`.tmp.<pid>, close,
/// rename over the target, so a reader (or a resume after SIGKILL) sees
/// either the previous document or the new one, never a torn file, and two
/// processes writing one path never share a temporary file.  False on I/O
/// failure.
bool write_file_atomic(const std::string& path, std::string_view text);

}  // namespace bss::obs
