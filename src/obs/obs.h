// The telemetry the exploration stack reports into.  A null `Telemetry*`
// means observability is off, and the instrumented code must then behave
// (and produce results) byte-identically.  A Telemetry owns a
// MetricsRegistry, a Timeline and a PhaseProfiler, each independently
// switchable, and writes the runreport and the Chrome trace at the end of
// a run.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runreport.h"
#include "obs/timeline.h"

namespace bss::obs {

/// All methods are thread-safe; the shard returned by metric_shard() is
/// single-writer per the MetricShard rules.
class Telemetry {
 public:
  struct Options {
    bool metrics = true;
    bool timeline = false;
    /// Accumulate per-phase wall time and emit it as the runreport's
    /// `profile` section (quarantined alongside `timing`).
    bool profile = false;
    /// When non-empty, report() writes the bss-runreport v1 document here.
    std::string report_path;
    /// When non-empty, report() writes the Chrome trace here (needs
    /// timeline = true to contain any spans).
    std::string trace_path;
  };

  Telemetry() : Telemetry(Options{}) {}
  explicit Telemetry(Options options);

  /// The metric shard for logical worker `worker` (kCoordinatorShard for
  /// the explore() thread), or nullptr when metrics are off — callers skip
  /// all metric work on nullptr.
  MetricShard* metric_shard(int worker);

  /// True when record_span() actually records; now_ns() is only meaningful
  /// when enabled (returns 0 otherwise).
  bool timeline_enabled() const { return options_.timeline; }
  std::uint64_t now_ns() const;
  void record_span(Span span);

  /// Called once at the end of an instrumented run with the deterministic
  /// payload already filled in: appends the metrics and the profile, keeps
  /// the document as last_report(), and writes the report and trace files
  /// when their paths are set; InvariantError naming the path when a write
  /// fails.
  void report(ReportBuilder& builder);

  /// The phase profiler to accumulate into, or nullptr when phase timing
  /// is off — ScopedPhase on nullptr is fully inert, so instrumented code
  /// pays one pointer test.
  PhaseProfiler* profiler() {
    return options_.profile ? &profiler_ : nullptr;
  }

  MetricsSnapshot metrics_snapshot() const;
  const Timeline& timeline() const { return timeline_; }
  /// The last report() document (empty string before the first report).
  const std::string& last_report() const { return last_report_; }

 private:
  Options options_;
  MetricsRegistry metrics_;
  Timeline timeline_;
  PhaseProfiler profiler_;
  std::string last_report_;
};

}  // namespace bss::obs
