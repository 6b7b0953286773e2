// The telemetry facade the exploration stack talks to.  Hot loops are
// instrumented against the small `ObsSink` interface — a null sink pointer
// means observability is off and the instrumented code must behave (and
// produce results) byte-identically.  `Telemetry` is the production sink:
// it owns a MetricsRegistry, a bounded EventLog and a Timeline, each
// independently switchable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runreport.h"
#include "obs/timeline.h"

namespace bss::obs {

/// Abstract telemetry sink.  All methods are thread-safe; the shard
/// returned by metric_shard() is single-writer per the MetricShard rules.
class ObsSink {
 public:
  virtual ~ObsSink() = default;

  /// The metric shard for logical worker `worker` (Event::kCoordinator for
  /// the explore() thread), or nullptr when metrics are off — callers skip
  /// all metric work on nullptr.
  virtual MetricShard* metric_shard(int worker) = 0;

  /// True when emit() actually records; lets callers skip building Event
  /// payloads (string formatting) that would be discarded.
  virtual bool events_enabled() const = 0;
  virtual void emit(Event event) = 0;

  /// True when record_span() actually records; now_ns() is only meaningful
  /// when enabled (returns 0 otherwise).
  virtual bool timeline_enabled() const = 0;
  virtual std::uint64_t now_ns() const = 0;
  virtual void record_span(Span span) = 0;

  /// Called once at the end of an instrumented run with the deterministic
  /// payload already filled in; the sink appends its own summaries
  /// (metrics, event counts, timing) and disposes of the document —
  /// Telemetry writes report/trace files when paths are configured.
  virtual void report(ReportBuilder& builder) = 0;

  /// The phase profiler to accumulate into, or nullptr when phase timing
  /// is off — ScopedPhase on nullptr is fully inert, so instrumented code
  /// pays one pointer test.
  virtual PhaseProfiler* profiler() { return nullptr; }
};

/// The standard sink: metrics + events + timeline, each independently
/// enabled, plus optional artifact paths written by report().
class Telemetry final : public ObsSink {
 public:
  struct Options {
    bool metrics = true;
    bool events = true;
    bool timeline = false;
    /// Accumulate per-phase wall time and emit it as the runreport's
    /// `profile` section (quarantined alongside `timing`).
    bool profile = false;
    std::size_t event_capacity = std::size_t{1} << 16;
    /// When non-empty, report() writes the bss-runreport v1 document here.
    std::string report_path;
    /// When non-empty, report() writes the Chrome trace here (needs
    /// timeline = true to contain any spans).
    std::string trace_path;
  };

  Telemetry() : Telemetry(Options{}) {}
  explicit Telemetry(Options options);

  MetricShard* metric_shard(int worker) override;
  bool events_enabled() const override;
  void emit(Event event) override;
  bool timeline_enabled() const override;
  std::uint64_t now_ns() const override;
  void record_span(Span span) override;
  void report(ReportBuilder& builder) override;
  PhaseProfiler* profiler() override {
    return options_.profile ? &profiler_ : nullptr;
  }

  const Options& options() const { return options_; }
  MetricsSnapshot metrics_snapshot() const;
  const EventLog& event_log() const { return events_; }
  const Timeline& timeline() const { return timeline_; }
  /// The last report() document (empty string before the first report).
  const std::string& last_report() const { return last_report_; }

 private:
  Options options_;
  MetricsRegistry metrics_;
  EventLog events_;
  Timeline timeline_;
  PhaseProfiler profiler_;
  std::string last_report_;
};

}  // namespace bss::obs
