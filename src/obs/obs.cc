#include "obs/obs.h"

#include <utility>

#include "util/checked.h"

namespace bss::obs {

Telemetry::Telemetry(Options options) : options_(std::move(options)) {}

MetricShard* Telemetry::metric_shard(int worker) {
  if (!options_.metrics) return nullptr;
  return &metrics_.shard(worker);
}

std::uint64_t Telemetry::now_ns() const {
  if (!options_.timeline) return 0;
  return timeline_.now_ns();
}

void Telemetry::record_span(Span span) {
  if (!options_.timeline) return;
  timeline_.record(std::move(span));
}

void Telemetry::report(ReportBuilder& builder) {
  if (options_.metrics) builder.metrics(metrics_.snapshot());
  if (options_.profile && profiler_.has_data()) {
    builder.profile(profiler_.to_json());
  }
  last_report_ = builder.to_json();
  if (!options_.report_path.empty()) {
    expects(write_file(options_.report_path, last_report_), [&] {
      return "failed to write runreport: " + options_.report_path;
    });
  }
  if (!options_.trace_path.empty()) {
    expects(write_file(options_.trace_path, timeline_.to_chrome_trace()),
            [&] { return "failed to write trace: " + options_.trace_path; });
  }
}

MetricsSnapshot Telemetry::metrics_snapshot() const {
  return metrics_.snapshot();
}

}  // namespace bss::obs
