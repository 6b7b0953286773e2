#include "obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "obs/json.h"

namespace bss::obs {

namespace {
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Timeline::Timeline() : epoch_ns_(steady_now_ns()) {}

std::uint64_t Timeline::now_ns() const { return steady_now_ns() - epoch_ns_; }

void Timeline::record(Span span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Timeline::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Timeline::to_chrome_trace() const {
  std::vector<Span> spans = this->spans();
  // Stable display order: by track, then by start time.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.track != b.track ? a.track < b.track : a.begin_ns < b.begin_ns;
  });

  json::Array events;
  std::set<int> tracks;
  for (const Span& span : spans) tracks.insert(span.track);
  {
    json::Object process_meta{
        {"name", json::Value("process_name")},
        {"ph", json::Value("M")},
        {"pid", json::Value(0)},
        {"tid", json::Value(0)},
        {"args", json::Value(json::Object{{"name", json::Value("bss")}})},
    };
    events.emplace_back(std::move(process_meta));
  }
  for (const int track : tracks) {
    const std::string name = "worker " + std::to_string(track);
    json::Object thread_meta{
        {"name", json::Value("thread_name")},
        {"ph", json::Value("M")},
        {"pid", json::Value(0)},
        {"tid", json::Value(track)},
        {"args", json::Value(json::Object{{"name", json::Value(name)}})},
    };
    events.emplace_back(std::move(thread_meta));
  }
  for (const Span& span : spans) {
    json::Object args;
    for (const auto& [key, value] : span.args) {
      args.emplace(key, json::Value(value));
    }
    const std::uint64_t duration =
        span.end_ns >= span.begin_ns ? span.end_ns - span.begin_ns : 0;
    json::Object event{
        {"name", json::Value(span.name)},
        {"ph", json::Value("X")},
        {"pid", json::Value(0)},
        {"tid", json::Value(span.track)},
        // Chrome trace timestamps are microseconds; keep sub-microsecond
        // resolution as fractional values.
        {"ts", json::Value(static_cast<double>(span.begin_ns) / 1000.0)},
        {"dur", json::Value(static_cast<double>(duration) / 1000.0)},
        {"args", json::Value(std::move(args))},
    };
    events.emplace_back(std::move(event));
  }

  const json::Value trace(json::Object{
      {"displayTimeUnit", json::Value("ms")},
      {"traceEvents", json::Value(std::move(events))},
  });
  return trace.dump(1) + "\n";
}

}  // namespace bss::obs
