// Worker timelines for parallel exploration, exported in the Chrome
// trace-event format (loadable in Perfetto or chrome://tracing): one track
// per worker plus a coordinator track carrying the merge spans, so worker
// imbalance and merge stalls are visible at a glance.
//
// Spans live entirely in the TIMING channel — wall-clock begin/end measured
// on the recording thread — and never feed back into exploration, so the
// timeline can disagree across runs while results stay byte-identical.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace bss::obs {

struct Span {
  std::string name;
  /// Track id: the worker index, or kCoordinatorTrack for the merge spans
  /// that run on the explore() thread.
  int track = 0;
  std::uint64_t begin_ns = 0;  ///< Timeline::now_ns() at span start
  std::uint64_t end_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

class Timeline {
 public:
  /// Track for the single-threaded engine work (the merge).  Large so it
  /// sorts after any plausible worker count.
  static constexpr int kCoordinatorTrack = 1000;

  Timeline();

  /// Monotonic nanoseconds since timeline creation, for Span stamps.
  std::uint64_t now_ns() const;

  /// Thread-safe append of a completed span.
  void record(Span span);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON: complete ("ph":"X") events in microseconds,
  /// plus thread_name metadata naming each track ("worker N", and "merge"
  /// for the coordinator).
  std::string to_chrome_trace() const;

 private:
  std::uint64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace bss::obs
