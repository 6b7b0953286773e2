// Outside-in tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each layer's public functions: explore(), minimize, the
// counterexample codec, replay and the checkpoint codec (src/explore); the
// ExplorableSystem / SystemInstance calls explore() makes, through a passive
// decorator (src/core, src/service, the skewed family); and SimEnv's
// incremental API (src/runtime), driven directly on seeded schedules of the
// workload's own systems.  Nothing inside src/ is instrumented.
//
// Spans stay in memory (one buffer per recording thread, so explorer workers
// never contend) and are written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kPass,             ///< one traced pass (a trace id's root)
  kExplore,          ///< explore()
  kMake,             ///< ExplorableSystem::make
  kPopulate,         ///< SystemInstance::populate
  kCheck,            ///< SystemInstance::check
  kFingerprint,      ///< SystemInstance::fingerprint
  kMinimize,         ///< minimize_counterexample
  kCexCodec,         ///< Counterexample to_artifact + from_artifact
  kReplay,           ///< replay_counterexample
  kCheckpointCodec,  ///< Checkpoint from_artifact + to_artifact
  kProbe,            ///< the runtime probe (root of the runtime.* spans)
  kStart,            ///< SimEnv::start
  kStep,             ///< SimEnv::step_process
  kFinish,           ///< SimEnv::finish
  kTeardown,         ///< SimEnv::~SimEnv
};

const char* span_name(SpanName name);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t trace = 0;   ///< one id per pass (or probe)
  SpanName name = SpanName::kPass;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

std::int64_t now_ns();

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  /// Appends to the calling thread's buffer.
  void record(const Span& span);
  /// Every span recorded so far, ordered by start time.
  std::vector<Span> collect() const;

 private:
  std::vector<Span>& local();

  std::uint64_t generation_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Times its scope as one span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name, std::uint64_t parent,
             std::uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Writes spans as tab-separated lines: id, parent, trace, name, start_ns,
/// end_ns (times relative to the first span's start).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// One job run through the decorator with spans around each layer call.
/// Refute jobs explore with minimize off and then call
/// minimize_counterexample themselves, so ddmin gets its own span; the
/// composed result must equal the untraced one.
struct TracedOutcome {
  JobOutcome job;
  std::uint64_t checkpoint_bytes = 0;
  bool checkpoint_round_trip_ok = true;
};

TracedOutcome run_job_traced(const Job& job, Tracer& tracer,
                             std::uint64_t parent, std::uint64_t trace);

/// How the traced outcome departs from the untraced reference: the result
/// summary and every violation artifact must be byte-identical.
std::vector<std::string> passivity_diff(const JobOutcome& reference,
                                        const JobOutcome& traced);

/// Mean cost of SimEnv's incremental API on seeded schedules.
struct RuntimeCosts {
  double start_us = 0;
  double step_us = 0;
  double finish_us = 0;
  double teardown_us = 0;
};

/// Drives `schedules` seeded random fault-free schedules of the workload's
/// systems (those with random_schedules_safe) through SimEnv::start /
/// step_process / finish / ~SimEnv, one span per call.
RuntimeCosts probe_runtime(const Workload& workload, std::uint64_t seed,
                           int schedules, Tracer& tracer);

/// The p-quantile of `values` (linear interpolation), 0 when empty.
double percentile(std::vector<double> values, double p);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the traced run measured, for derive_layer_metrics.
struct TracedRun {
  const Workload* workload = nullptr;
  std::vector<Span> spans;
  /// Traced passes: one outcome per job per pass.
  std::vector<std::vector<TracedOutcome>> traced_passes;
  std::vector<double> traced_walls_s;
  /// Untraced passes of the same run: wall, user and sys CPU seconds.
  std::vector<double> untraced_walls_s;
  double untraced_user_s = 0;
  double untraced_sys_s = 0;
  RuntimeCosts runtime;
};

/// Every per-layer metric, in the order BENCHMARK.json lists them.
std::vector<Metric> derive_layer_metrics(const TracedRun& run);

}  // namespace perfbench
