// `bss-status v1` — the live heartbeat artifact (DESIGN.md §12).  A
// campaign (explore(), a bench_* campaign loop, the leader_worker_pool
// soak) periodically snapshots its progress into one small JSON file via
// atomic tmp+rename, so `tools/bss_top` (or any `watch cat`) can follow a
// run that is otherwise a black box between checkpoints.
//
// Top-level document shape:
//
//   {
//     "schema": "bss-status v1",         // required, exact string
//     "producer": "explore()" | …,       // required
//     "system": "one_shot[…]",           // optional explored-system name
//     "seq": N,                          // required, write sequence number
//     "state": "running" | "complete",   // required
//     "progress": {                      // required; ALL keys required
//       "schedules": N, "violations": N, "frontier": N,
//       "fingerprint_prunes": N, "fingerprint_hit_rate_ppm": N,  // <= 1e6
//       "checkpoints": N, "max_schedules": N, "passes": N, "jobs": N
//     },
//     "workers": [                       // optional, non-empty when present
//       {"worker": N, "state": "running"|"stealing"|"idle",
//        "steals": N, "schedules": N}, …
//     ],
//     "profile": { "<phase>": {"calls": N, "ns": N}, … },  // optional
//     "timing": { "elapsed_ms": N, "schedules_per_second": R,
//                 "window_schedules_per_second": R, "eta_seconds": R,
//                 "checkpoint_age_ms": N }                  // optional
//   }
//
// Everything outside "timing" and "profile" derives from deterministic
// counters; those two sections are the quarantined wall-clock channel,
// exactly the runreport split.  `progress` is integer-only (the hit rate is
// parts-per-million, not a double) so the typed round trip is a byte fixed
// point.  Consumers reject unknown schema versions and unknown keys — the
// `bss-counterexample v2` / runreport policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/profile.h"

namespace bss::obs {

inline constexpr std::string_view kStatusSchema = "bss-status v1";

/// One row of the `workers` section.
struct WorkerStatus {
  int worker = 0;
  std::string state = "idle";  ///< "running" | "stealing" | "idle"
  std::uint64_t steals = 0;
  std::uint64_t schedules = 0;
};

/// A typed heartbeat snapshot.  to_json()/from_artifact() are exact
/// inverses on valid documents: from_artifact succeeds iff validate_status
/// reports no findings, and to_json of the parsed value reproduces the
/// canonical bytes.
struct Status {
  std::string producer;
  std::string system;  ///< omitted from the document when empty
  std::uint64_t seq = 0;
  std::string state = "running";  ///< "running" | "complete"

  // progress — deterministic counters, byte-identical with status on/off.
  std::uint64_t schedules = 0;
  std::uint64_t violations = 0;
  std::uint64_t frontier = 0;
  std::uint64_t fingerprint_prunes = 0;
  std::uint64_t fingerprint_hit_rate_ppm = 0;  ///< prunes per million probes
  std::uint64_t checkpoints = 0;
  std::uint64_t max_schedules = 0;  ///< 0 == unbounded (no ETA)
  std::uint64_t passes = 0;
  std::uint64_t jobs = 0;

  std::vector<WorkerStatus> workers;  ///< omitted when empty
  json::Object profile;               ///< omitted when empty
  json::Object timing;                ///< omitted when empty

  /// Pretty-printed document with a trailing newline (file-ready).
  std::string to_json() const;

  /// The one walk over a parsed document: records every error in
  /// `errors` (a wrong schema version, unknown or missing keys, wrong
  /// types, out-of-range counters such as negative values, a hit rate above
  /// one million or a negative checkpoint age or rate).  The result means
  /// something only when no error was recorded.
  static Status read(const json::Value& document,
                     std::vector<std::string>& errors);

  /// Parse + read; nullopt (with the first error in `error`) unless the
  /// walk recorded none.
  static std::optional<Status> from_artifact(std::string_view text,
                                             std::string* error = nullptr);
};

/// The walk's error list for the CI gate (tools/report_check): empty ==
/// valid, the same verdict as from_artifact.
std::vector<std::string> validate_status(std::string_view text);

/// The heartbeat driver: owns the path, the cadence, and the wall-clock
/// bookkeeping (rates, ETA, checkpoint age) so callers only supply the
/// deterministic counters.  An empty path resolves through BSS_STATUS and
/// a zero cadence through BSS_STATUS_EVERY_MS (default 1000 ms); when the
/// path stays empty the writer is disabled and every method is a no-op.
///
/// Threading: write()/due() belong to one driver thread at a time;
/// note_checkpoint() may race them from worker threads (it only stamps an
/// atomic).  All clock reads go through PhaseProfiler::now_ns(), the
/// quarantined monotonic source.
class StatusWriter {
 public:
  StatusWriter() : StatusWriter(std::string(), 0) {}
  StatusWriter(std::string path, std::uint64_t every_ms);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  std::uint64_t every_ms() const { return every_ms_; }

  /// True when at least every_ms of wall time has passed since the last
  /// write (always false when disabled).
  bool due() const;

  /// Stamp "a checkpoint just landed" for the checkpoint_age_ms field.
  void note_checkpoint() {
    checkpoint_ns_.store(PhaseProfiler::now_ns(), std::memory_order_relaxed);
  }

  /// Attach the profiler whose table write() mirrors into the document
  /// (write() also records its own cost under the status_write phase).
  void set_profiler(PhaseProfiler* profiler) { profiler_ = profiler; }

  /// Fill the wall-clock channel (seq, timing, profile mirror) of
  /// `status` and publish it atomically.  Best-effort: returns false on
  /// I/O failure, true otherwise; no-op false when disabled.
  bool write(Status status);

 private:
  std::string path_;
  std::uint64_t every_ms_ = 1000;
  std::uint64_t seq_ = 0;
  PhaseProfiler* profiler_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t last_write_ns_ = 0;
  std::uint64_t last_schedules_ = 0;
  std::atomic<std::uint64_t> checkpoint_ns_{0};
};

}  // namespace bss::obs
