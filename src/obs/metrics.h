// Low-overhead metrics for the exploration stack: counters, max-gauges and
// bounded histograms, kept in per-worker *shards* so the hot path never
// takes a lock or touches an atomic.  A shard is single-writer (one worker
// thread at a time); the registry hands shards out under a mutex and merges
// them into one deterministic snapshot after the run quiesces.
//
// Determinism contract: the merged snapshot is a pure fold over shard
// contents with commutative, associative operations (counters/histograms
// add, gauges max) and name-sorted output, so it never depends on thread
// completion order.  What the *values* mean is a different contract:
// metrics measure work actually performed — including speculative subtree
// work the deterministic merge later discards — so, unlike ExploreStats,
// they are NOT invariant across worker counts.  That is the point: the gap
// between metrics and merged stats is exactly the wasted speculation a
// telemetry consumer wants to see.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace bss::obs {

/// The metric shard of the explore() thread itself; workers use their
/// worker index, 0 and up.
inline constexpr int kCoordinatorShard = -1;

/// A bounded histogram: `bounds` are ascending inclusive upper bounds, and
/// counts has bounds.size() + 1 buckets — the last one catches everything
/// above the largest bound, so the memory footprint is fixed no matter the
/// observed range.
struct HistogramData {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  explicit HistogramData(std::vector<std::uint64_t> upper_bounds = {});
  void observe(std::uint64_t value);
  /// Adds `other` bucket-wise; InvariantError when the bounds differ.
  void merge_from(const HistogramData& other);
  json::Value to_json() const;
};

/// Exponential (power-of-two) bounds 1, 2, 4, …, 2^(buckets-1) — the
/// default shape for step counts and tape lengths.
std::vector<std::uint64_t> pow2_bounds(int buckets);

/// One worker's private metric shard.  Methods are NOT synchronized: a
/// shard must only ever be written by the thread that owns it (worker
/// shards by their worker, the coordinator shard by the explore() thread).
class MetricShard {
 public:
  /// Named counter cell; the reference stays valid for the shard's
  /// lifetime, so hot loops can hoist the lookup.
  std::uint64_t& counter(const std::string& name);
  /// Named max-gauge: merged with max, not sum.
  void gauge_max(const std::string& name, std::uint64_t value);
  /// Named histogram; creates it with `bounds` on first use and verifies
  /// the same bounds on every later one.
  HistogramData& histogram(const std::string& name,
                           const std::vector<std::uint64_t>& bounds);

 private:
  friend class MetricsRegistry;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::uint64_t> gauges_;
  std::map<std::string, HistogramData> histograms_;
};

/// Deterministically merged view of every shard.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  json::Value to_json() const;
};

class MetricsRegistry {
 public:
  /// Shard for `id` (workers use their worker index; kCoordinatorShard
  /// for the coordinator), created on first use.  Thread-safe; the
  /// returned reference is stable.
  MetricShard& shard(int id);

  /// Folds every shard into one snapshot (counters/histograms add, gauges
  /// max, names sorted).  Call after the instrumented run quiesces — the
  /// registry does not synchronize with shard writers.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<int, std::unique_ptr<MetricShard>> shards_;
};

}  // namespace bss::obs
