#include "obs/metrics.h"

#include <algorithm>

#include "util/checked.h"

namespace bss::obs {

HistogramData::HistogramData(std::vector<std::uint64_t> upper_bounds)
    : bounds(std::move(upper_bounds)), counts(bounds.size() + 1, 0) {
  expects(std::is_sorted(bounds.begin(), bounds.end()) &&
              std::adjacent_find(bounds.begin(), bounds.end()) == bounds.end(),
          "histogram bounds must be strictly ascending");
}

void HistogramData::observe(std::uint64_t value) {
  // First bucket whose inclusive upper bound admits the value; past the
  // last bound, the overflow bucket.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  counts[static_cast<std::size_t>(it - bounds.begin())] += 1;
  count += 1;
  sum += value;
}

void HistogramData::merge_from(const HistogramData& other) {
  expects(bounds == other.bounds,
          "histogram merge requires identical bounds");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
}

json::Value HistogramData::to_json() const {
  json::Array bounds_json;
  for (const std::uint64_t b : bounds) bounds_json.emplace_back(b);
  json::Array counts_json;
  for (const std::uint64_t c : counts) counts_json.emplace_back(c);
  return json::Object{
      {"bounds", json::Value(std::move(bounds_json))},
      {"counts", json::Value(std::move(counts_json))},
      {"count", json::Value(count)},
      {"sum", json::Value(sum)},
  };
}

std::vector<std::uint64_t> pow2_bounds(int buckets) {
  expects(buckets >= 1 && buckets <= 63, "pow2_bounds: 1..63 buckets");
  std::vector<std::uint64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(buckets));
  for (int i = 0; i < buckets; ++i) {
    bounds.push_back(std::uint64_t{1} << static_cast<unsigned>(i));
  }
  return bounds;
}

std::uint64_t& MetricShard::counter(const std::string& name) {
  return counters_[name];  // value-initialized to 0 on first use
}

void MetricShard::gauge_max(const std::string& name, std::uint64_t value) {
  auto& cell = gauges_[name];
  cell = std::max(cell, value);
}

HistogramData& MetricShard::histogram(
    const std::string& name, const std::vector<std::uint64_t>& bounds) {
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return histograms_.emplace(name, HistogramData(bounds)).first->second;
  }
  expects(it->second.bounds == bounds, [&] {
    return "histogram re-registered with different bounds: " + name;
  });
  return it->second;
}

MetricShard& MetricsRegistry::shard(int id) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = shards_[id];
  if (slot == nullptr) slot = std::make_unique<MetricShard>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot merged;
  for (const auto& [id, shard] : shards_) {
    for (const auto& [name, value] : shard->counters_) {
      merged.counters[name] += value;
    }
    for (const auto& [name, value] : shard->gauges_) {
      auto& cell = merged.gauges[name];
      cell = std::max(cell, value);
    }
    for (const auto& [name, histogram] : shard->histograms_) {
      const auto it = merged.histograms.find(name);
      if (it == merged.histograms.end()) {
        merged.histograms.emplace(name, histogram);
      } else {
        it->second.merge_from(histogram);
      }
    }
  }
  return merged;
}

json::Value MetricsSnapshot::to_json() const {
  json::Object counters_json;
  for (const auto& [name, value] : counters) {
    counters_json.emplace(name, json::Value(value));
  }
  json::Object gauges_json;
  for (const auto& [name, value] : gauges) {
    gauges_json.emplace(name, json::Value(value));
  }
  json::Object histograms_json;
  for (const auto& [name, histogram] : histograms) {
    histograms_json.emplace(name, histogram.to_json());
  }
  return json::Object{
      {"counters", json::Value(std::move(counters_json))},
      {"gauges", json::Value(std::move(gauges_json))},
      {"histograms", json::Value(std::move(histograms_json))},
  };
}

}  // namespace bss::obs
