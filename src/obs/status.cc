#include "obs/status.h"

#include <cstdlib>

#include "obs/runreport.h"  // write_file_atomic
#include "util/env_registry.h"

namespace bss::obs {

namespace {

constexpr std::uint64_t kPpmScale = 1'000'000;
constexpr const char* kOmitEmpty = "is present but empty (omit it instead)";

}  // namespace

std::string Status::to_json() const {
  json::Object root;
  root.emplace("schema", json::Value(std::string(kStatusSchema)));
  root.emplace("producer", json::Value(producer));
  if (!system.empty()) root.emplace("system", json::Value(system));
  root.emplace("seq", json::Value(seq));
  root.emplace("state", json::Value(state));

  json::Object progress;
  progress.emplace("schedules", json::Value(schedules));
  progress.emplace("violations", json::Value(violations));
  progress.emplace("frontier", json::Value(frontier));
  progress.emplace("fingerprint_prunes", json::Value(fingerprint_prunes));
  progress.emplace("fingerprint_hit_rate_ppm",
                   json::Value(fingerprint_hit_rate_ppm));
  progress.emplace("checkpoints", json::Value(checkpoints));
  progress.emplace("max_schedules", json::Value(max_schedules));
  progress.emplace("passes", json::Value(passes));
  progress.emplace("jobs", json::Value(jobs));
  root.emplace("progress", json::Value(std::move(progress)));

  if (!workers.empty()) {
    json::Array rows;
    rows.reserve(workers.size());
    for (const WorkerStatus& worker : workers) {
      json::Object row;
      row.emplace("worker", json::Value(worker.worker));
      row.emplace("state", json::Value(worker.state));
      row.emplace("steals", json::Value(worker.steals));
      row.emplace("schedules", json::Value(worker.schedules));
      rows.emplace_back(std::move(row));
    }
    root.emplace("workers", json::Value(std::move(rows)));
  }
  if (!profile.empty()) root.emplace("profile", json::Value(profile));
  if (!timing.empty()) root.emplace("timing", json::Value(timing));
  return json::Value(std::move(root)).dump(1) + "\n";
}

Status Status::read(const json::Value& document,
                    std::vector<std::string>& errors) {
  json::Reader root = json::read_schema(document, kStatusSchema, errors);
  Status status;
  status.producer = root.string("producer");
  status.system = root.string("system", json::kOptional);
  // An empty system string would be indistinguishable from an omitted one
  // after a typed round trip, so it is rejected rather than canonicalized.
  if (root.has("system") && status.system.empty()) {
    root.fail("system", kOmitEmpty);
  }
  status.seq = root.counter("seq");
  status.state = root.one_of("state", {"running", "complete"});

  // Integer-only: doubles would break the typed round trip's byte fixed
  // point.
  json::Reader progress = root.object("progress");
  status.schedules = progress.counter("schedules");
  status.violations = progress.counter("violations");
  status.frontier = progress.counter("frontier");
  status.fingerprint_prunes = progress.counter("fingerprint_prunes");
  status.fingerprint_hit_rate_ppm =
      progress.counter("fingerprint_hit_rate_ppm");
  if (status.fingerprint_hit_rate_ppm > kPpmScale) {
    progress.fail("fingerprint_hit_rate_ppm", "exceeds one million");
  }
  status.checkpoints = progress.counter("checkpoints");
  status.max_schedules = progress.counter("max_schedules");
  status.passes = progress.counter("passes");
  status.jobs = progress.counter("jobs");
  progress.finish();

  if (const json::Array* rows = root.array("workers", json::kOptional)) {
    if (rows->empty()) root.fail("workers", kOmitEmpty);
    for (std::size_t i = 0; i < rows->size(); ++i) {
      json::Reader row = root.item("workers", i, (*rows)[i]);
      WorkerStatus& worker = status.workers.emplace_back();
      worker.worker = row.integer<int>("worker");
      if (worker.worker < 0) row.fail("worker", "is negative");
      worker.state = row.one_of("state", {"running", "stealing", "idle"});
      worker.steals = row.counter("steals");
      worker.schedules = row.counter("schedules");
      row.finish();
    }
  }

  json::Reader profile = root.object("profile", json::kOptional);
  if (profile.valid()) {
    if (profile.members().empty()) root.fail("profile", kOmitEmpty);
    status.profile = profile.members();
    read_profile(profile);
  }

  // Timing is the quarantined wall-clock channel, so extra entries are free
  // form (the runreport policy) — but the fields bss_top renders must not
  // lie: ages and rates that parse as negative or non-finite are producer
  // bugs, not noise.
  json::Reader timing = root.object("timing", json::kOptional);
  if (timing.valid()) {
    if (timing.members().empty()) root.fail("timing", kOmitEmpty);
    status.timing = timing.members();
    (void)timing.counter("elapsed_ms", json::kOptional);
    (void)timing.counter("checkpoint_age_ms", json::kOptional);
    (void)timing.rate("schedules_per_second", json::kOptional);
    (void)timing.rate("window_schedules_per_second", json::kOptional);
    (void)timing.rate("eta_seconds", json::kOptional);
  }
  root.finish();
  return status;
}

std::optional<Status> Status::from_artifact(std::string_view text,
                                            std::string* error) {
  std::vector<std::string> errors;
  std::optional<Status> status;
  if (const auto document = json::parse_document(text, errors)) {
    status = read(*document, errors);
  }
  if (errors.empty()) return status;
  if (error != nullptr) *error = "status: " + errors.front();
  return std::nullopt;
}

std::vector<std::string> validate_status(std::string_view text) {
  std::vector<std::string> errors;
  if (const auto document = json::parse_document(text, errors)) {
    (void)Status::read(*document, errors);
  }
  return errors;
}

StatusWriter::StatusWriter(std::string path, std::uint64_t every_ms)
    : path_(std::move(path)), every_ms_(every_ms) {
  if (path_.empty()) {
    if (const char* env = std::getenv("BSS_STATUS"); env != nullptr) {
      path_ = env;
    }
  }
  if (every_ms_ == 0) {
    every_ms_ = env::positive_env("BSS_STATUS_EVERY_MS",
                                  std::getenv("BSS_STATUS_EVERY_MS"))
                    .value_or(1000);
  }
  if (enabled()) {
    begin_ns_ = PhaseProfiler::now_ns();
    last_write_ns_ = begin_ns_;
  }
}

bool StatusWriter::due() const {
  if (!enabled()) return false;
  // Compared in whole milliseconds: every_ms_ * 1'000'000 would overflow
  // for cadences past ~584 years.
  return (PhaseProfiler::now_ns() - last_write_ns_) / 1'000'000 >= every_ms_;
}

bool StatusWriter::write(Status status) {
  if (!enabled()) return false;
  ScopedPhase scope(profiler_, Phase::kStatusWrite);
  const std::uint64_t now = PhaseProfiler::now_ns();
  status.seq = seq_++;

  json::Object timing;
  const std::uint64_t elapsed_ns = now - begin_ns_;
  timing.emplace("elapsed_ms", json::Value(elapsed_ns / 1'000'000));
  double rate = 0.0;
  if (elapsed_ns > 0) {
    rate = static_cast<double>(status.schedules) * 1e9 /
           static_cast<double>(elapsed_ns);
    timing.emplace("schedules_per_second", json::Value(rate));
  }
  if (const std::uint64_t window_ns = now - last_write_ns_;
      window_ns > 0 && status.schedules >= last_schedules_) {
    timing.emplace(
        "window_schedules_per_second",
        json::Value(static_cast<double>(status.schedules - last_schedules_) *
                    1e9 / static_cast<double>(window_ns)));
  }
  // ETA only while running: a completed campaign that exhausted its space
  // under the valve would otherwise advertise time-to-a-cap it never hit.
  if (status.state == "running" && status.max_schedules > 0 &&
      status.schedules > 0 && status.schedules < status.max_schedules &&
      rate > 0.0) {
    timing.emplace(
        "eta_seconds",
        json::Value(
            static_cast<double>(status.max_schedules - status.schedules) /
            rate));
  }
  if (const std::uint64_t checkpoint_ns =
          checkpoint_ns_.load(std::memory_order_relaxed);
      checkpoint_ns != 0 && now >= checkpoint_ns) {
    timing.emplace("checkpoint_age_ms",
                   json::Value((now - checkpoint_ns) / 1'000'000));
  }
  status.timing = std::move(timing);
  if (profiler_ != nullptr && profiler_->has_data()) {
    status.profile = profiler_->to_json();
  }
  last_write_ns_ = now;
  last_schedules_ = status.schedules;
  return write_file_atomic(path_, status.to_json());
}

}  // namespace bss::obs
