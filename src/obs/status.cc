#include "obs/status.h"

#include <cstdlib>

#include "obs/runreport.h"  // write_file_atomic
#include "util/env_registry.h"

namespace bss::obs {

namespace {

constexpr std::uint64_t kPpmScale = 1'000'000;

constexpr std::string_view kStates[] = {"running", "complete"};
constexpr std::string_view kWorkerStates[] = {"running", "stealing", "idle"};

bool name_in(std::string_view name, const std::string_view* table,
             std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    if (table[i] == name) return true;
  }
  return false;
}

/// A non-negative integer (the only number type the deterministic channel
/// admits — doubles would break the byte fixed point).
bool counter_ok(const json::Value& value) {
  return value.is_int() && value.as_int() >= 0;
}

void check_progress(const json::Object& progress,
                    std::vector<std::string>& errors) {
  static constexpr std::string_view kCounters[] = {
      "schedules",         "violations", "frontier",
      "fingerprint_prunes", "fingerprint_hit_rate_ppm",
      "checkpoints",       "max_schedules", "passes", "jobs",
  };
  for (const std::string_view name : kCounters) {
    const auto it = progress.find(std::string(name));
    if (it == progress.end()) {
      errors.push_back("progress missing counter \"" + std::string(name) +
                       "\"");
      continue;
    }
    if (!counter_ok(it->second)) {
      errors.push_back("progress counter \"" + std::string(name) +
                       "\" is not a non-negative integer");
    }
  }
  for (const auto& [name, value] : progress) {
    (void)value;
    if (!name_in(name, kCounters,
                 sizeof(kCounters) / sizeof(kCounters[0]))) {
      errors.push_back("unknown progress counter \"" + name +
                       "\" (schema drift? bump the version)");
    }
  }
  if (const auto it = progress.find("fingerprint_hit_rate_ppm");
      it != progress.end() && counter_ok(it->second) &&
      static_cast<std::uint64_t>(it->second.as_int()) > kPpmScale) {
    errors.emplace_back(
        "progress \"fingerprint_hit_rate_ppm\" exceeds one million");
  }
}

void check_workers(const json::Array& workers,
                   std::vector<std::string>& errors) {
  if (workers.empty()) {
    errors.emplace_back("\"workers\" is present but empty (omit it instead)");
  }
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const std::string row = "workers[" + std::to_string(i) + "]";
    if (!workers[i].is_object()) {
      errors.push_back(row + " is not an object");
      continue;
    }
    const json::Object& worker = workers[i].as_object();
    for (const std::string_view field : {"worker", "steals", "schedules"}) {
      const auto it = worker.find(std::string(field));
      if (it == worker.end() || !counter_ok(it->second)) {
        errors.push_back(row + " field \"" + std::string(field) +
                         "\" is missing or not a non-negative integer");
      }
    }
    const auto state = worker.find("state");
    if (state == worker.end() || !state->second.is_string() ||
        !name_in(state->second.as_string(), kWorkerStates,
                 sizeof(kWorkerStates) / sizeof(kWorkerStates[0]))) {
      errors.push_back(row +
                       " \"state\" is not running / stealing / idle");
    }
    for (const auto& [name, value] : worker) {
      (void)value;
      if (name != "worker" && name != "state" && name != "steals" &&
          name != "schedules") {
        errors.push_back(row + " has unknown field \"" + name + "\"");
      }
    }
  }
}

void check_profile(const json::Object& profile,
                   std::vector<std::string>& errors) {
  if (profile.empty()) {
    errors.emplace_back("\"profile\" is present but empty (omit it instead)");
  }
  check_profile_cells(profile, errors);
}

void check_timing(const json::Object& timing,
                  std::vector<std::string>& errors) {
  // Timing is the quarantined wall-clock channel, so extra entries are free
  // form (the runreport policy) — but the fields bss_top renders must not
  // lie: ages and rates that parse as negative or non-finite are producer
  // bugs, not noise.
  if (timing.empty()) {
    errors.emplace_back("\"timing\" is present but empty (omit it instead)");
  }
  for (const std::string_view age : {"elapsed_ms", "checkpoint_age_ms"}) {
    if (const auto it = timing.find(std::string(age)); it != timing.end()) {
      if (!counter_ok(it->second)) {
        errors.push_back("timing \"" + std::string(age) +
                         "\" is not a non-negative integer");
      }
    }
  }
  for (const std::string_view rate :
       {"schedules_per_second", "window_schedules_per_second",
        "eta_seconds"}) {
    const auto it = timing.find(std::string(rate));
    if (it == timing.end()) continue;
    if (!it->second.is_number()) {
      errors.push_back("timing \"" + std::string(rate) + "\" is not a number");
      continue;
    }
    const double parsed = it->second.as_double();
    if (!(parsed >= 0.0) || parsed > 1e308) {
      errors.push_back("timing \"" + std::string(rate) +
                       "\" is negative or not finite");
    }
  }
}

std::vector<std::string> validate_parsed(const json::Value& value) {
  std::vector<std::string> errors;
  if (!value.is_object()) {
    errors.emplace_back("document is not a JSON object");
    return errors;
  }
  const json::Object& root = value.as_object();

  const json::Value* schema = value.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    errors.emplace_back("missing schema version key \"schema\"");
  } else if (schema->as_string() != kStatusSchema) {
    errors.push_back("unknown schema version '" + schema->as_string() + "'");
  }

  struct KnownKey {
    std::string_view name;
    json::Kind kind;
    bool required;
  };
  static constexpr KnownKey kKnown[] = {
      {"schema", json::Kind::kString, true},
      {"producer", json::Kind::kString, true},
      {"system", json::Kind::kString, false},
      {"seq", json::Kind::kInt, true},
      {"state", json::Kind::kString, true},
      {"progress", json::Kind::kObject, true},
      {"workers", json::Kind::kArray, false},
      {"profile", json::Kind::kObject, false},
      {"timing", json::Kind::kObject, false},
  };
  for (const KnownKey& known : kKnown) {
    const auto it = root.find(std::string(known.name));
    if (it == root.end()) {
      if (known.required) {
        errors.push_back("missing required key \"" + std::string(known.name) +
                         "\"");
      }
      continue;
    }
    if (it->second.kind() != known.kind) {
      errors.push_back("key \"" + std::string(known.name) +
                       "\" has the wrong type");
    }
  }
  for (const auto& [key, member] : root) {
    (void)member;
    bool known = false;
    for (const KnownKey& candidate : kKnown) {
      known |= candidate.name == key;
    }
    if (!known) {
      errors.push_back("unknown top-level key \"" + key +
                       "\" (schema drift? bump the version)");
    }
  }

  if (const json::Value* seq = value.find("seq");
      seq != nullptr && seq->is_int() && seq->as_int() < 0) {
    errors.emplace_back("\"seq\" is negative");
  }
  if (const json::Value* state = value.find("state");
      state != nullptr && state->is_string() &&
      !name_in(state->as_string(), kStates, 2)) {
    errors.emplace_back("\"state\" is not \"running\" or \"complete\"");
  }
  // An empty system string would be indistinguishable from an omitted one
  // after a typed round trip, so it is rejected rather than canonicalized.
  if (const json::Value* system = value.find("system");
      system != nullptr && system->is_string() &&
      system->as_string().empty()) {
    errors.emplace_back("\"system\" is present but empty (omit it instead)");
  }

  if (const json::Value* progress = value.find("progress");
      progress != nullptr && progress->is_object()) {
    check_progress(progress->as_object(), errors);
  }
  if (const json::Value* workers = value.find("workers");
      workers != nullptr && workers->is_array()) {
    check_workers(workers->as_array(), errors);
  }
  if (const json::Value* profile = value.find("profile");
      profile != nullptr && profile->is_object()) {
    check_profile(profile->as_object(), errors);
  }
  if (const json::Value* timing = value.find("timing");
      timing != nullptr && timing->is_object()) {
    check_timing(timing->as_object(), errors);
  }
  return errors;
}

std::uint64_t uint_member(const json::Object& object, const char* key) {
  return static_cast<std::uint64_t>(object.at(key).as_int());
}

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

std::optional<Status> Status::from_artifact(std::string_view text,
                                            std::string* error) {
  std::string parse_error;
  auto value = json::Value::parse(text, &parse_error);
  if (!value.has_value()) {
    if (error != nullptr) *error = "status: parse error: " + parse_error;
    return std::nullopt;
  }
  const auto errors = validate_parsed(*value);
  if (!errors.empty()) {
    if (error != nullptr) *error = "status: " + errors.front();
    return std::nullopt;
  }

  const json::Object& root = value->as_object();
  Status status;
  status.producer = root.at("producer").as_string();
  if (const auto it = root.find("system"); it != root.end()) {
    status.system = it->second.as_string();
  }
  status.seq = static_cast<std::uint64_t>(root.at("seq").as_int());
  status.state = root.at("state").as_string();

  const json::Object& progress = root.at("progress").as_object();
  status.schedules = uint_member(progress, "schedules");
  status.violations = uint_member(progress, "violations");
  status.frontier = uint_member(progress, "frontier");
  status.fingerprint_prunes = uint_member(progress, "fingerprint_prunes");
  status.fingerprint_hit_rate_ppm =
      uint_member(progress, "fingerprint_hit_rate_ppm");
  status.checkpoints = uint_member(progress, "checkpoints");
  status.max_schedules = uint_member(progress, "max_schedules");
  status.passes = uint_member(progress, "passes");
  status.jobs = uint_member(progress, "jobs");

  if (const auto it = root.find("workers"); it != root.end()) {
    for (const json::Value& entry : it->second.as_array()) {
      const json::Object& row = entry.as_object();
      WorkerStatus worker;
      worker.worker = static_cast<int>(row.at("worker").as_int());
      worker.state = row.at("state").as_string();
      worker.steals = uint_member(row, "steals");
      worker.schedules = uint_member(row, "schedules");
      status.workers.push_back(std::move(worker));
    }
  }
  if (const auto it = root.find("profile"); it != root.end()) {
    status.profile = it->second.as_object();
  }
  if (const auto it = root.find("timing"); it != root.end()) {
    status.timing = it->second.as_object();
  }
  return status;
}

std::vector<std::string> validate_status(std::string_view text) {
  std::string parse_error;
  const auto value = json::Value::parse(text, &parse_error);
  if (!value.has_value()) {
    return {"parse error: " + parse_error};
  }
  return validate_parsed(*value);
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
