#include "obs/runreport.h"

#include <cstdio>

#include "obs/profile.h"
#include "util/checked.h"

namespace bss::obs {

namespace {

json::Object& member_object(json::Object& root, const std::string& key) {
  auto it = root.find(key);
  if (it == root.end()) {
    it = root.emplace(key, json::Value(json::Object{})).first;
  }
  return it->second.as_object();
}

json::Array& member_array(json::Object& root, const std::string& key) {
  auto it = root.find(key);
  if (it == root.end()) {
    it = root.emplace(key, json::Value(json::Array{})).first;
  }
  return it->second.as_array();
}

}  // namespace

ReportBuilder::ReportBuilder(std::string kind, std::string producer) {
  root_.emplace("schema", json::Value(std::string(kRunReportSchema)));
  root_.emplace("kind", json::Value(std::move(kind)));
  root_.emplace("producer", json::Value(std::move(producer)));
}

void ReportBuilder::set_system(std::string system) {
  root_["system"] = json::Value(std::move(system));
}

void ReportBuilder::environment(const std::string& key, json::Value value) {
  member_object(root_, "environment")[key] = std::move(value);
}

void ReportBuilder::option(const std::string& key, json::Value value) {
  member_object(root_, "options")[key] = std::move(value);
}

void ReportBuilder::stat(const std::string& key, std::uint64_t value) {
  member_object(root_, "stats")[key] = json::Value(value);
}

void ReportBuilder::coverage(const std::string& key, json::Value value) {
  member_object(root_, "coverage")[key] = std::move(value);
}

void ReportBuilder::violation(json::Object summary) {
  member_array(root_, "violations").emplace_back(std::move(summary));
}

void ReportBuilder::row(json::Object row) {
  member_array(root_, "rows").emplace_back(std::move(row));
}

void ReportBuilder::metrics(const MetricsSnapshot& snapshot) {
  root_["metrics"] = snapshot.to_json();
}

void ReportBuilder::events(std::uint64_t emitted, std::uint64_t dropped) {
  root_["events"] = json::Object{
      {"emitted", json::Value(emitted)},
      {"dropped", json::Value(dropped)},
  };
}

void ReportBuilder::profile(json::Object table) {
  root_["profile"] = json::Value(std::move(table));
}

void ReportBuilder::timing(const std::string& key, json::Value value) {
  member_object(root_, "timing")[key] = std::move(value);
}

json::Value ReportBuilder::build() const { return json::Value(root_); }

std::string ReportBuilder::to_json() const { return build().dump(1) + "\n"; }

std::optional<RunReport> RunReport::parse(std::string_view text,
                                          std::string* error) {
  auto value = json::Value::parse(text, error);
  if (!value.has_value()) return std::nullopt;
  if (!value->is_object()) {
    if (error != nullptr) *error = "runreport: document is not an object";
    return std::nullopt;
  }
  const json::Value* schema = value->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    if (error != nullptr) *error = "runreport: missing schema version";
    return std::nullopt;
  }
  if (schema->as_string() != kRunReportSchema) {
    if (error != nullptr) {
      *error = "runreport: unknown schema version '" + schema->as_string() +
               "' (this build understands '" + std::string(kRunReportSchema) +
               "')";
    }
    return std::nullopt;
  }
  return RunReport{std::move(*value)};
}

namespace {
std::string string_member(const json::Value& root, const std::string& key) {
  const json::Value* member = root.find(key);
  return member != nullptr && member->is_string() ? member->as_string() : "";
}
}  // namespace

std::string RunReport::kind() const { return string_member(root, "kind"); }
std::string RunReport::producer() const {
  return string_member(root, "producer");
}
std::string RunReport::system() const { return string_member(root, "system"); }

const json::Object* RunReport::stats() const {
  const json::Value* member = root.find("stats");
  return member != nullptr && member->is_object() ? &member->as_object()
                                                  : nullptr;
}

const json::Array* RunReport::rows() const {
  const json::Value* member = root.find("rows");
  return member != nullptr && member->is_array() ? &member->as_array()
                                                 : nullptr;
}

std::uint64_t RunReport::stat(const std::string& name,
                              std::uint64_t fallback) const {
  const json::Object* stats_object = stats();
  if (stats_object == nullptr) return fallback;
  const auto it = stats_object->find(name);
  if (it == stats_object->end() || !it->second.is_int() ||
      it->second.as_int() < 0) {
    return fallback;
  }
  return static_cast<std::uint64_t>(it->second.as_int());
}

std::vector<std::string> validate_runreport(std::string_view text) {
  std::vector<std::string> errors;
  std::string parse_error;
  const auto value = json::Value::parse(text, &parse_error);
  if (!value.has_value()) {
    errors.push_back("parse error: " + parse_error);
    return errors;
  }
  if (!value->is_object()) {
    errors.emplace_back("document is not a JSON object");
    return errors;
  }
  const json::Object& root = value->as_object();

  const json::Value* schema = value->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    errors.emplace_back("missing schema version key \"schema\"");
  } else if (schema->as_string() != kRunReportSchema) {
    errors.push_back("unknown schema version '" + schema->as_string() + "'");
  }

  // key -> required kind.  Anything outside this table is schema drift.
  struct KnownKey {
    std::string_view name;
    json::Kind kind;
    bool required;
  };
  static constexpr KnownKey kKnown[] = {
      {"schema", json::Kind::kString, true},
      {"kind", json::Kind::kString, true},
      {"producer", json::Kind::kString, true},
      {"system", json::Kind::kString, false},
      {"environment", json::Kind::kObject, false},
      {"options", json::Kind::kObject, false},
      {"stats", json::Kind::kObject, false},
      {"coverage", json::Kind::kObject, false},
      {"violations", json::Kind::kArray, false},
      {"rows", json::Kind::kArray, false},
      {"metrics", json::Kind::kObject, false},
      {"events", json::Kind::kObject, false},
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
      if (candidate.name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      errors.push_back("unknown top-level key \"" + key +
                       "\" (schema drift? bump the version)");
    }
  }
  if (const json::Value* stats = value->find("stats");
      stats != nullptr && stats->is_object()) {
    // The "service." stat family is a closed namespace (the lease service's
    // LeaseStats counters): an unrecognized name there is a typo or schema
    // drift, not a new ad-hoc counter.  And a report that mentions the
    // family at all must carry its load-bearing trio — acquisitions,
    // retries, step-downs — since a soak that reports renewals but hides
    // how often the service gave ground is not auditable.
    static constexpr std::string_view kServiceStats[] = {
        "service.leases_acquired", "service.takeovers",
        "service.renewals",        "service.renew_failures",
        "service.retries",         "service.step_downs",
        "service.expirations",     "service.give_ups",
        "service.actions",
    };
    bool any_service = false;
    for (const auto& [name, stat] : stats->as_object()) {
      if (!stat.is_int()) {
        errors.push_back("stat \"" + name + "\" is not an integer");
      }
      if (name.rfind("service.", 0) != 0) continue;
      any_service = true;
      bool known = false;
      for (std::string_view candidate : kServiceStats) {
        known |= candidate == name;
      }
      if (!known) {
        errors.push_back("unknown service stat \"" + name +
                         "\" (not a LeaseStats counter)");
      }
    }
    if (any_service) {
      for (std::string_view required : {"service.leases_acquired",
                                        "service.retries",
                                        "service.step_downs"}) {
        if (stats->as_object().find(std::string(required)) ==
            stats->as_object().end()) {
          errors.push_back("service stats present but missing \"" +
                           std::string(required) + "\"");
        }
      }
    }
  }
  if (const json::Value* profile = value->find("profile");
      profile != nullptr && profile->is_object()) {
    // The profile section is keyed by the closed phase set (obs/profile.h):
    // an unknown phase name is schema drift, and each cell is exactly the
    // {calls, ns} pair the profiler emits.
    check_profile_cells(profile->as_object(), errors);
  }
  if (const json::Value* timing = value->find("timing");
      timing != nullptr && timing->is_object()) {
    // Timing is the quarantined non-canonical channel, so entries are free
    // form — but a rate that parses as negative or non-finite is a producer
    // bug, not noise, and would poison any downstream aggregation.
    if (const json::Value* rate = timing->find("schedules_per_second");
        rate != nullptr) {
      if (!rate->is_number()) {
        errors.emplace_back("timing \"schedules_per_second\" is not a number");
      } else {
        const double parsed = rate->as_double();
        if (!(parsed >= 0.0) || parsed > 1e308) {
          errors.emplace_back(
              "timing \"schedules_per_second\" is negative or not finite");
        }
      }
    }
  }
  return errors;
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool ok = written == text.size() && std::fclose(file) == 0;
  if (written != text.size()) std::fclose(file);
  return ok;
}

}  // namespace bss::obs
