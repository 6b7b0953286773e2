#include "obs/runreport.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "obs/profile.h"

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

void ReportBuilder::profile(json::Object table) {
  root_["profile"] = json::Value(std::move(table));
}

void ReportBuilder::timing(const std::string& key, json::Value value) {
  member_object(root_, "timing")[key] = std::move(value);
}

json::Value ReportBuilder::build() const { return json::Value(root_); }

std::string ReportBuilder::to_json() const { return build().dump(1) + "\n"; }

RunReport RunReport::read(json::Value document,
                          std::vector<std::string>& errors) {
  json::Reader root = json::read_schema(document, kRunReportSchema, errors);
  (void)root.string("kind");
  (void)root.string("producer");
  (void)root.string("system", json::kOptional);
  // Free-form sections: only their type is fixed.  "events" is written by
  // builds that still kept an event log; accepted so older v1 artifacts
  // stay valid.
  for (const char* section :
       {"environment", "options", "coverage", "metrics", "events"}) {
    (void)root.object(section, json::kOptional);
  }
  (void)root.array("violations", json::kOptional);
  (void)root.array("rows", json::kOptional);

  // The "service." stat family is a closed namespace (the lease service's
  // LeaseStats counters): an unrecognized name there is a typo or schema
  // drift, not a new ad-hoc counter.  And a report that mentions the
  // family at all must carry its load-bearing trio — acquisitions,
  // retries, step-downs — since a soak that reports renewals but hides
  // how often the service gave ground is not auditable.
  json::Reader stats = root.object("stats", json::kOptional);
  static constexpr std::string_view kServiceStats[] = {
      "service.leases_acquired", "service.takeovers",
      "service.renewals",        "service.renew_failures",
      "service.retries",         "service.step_downs",
      "service.expirations",     "service.give_ups",
      "service.actions",
  };
  bool any_service = false;
  for (const auto& [name, stat] : stats.members()) {
    (void)stats.integer<std::int64_t>(name);
    if (!name.starts_with("service.")) continue;
    any_service = true;
    if (std::find(std::begin(kServiceStats), std::end(kServiceStats), name) ==
        std::end(kServiceStats)) {
      stats.fail("unknown service stat \"" + name +
                 "\" (not a LeaseStats counter)");
    }
  }
  if (any_service) {
    for (const char* required : {"service.leases_acquired", "service.retries",
                                 "service.step_downs"}) {
      if (!stats.has(required)) {
        stats.fail("service stats present but missing \"" +
                   std::string(required) + "\"");
      }
    }
  }

  read_profile(root.object("profile", json::kOptional));
  // Timing is the quarantined non-canonical channel, so entries are free
  // form — but a rate that parses as negative or non-finite is a producer
  // bug, not noise, and would poison any downstream aggregation.
  (void)root.object("timing", json::kOptional)
      .rate("schedules_per_second", json::kOptional);
  root.finish();
  return RunReport{std::move(document)};
}

std::optional<RunReport> RunReport::parse(std::string_view text,
                                          std::string* error) {
  std::vector<std::string> errors;
  std::optional<RunReport> report;
  if (auto document = json::parse_document(text, errors)) {
    report = read(std::move(*document), errors);
  }
  if (errors.empty()) return report;
  if (error != nullptr) *error = "runreport: " + errors.front();
  return std::nullopt;
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
  if (auto document = json::parse_document(text, errors)) {
    (void)RunReport::read(std::move(*document), errors);
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

bool write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  if (!write_file(tmp, text)) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace bss::obs
