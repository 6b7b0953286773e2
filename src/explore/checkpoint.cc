#include "explore/checkpoint.h"

#include <cstdio>
#include <optional>
#include <type_traits>
#include <utility>

#include "obs/json.h"

namespace bss::explore {

namespace json = bss::obs::json;

namespace {

// ------------------------------------------------------------- serialization

/// 128-bit cache keys serialize as 32 lowercase hex chars (lo then hi) —
/// fixed width keeps the artifact canonical and the parser strict.
std::string fp_key_to_hex(std::uint64_t lo, std::uint64_t hi) {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(lo),
                static_cast<unsigned long long>(hi));
  return std::string(buf);
}

/// Appends `partials` to `array` as [key, dirty] pairs.
void append_fp_partials(const std::vector<FingerprintPartial>& partials,
                        json::Array& array) {
  for (const FingerprintPartial& partial : partials) {
    json::Array pair;
    pair.emplace_back(fp_key_to_hex(partial.lo, partial.hi));
    pair.emplace_back(partial.dirty);
    array.emplace_back(std::move(pair));
  }
}

/// A counter table's rows as a JSON object, joined to `object`, which
/// holds the record's other keys.  omit_zero rows are left out while zero.
json::Value counters_to_json(const auto& rows, const auto& record,
                             json::Object object = {}) {
  for (const auto& row : rows) {
    const std::uint64_t value = record.*row.member;
    if (!row.omit_zero || value > 0) {
      object.emplace(row.name, json::Value(value));
    }
  }
  return json::Value(std::move(object));
}

json::Value audit_to_json(const AuditSummary& audit) {
  json::Object object;
  object.emplace("enabled", json::Value(audit.enabled));
  json::Array findings;
  for (const std::string& finding : audit.findings) {
    findings.emplace_back(finding);
  }
  object.emplace("findings", json::Value(std::move(findings)));
  return counters_to_json(kAuditCounters, audit, std::move(object));
}

json::Value fault_points_to_json(const std::set<FaultPoint>& points) {
  json::Array array;
  for (const auto& [action, steps] : points) {
    json::Array pair;
    pair.emplace_back(action_token(action));
    pair.emplace_back(steps);
    array.emplace_back(std::move(pair));
  }
  return json::Value(std::move(array));
}

json::Value options_to_json(const ExploreOptions& options) {
  json::Object object;
  visit_key_options([&](const char* name, auto member, bool optional) {
    const auto value = options.*member;
    using T = std::remove_const_t<decltype(value)>;
    if (optional && value == T{}) return;
    if constexpr (std::is_same_v<T, bool> || std::is_signed_v<T>) {
      object.emplace(name, json::Value(value));
    } else {
      object.emplace(name, json::Value(static_cast<std::uint64_t>(value)));
    }
  });
  return json::Value(std::move(object));
}

/// The UnitTally keys, shared by a frontier unit and each of its
/// violations.
void tally_to_json(const UnitTally& tally, json::Object& object) {
  object.emplace("stats", counters_to_json(kExploreCounters, tally.stats));
  object.emplace("audit", audit_to_json(tally.audit));
  object.emplace("fault_points", fault_points_to_json(tally.fault_points));
  object.emplace("budget_limited", json::Value(tally.budget_limited));
  object.emplace("fault_limited", json::Value(tally.fault_limited));
}

json::Value unit_to_json(const CheckpointUnit& unit) {
  json::Object object;
  json::Array frames;
  for (const CheckpointFrame& frame : unit.frames) {
    json::Object frame_object;
    frame_object.emplace("chosen", json::Value(action_token(frame.chosen)));
    json::Array done;
    for (const int decision : frame.done) {
      done.emplace_back(action_token(decision));
    }
    frame_object.emplace("done", json::Value(std::move(done)));
    // Omitted when clean (and always on prune-off campaigns, where it
    // never sets) — historical frame shape preserved.
    if (frame.fp_dirty) frame_object.emplace("fp_dirty", json::Value(true));
    frames.emplace_back(std::move(frame_object));
  }
  object.emplace("frames", json::Value(std::move(frames)));
  object.emplace("floor", json::Value(unit.floor));
  object.emplace("complete", json::Value(unit.complete));
  const UnitResult& result = unit.result;
  tally_to_json(result, object);
  json::Array violations;
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    json::Object violation;
    violation.emplace("artifact",
                      json::Value(result.violations[i].to_artifact()));
    tally_to_json(result.tallies[i], violation);
    violations.emplace_back(std::move(violation));
  }
  object.emplace("violations", json::Value(std::move(violations)));
  object.emplace("cap_hit", json::Value(result.cap_hit));
  object.emplace("stopped", json::Value(result.stopped));
  if (!result.fp_partials.empty()) {
    json::Array partials;
    append_fp_partials(result.fp_partials, partials);
    object.emplace("fp_partials", json::Value(std::move(partials)));
  }
  return json::Value(std::move(object));
}

// ------------------------------------------------------------------- reading
//
// One walk over the document through obs/json.h's Reader, mirroring the
// runreport and status walks: every key is required unless read as
// optional, unknown keys reject (schema drift must bump the version), and
// every type, range or structure violation is recorded with its location
// while the walk goes on.

/// Reads a counter table's rows into `record`, then rejects any other key;
/// an omit_zero row reads as zero when absent.
template <class Record>
void read_counters(json::Reader& object, const auto& rows, Record& record) {
  for (const CounterRow<Record>& row : rows) {
    record.*row.member = object.counter(
        row.name, row.omit_zero ? json::kOptional : json::kRequired);
  }
  object.finish();
}

/// Parses a 32-hex-char cache key back into its (lo, hi) halves; anything
/// but a string of exactly 32 lowercase hex digits rejects.
std::optional<FpKey> read_fp_key(const json::Value& value) {
  if (!value.is_string() || value.as_string().size() != 32) {
    return std::nullopt;
  }
  std::uint64_t halves[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = value.as_string()[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    halves[i / 16] = (halves[i / 16] << 4) | digit;
  }
  return FpKey{halves[0], halves[1]};
}

/// The optional `fp_partials` list of [key, dirty] pairs (absent in
/// pre-prune artifacts).
std::vector<FingerprintPartial> read_fp_partials(json::Reader& object) {
  std::vector<FingerprintPartial> partials;
  const json::Array* entries = object.array("fp_partials", json::kOptional);
  if (entries == nullptr) return partials;
  for (const json::Value& entry : *entries) {
    const bool pair = entry.is_array() && entry.as_array().size() == 2;
    const std::optional<FpKey> key =
        pair ? read_fp_key(entry.as_array()[0]) : std::nullopt;
    if (!key.has_value() || !entry.as_array()[1].is_bool()) {
      object.fail("fp_partials",
                  "holds an entry that is not a [cache key, dirty] pair");
      continue;
    }
    partials.push_back(
        {key->first, key->second, entry.as_array()[1].as_bool()});
  }
  return partials;
}

/// Decision tokens go through the shared parser plus the process-count
/// range check — an out-of-range pid in a checkpoint must reject exactly
/// like one in a counterexample artifact.
std::optional<int> read_decision(json::Reader& object, std::string_view key,
                                 const json::Value& value, int processes) {
  if (!value.is_string()) {
    object.fail(key, "holds a decision token that is not a string");
    return std::nullopt;
  }
  const std::optional<int> decision = parse_action_token(value.as_string());
  if (!decision.has_value()) {
    object.fail(key, "holds a malformed decision token '" +
                         value.as_string() + "'");
    return std::nullopt;
  }
  const int pid = sim::decode_action(*decision).pid;
  if (pid >= processes) {
    object.fail(key, "holds decision token pid " + std::to_string(pid) +
                         ", out of range for " + std::to_string(processes) +
                         " processes");
    return std::nullopt;
  }
  return decision;
}

AuditSummary read_audit(json::Reader object) {
  AuditSummary audit;
  audit.enabled = object.boolean("enabled");
  if (const json::Array* findings = object.array("findings")) {
    for (const json::Value& finding : *findings) {
      if (finding.is_string()) {
        audit.note(finding.as_string());
      } else {
        object.fail("findings", "holds a finding that is not a string");
      }
    }
  }
  read_counters(object, kAuditCounters, audit);
  return audit;
}

ExploreStats read_stats(json::Reader object) {
  ExploreStats stats;
  read_counters(object, kExploreCounters, stats);
  return stats;
}

std::set<FaultPoint> read_fault_points(json::Reader& object, int processes) {
  std::set<FaultPoint> points;
  const json::Array* entries = object.array("fault_points");
  if (entries == nullptr) return points;
  for (const json::Value& entry : *entries) {
    if (!entry.is_array() || entry.as_array().size() != 2) {
      object.fail("fault_points",
                  "holds an entry that is not a [token, steps] pair");
      continue;
    }
    const std::optional<int> action =
        read_decision(object, "fault_points", entry.as_array()[0], processes);
    if (action.has_value() && !sim::is_fault_action(*action)) {
      object.fail("fault_points", "holds a non-fault token");
      continue;
    }
    const json::Value& steps = entry.as_array()[1];
    if (!steps.is_int() || steps.as_int() < 0) {
      object.fail("fault_points", "holds steps that are not non-negative");
      continue;
    }
    if (action.has_value()) {
      points.emplace(*action, static_cast<std::uint64_t>(steps.as_int()));
    }
  }
  return points;
}

/// The keys tally_to_json writes.
void read_tally(json::Reader& object, int processes, UnitTally& tally) {
  tally.stats = read_stats(object.object("stats"));
  tally.audit = read_audit(object.object("audit"));
  tally.fault_points = read_fault_points(object, processes);
  tally.budget_limited = object.boolean("budget_limited");
  tally.fault_limited = object.boolean("fault_limited");
}

ExploreOptions read_options(json::Reader object) {
  ExploreOptions options;
  visit_key_options([&](const char* name, auto member, bool optional) {
    auto& field = options.*member;
    using T = std::remove_reference_t<decltype(field)>;
    const json::Presence presence =
        optional ? json::kOptional : json::kRequired;
    if constexpr (std::is_same_v<T, bool>) {
      field = object.boolean(name, presence);
    } else {
      field = object.integer<T>(name, presence);
    }
  });
  object.finish();
  return options;
}

std::optional<Counterexample> read_counterexample(json::Reader& object,
                                                  std::string_view key,
                                                  const json::Value& value,
                                                  const std::string& system,
                                                  int processes) {
  if (!value.is_string()) {
    object.fail(key, "holds a counterexample artifact that is not a string");
    return std::nullopt;
  }
  std::optional<Counterexample> cex =
      Counterexample::from_artifact(value.as_string());
  if (!cex.has_value()) {
    object.fail(key, "holds a counterexample artifact that does not parse");
    return std::nullopt;
  }
  if (cex->system != system || cex->processes != processes) {
    object.fail(key, "holds a counterexample of a different system");
    return std::nullopt;
  }
  for (const int decision : cex->decisions) {
    if (sim::decode_action(decision).pid >= processes) {
      object.fail(key, "holds a counterexample pid out of range");
      return std::nullopt;
    }
  }
  return cex;
}

CheckpointUnit read_unit(json::Reader object, const std::string& system,
                         int processes) {
  CheckpointUnit unit;
  if (const json::Array* frames = object.array("frames")) {
    for (std::size_t i = 0; i < frames->size(); ++i) {
      json::Reader frame_object = object.item("frames", i, (*frames)[i]);
      CheckpointFrame& frame = unit.frames.emplace_back();
      if (const json::Value* chosen = frame_object.value("chosen")) {
        frame.chosen =
            read_decision(frame_object, "chosen", *chosen, processes)
                .value_or(0);
      }
      if (const json::Array* done = frame_object.array("done")) {
        for (const json::Value& token : *done) {
          if (const std::optional<int> decision =
                  read_decision(frame_object, "done", token, processes)) {
            frame.done.push_back(*decision);
          }
        }
      }
      frame.fp_dirty = frame_object.boolean("fp_dirty", json::kOptional);
      frame_object.finish();
    }
  }
  unit.floor = object.counter("floor");
  if (unit.floor > unit.frames.size()) {
    object.fail("floor", "exceeds the unit's frame stack");
  }
  unit.complete = object.boolean("complete");
  if (unit.complete && !unit.frames.empty()) {
    object.fail("complete", "is true but the unit still carries frames");
  }
  UnitResult& result = unit.result;
  read_tally(object, processes, result);
  if (const json::Array* violations = object.array("violations")) {
    for (std::size_t i = 0; i < violations->size(); ++i) {
      json::Reader violation =
          object.item("violations", i, (*violations)[i]);
      if (const json::Value* artifact = violation.value("artifact")) {
        if (std::optional<Counterexample> cex = read_counterexample(
                violation, "artifact", *artifact, system, processes)) {
          result.violations.push_back(std::move(*cex));
        }
      }
      read_tally(violation, processes, result.tallies.emplace_back());
      violation.finish();
    }
  }
  result.cap_hit = object.boolean("cap_hit");
  result.stopped = object.boolean("stopped");
  result.fp_partials = read_fp_partials(object);
  object.finish();
  return unit;
}

}  // namespace

bool same_key_options(const ExploreOptions& a, const ExploreOptions& b) {
  bool same = true;
  visit_key_options([&](const char*, auto member, bool) {
    same = same && a.*member == b.*member;
  });
  return same;
}

std::string Checkpoint::to_artifact() const {
  json::Object root;
  root.emplace("schema", json::Value(std::string(kCheckpointSchema)));
  root.emplace("seq", json::Value(seq));
  root.emplace("system", json::Value(system));
  root.emplace("processes", json::Value(processes));
  root.emplace("options", options_to_json(options));
  root.emplace("complete", json::Value(complete));
  root.emplace("exhausted", json::Value(exhausted));
  json::Object progress;
  progress.emplace("pass_ordinal", json::Value(pass_ordinal));
  progress.emplace("fault_index", json::Value(fault_index));
  progress.emplace("preemption_index", json::Value(preemption_index));
  progress.emplace("cap_hit", json::Value(cap_hit));
  progress.emplace("stopped", json::Value(stopped));
  progress.emplace("last_pass_budget_limited",
                   json::Value(last_pass_budget_limited));
  progress.emplace("pass_budget_limited", json::Value(pass_budget_limited));
  progress.emplace("pass_fault_limited", json::Value(pass_fault_limited));
  root.emplace("progress", json::Value(std::move(progress)));
  root.emplace("stats", counters_to_json(kExploreCounters, stats));
  root.emplace("audit", audit_to_json(audit));
  json::Array violation_artifacts;
  for (const Counterexample& cex : violations) {
    violation_artifacts.emplace_back(cex.to_artifact());
  }
  root.emplace("violations", json::Value(std::move(violation_artifacts)));
  root.emplace("fault_points", fault_points_to_json(fault_points));
  json::Array frontier_array;
  for (const CheckpointUnit& unit : frontier) {
    frontier_array.emplace_back(unit_to_json(unit));
  }
  root.emplace("frontier", json::Value(std::move(frontier_array)));
  if (!fp_cache.empty()) {
    json::Array cache;
    for (const auto& [lo, hi] : fp_cache) {
      cache.emplace_back(fp_key_to_hex(lo, hi));
    }
    root.emplace("fp_cache", json::Value(std::move(cache)));
  }
  if (!fp_partials.empty()) {
    json::Array partials;
    for (const auto& unit_partials : fp_partials) {
      append_fp_partials(unit_partials, partials);
    }
    root.emplace("fp_partials", json::Value(std::move(partials)));
  }
  return json::Value(std::move(root)).dump(2) + "\n";
}

Checkpoint Checkpoint::read(const obs::json::Value& document,
                            std::vector<std::string>& errors) {
  json::Reader root = json::read_schema(document, kCheckpointSchema, errors);
  Checkpoint checkpoint;
  checkpoint.seq = root.counter("seq");
  checkpoint.system = root.string("system");
  checkpoint.processes = root.integer<int>("processes");
  if (checkpoint.processes < 1 || checkpoint.processes > 64) {
    root.fail("processes", "is outside [1, 64]");
  }
  checkpoint.options = read_options(root.object("options"));
  checkpoint.complete = root.boolean("complete");
  checkpoint.exhausted = root.boolean("exhausted");
  json::Reader progress = root.object("progress");
  checkpoint.pass_ordinal = progress.counter("pass_ordinal");
  checkpoint.fault_index = progress.counter("fault_index");
  checkpoint.preemption_index = progress.counter("preemption_index");
  checkpoint.cap_hit = progress.boolean("cap_hit");
  checkpoint.stopped = progress.boolean("stopped");
  checkpoint.last_pass_budget_limited =
      progress.boolean("last_pass_budget_limited");
  checkpoint.pass_budget_limited = progress.boolean("pass_budget_limited");
  checkpoint.pass_fault_limited = progress.boolean("pass_fault_limited");
  progress.finish();
  checkpoint.stats = read_stats(root.object("stats"));
  checkpoint.audit = read_audit(root.object("audit"));
  if (const json::Array* violations = root.array("violations")) {
    for (const json::Value& artifact : *violations) {
      if (std::optional<Counterexample> cex =
              read_counterexample(root, "violations", artifact,
                                  checkpoint.system, checkpoint.processes)) {
        checkpoint.violations.push_back(std::move(*cex));
      }
    }
  }
  checkpoint.fault_points = read_fault_points(root, checkpoint.processes);
  if (const json::Array* frontier = root.array("frontier")) {
    for (std::size_t i = 0; i < frontier->size(); ++i) {
      checkpoint.frontier.push_back(
          read_unit(root.item("frontier", i, (*frontier)[i]),
                    checkpoint.system, checkpoint.processes));
    }
  }
  if (checkpoint.complete && !checkpoint.frontier.empty()) {
    root.fail("complete", "is true but the frontier is not empty");
  }
  if (const json::Array* cache = root.array("fp_cache", json::kOptional)) {
    for (const json::Value& entry : *cache) {
      if (const std::optional<FpKey> key = read_fp_key(entry)) {
        checkpoint.fp_cache.insert(*key);
      } else {
        root.fail("fp_cache", "holds an entry that is not a cache key");
      }
    }
  }
  std::vector<FingerprintPartial> partials = read_fp_partials(root);
  if (!partials.empty()) checkpoint.fp_partials.push_back(std::move(partials));
  root.finish();
  return checkpoint;
}

std::optional<Checkpoint> Checkpoint::from_artifact(const std::string& text,
                                                    std::string* error) {
  std::vector<std::string> errors;
  std::optional<Checkpoint> checkpoint;
  if (const auto document = json::parse_document(text, errors)) {
    checkpoint = read(*document, errors);
  }
  if (errors.empty()) return checkpoint;
  if (error != nullptr) *error = errors.front();
  return std::nullopt;
}

std::vector<std::string> validate_checkpoint(std::string_view text) {
  std::vector<std::string> errors;
  if (const auto document = json::parse_document(text, errors)) {
    (void)Checkpoint::read(*document, errors);
  }
  return errors;
}

}  // namespace bss::explore
