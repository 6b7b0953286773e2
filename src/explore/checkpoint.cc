#include "explore/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "obs/json.h"
#include "obs/runreport.h"
#include "util/checked.h"

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

json::Value fp_partials_to_json(
    const std::vector<FingerprintPartial>& partials) {
  json::Array array;
  for (const FingerprintPartial& partial : partials) {
    json::Array pair;
    pair.emplace_back(fp_key_to_hex(partial.lo, partial.hi));
    pair.emplace_back(partial.dirty);
    array.emplace_back(std::move(pair));
  }
  return json::Value(std::move(array));
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
    object.emplace("fp_partials", fp_partials_to_json(result.fp_partials));
  }
  return json::Value(std::move(object));
}

// ------------------------------------------------------------------- parsing
//
// Strict shape enforcement mirrors the runreport gate: every listed key is
// required, unknown keys reject (schema drift must bump the version), and
// type/range violations throw InvariantError with the offending location —
// from_artifact catches and surfaces them as one-line errors.

/// Every `required` key must be present; `optional` keys may be absent
/// (how fingerprint-prune fields extend the schema without invalidating
/// pre-existing artifacts); anything else rejects.
void check_keys(const json::Object& object,
                const std::vector<std::string_view>& required,
                const std::vector<std::string_view>& optional,
                const char* where) {
  for (const std::string_view key : required) {
    expects(object.count(std::string(key)) != 0,
            std::string(where) + ": missing required key '" +
                std::string(key) + "'");
  }
  const auto listed = [](const std::vector<std::string_view>& keys,
                         const std::string& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  for (const auto& [key, value] : object) {
    expects(listed(required, key) || listed(optional, key),
            std::string(where) + ": unknown key '" + key + "'");
  }
}

void check_keys(const json::Object& object,
                const std::vector<std::string_view>& keys,
                const char* where) {
  check_keys(object, keys, {}, where);
}

const json::Object& get_object(const json::Object& object,
                               const std::string& key, const char* where) {
  const auto it = object.find(key);
  expects(it != object.end() && it->second.is_object(),
          std::string(where) + ": '" + key + "' must be an object");
  return it->second.as_object();
}

const json::Array& get_array(const json::Object& object,
                             const std::string& key, const char* where) {
  const auto it = object.find(key);
  expects(it != object.end() && it->second.is_array(),
          std::string(where) + ": '" + key + "' must be an array");
  return it->second.as_array();
}

std::uint64_t get_u64(const json::Object& object, const std::string& key,
                      const char* where) {
  const auto it = object.find(key);
  expects(it != object.end() && it->second.is_int() &&
              it->second.as_int() >= 0,
          std::string(where) + ": '" + key +
              "' must be a non-negative integer");
  return static_cast<std::uint64_t>(it->second.as_int());
}

int get_int(const json::Object& object, const std::string& key,
            const char* where) {
  const auto it = object.find(key);
  expects(it != object.end() && it->second.is_int(),
          std::string(where) + ": '" + key + "' must be an integer");
  return checked_cast<int>(it->second.as_int());
}

bool get_bool(const json::Object& object, const std::string& key,
              const char* where) {
  const auto it = object.find(key);
  expects(it != object.end() && it->second.is_bool(),
          std::string(where) + ": '" + key + "' must be a boolean");
  return it->second.as_bool();
}

const std::string& get_string(const json::Object& object,
                              const std::string& key, const char* where) {
  const auto it = object.find(key);
  expects(it != object.end() && it->second.is_string(),
          std::string(where) + ": '" + key + "' must be a string");
  return it->second.as_string();
}

std::uint64_t get_u64_or(const json::Object& object, const std::string& key,
                         std::uint64_t fallback, const char* where) {
  if (object.count(key) == 0) return fallback;
  return get_u64(object, key, where);
}

bool get_bool_or(const json::Object& object, const std::string& key,
                 bool fallback, const char* where) {
  if (object.count(key) == 0) return fallback;
  return get_bool(object, key, where);
}

/// Parses a 32-hex-char cache key back into its (lo, hi) halves; anything
/// but exactly 32 lowercase hex digits rejects.
FpKey parse_fp_key(const std::string& text, const char* where) {
  expects(text.size() == 32,
          std::string(where) + ": cache key must be 32 hex chars");
  std::uint64_t halves[2] = {0, 0};
  for (std::size_t i = 0; i < 32; ++i) {
    const char c = text[i];
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      expects(false, std::string(where) +
                         ": cache key must be lowercase hex");
    }
    halves[i / 16] = (halves[i / 16] << 4) | digit;
  }
  return {halves[0], halves[1]};
}

std::vector<FingerprintPartial> parse_fp_partials(const json::Object& parent,
                                                  const std::string& key,
                                                  const char* where) {
  std::vector<FingerprintPartial> partials;
  if (parent.count(key) == 0) return partials;  // pre-prune artifacts
  for (const json::Value& entry : get_array(parent, key, where)) {
    expects(entry.is_array() && entry.as_array().size() == 2,
            std::string(where) +
                ": fp partial must be a [key, dirty] pair");
    const json::Value& key_value = entry.as_array()[0];
    expects(key_value.is_string(),
            std::string(where) + ": fp partial key must be a string");
    const auto [lo, hi] = parse_fp_key(key_value.as_string(), where);
    const json::Value& dirty = entry.as_array()[1];
    expects(dirty.is_bool(),
            std::string(where) + ": fp partial dirty must be a boolean");
    FingerprintPartial partial;
    partial.lo = lo;
    partial.hi = hi;
    partial.dirty = dirty.as_bool();
    partials.push_back(partial);
  }
  return partials;
}

/// Decision tokens go through the shared parser plus the process-count
/// range check — an out-of-range pid in a checkpoint must reject exactly
/// like one in a counterexample artifact.
int parse_decision(const json::Value& value, int processes,
                   const char* where) {
  expects(value.is_string(),
          std::string(where) + ": decision token must be a string");
  const std::optional<int> decision = parse_action_token(value.as_string());
  expects(decision.has_value(),
          std::string(where) + ": malformed decision token '" +
              value.as_string() + "'");
  const sim::Action action = sim::decode_action(*decision);
  expects(action.pid < processes,
          std::string(where) + ": decision token pid " +
              std::to_string(action.pid) + " out of range for " +
              std::to_string(processes) + " processes");
  return *decision;
}

/// Reads a counter table's rows into `record`.  `object` may carry no
/// keys but the rows' and `required`; an omit_zero row parses as zero when
/// absent.
template <class Record>
void parse_counters(const json::Object& object, const auto& rows,
                    std::vector<std::string_view> required, Record& record,
                    const char* where) {
  std::vector<std::string_view> optional;
  for (const CounterRow<Record>& row : rows) {
    (row.omit_zero ? optional : required).push_back(row.name);
  }
  check_keys(object, required, optional, where);
  for (const CounterRow<Record>& row : rows) {
    record.*row.member = row.omit_zero
                             ? get_u64_or(object, row.name, 0, where)
                             : get_u64(object, row.name, where);
  }
}

AuditSummary parse_audit(const json::Object& parent, const char* where) {
  const json::Object& object = get_object(parent, "audit", where);
  AuditSummary audit;
  parse_counters(object, kAuditCounters, {"enabled", "findings"}, audit,
                 where);
  audit.enabled = get_bool(object, "enabled", where);
  for (const json::Value& finding : get_array(object, "findings", where)) {
    expects(finding.is_string(),
            std::string(where) + ": audit findings must be strings");
    audit.note(finding.as_string());
  }
  return audit;
}

ExploreStats parse_stats(const json::Object& parent, const char* where) {
  ExploreStats stats;
  parse_counters(get_object(parent, "stats", where), kExploreCounters, {},
                 stats, where);
  return stats;
}

std::set<FaultPoint> parse_fault_points(const json::Object& parent,
                                        int processes, const char* where) {
  std::set<FaultPoint> points;
  for (const json::Value& entry : get_array(parent, "fault_points", where)) {
    expects(entry.is_array() && entry.as_array().size() == 2,
            std::string(where) +
                ": fault point must be a [token, steps] pair");
    const int action = parse_decision(entry.as_array()[0], processes, where);
    expects(sim::is_fault_action(action),
            std::string(where) + ": fault point carries a non-fault token");
    const json::Value& steps = entry.as_array()[1];
    expects(steps.is_int() && steps.as_int() >= 0,
            std::string(where) + ": fault point steps must be non-negative");
    points.emplace(action, static_cast<std::uint64_t>(steps.as_int()));
  }
  return points;
}

/// `keys` plus the keys tally_to_json writes.
std::vector<std::string_view> with_tally_keys(
    std::vector<std::string_view> keys) {
  keys.insert(keys.end(), {"stats", "audit", "fault_points", "budget_limited",
                           "fault_limited"});
  return keys;
}

void parse_tally(const json::Object& object, int processes,
                 const char* where, UnitTally& tally) {
  tally.stats = parse_stats(object, where);
  tally.audit = parse_audit(object, where);
  tally.fault_points = parse_fault_points(object, processes, where);
  tally.budget_limited = get_bool(object, "budget_limited", where);
  tally.fault_limited = get_bool(object, "fault_limited", where);
}

ExploreOptions parse_options(const json::Object& parent, const char* where) {
  const json::Object& object = get_object(parent, "options", where);
  std::vector<std::string_view> required;
  std::vector<std::string_view> optional;
  visit_key_options([&](const char* name, auto, bool is_optional) {
    (is_optional ? optional : required).push_back(name);
  });
  check_keys(object, required, optional, where);
  ExploreOptions options;
  visit_key_options([&](const char* name, auto member, bool is_optional) {
    auto& field = options.*member;
    using T = std::remove_reference_t<decltype(field)>;
    if (is_optional && object.count(name) == 0) {
      field = T{};
      return;
    }
    if constexpr (std::is_same_v<T, bool>) {
      field = get_bool(object, name, where);
    } else if constexpr (std::is_signed_v<T>) {
      field = get_int(object, name, where);
    } else {
      field = checked_cast<T>(get_u64(object, name, where));
    }
  });
  return options;
}

Counterexample parse_embedded_counterexample(const json::Value& value,
                                             const std::string& system,
                                             int processes,
                                             const char* where) {
  expects(value.is_string(),
          std::string(where) + ": counterexample artifact must be a string");
  const std::optional<Counterexample> cex =
      Counterexample::from_artifact(value.as_string());
  expects(cex.has_value(),
          std::string(where) + ": embedded counterexample does not parse");
  expects(cex->system == system && cex->processes == processes,
          std::string(where) +
              ": embedded counterexample targets a different system");
  for (const int decision : cex->decisions) {
    expects(sim::decode_action(decision).pid < processes,
            std::string(where) +
                ": embedded counterexample pid out of range");
  }
  return *cex;
}

CheckpointUnit parse_unit(const json::Value& value, const std::string& system,
                          int processes) {
  const char* where = "frontier unit";
  expects(value.is_object(), "frontier entries must be objects");
  const json::Object& object = value.as_object();
  check_keys(object,
             with_tally_keys({"frames", "floor", "complete", "violations",
                              "cap_hit", "stopped"}),
             {"fp_partials"}, where);
  CheckpointUnit unit;
  for (const json::Value& frame_value : get_array(object, "frames", where)) {
    expects(frame_value.is_object(), "frontier frames must be objects");
    const json::Object& frame_object = frame_value.as_object();
    check_keys(frame_object, {"chosen", "done"}, {"fp_dirty"},
               "frontier frame");
    CheckpointFrame frame;
    const auto chosen = frame_object.find("chosen");
    frame.chosen =
        parse_decision(chosen->second, processes, "frontier frame chosen");
    for (const json::Value& done :
         get_array(frame_object, "done", "frontier frame")) {
      frame.done.push_back(
          parse_decision(done, processes, "frontier frame done"));
    }
    frame.fp_dirty =
        get_bool_or(frame_object, "fp_dirty", false, "frontier frame");
    unit.frames.push_back(std::move(frame));
  }
  unit.floor = get_u64(object, "floor", where);
  unit.complete = get_bool(object, "complete", where);
  expects(unit.floor <= unit.frames.size(),
          "frontier unit floor exceeds its frame stack");
  expects(!unit.complete || unit.frames.empty(),
          "complete frontier unit still carries frames");
  UnitResult& result = unit.result;
  parse_tally(object, processes, where, result);
  for (const json::Value& violation_value :
       get_array(object, "violations", where)) {
    expects(violation_value.is_object(),
            "frontier unit violations must be objects");
    const json::Object& violation_object = violation_value.as_object();
    check_keys(violation_object, with_tally_keys({"artifact"}),
               "frontier violation");
    result.violations.push_back(parse_embedded_counterexample(
        violation_object.find("artifact")->second, system, processes,
        "frontier violation"));
    parse_tally(violation_object, processes, where,
                result.tallies.emplace_back());
  }
  result.cap_hit = get_bool(object, "cap_hit", where);
  result.stopped = get_bool(object, "stopped", where);
  result.fp_partials = parse_fp_partials(object, "fp_partials", where);
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
    root.emplace("fp_partials", fp_partials_to_json(fp_partials));
  }
  return json::Value(std::move(root)).dump(2) + "\n";
}

std::optional<Checkpoint> Checkpoint::from_artifact(const std::string& text,
                                                    std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<Checkpoint> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };
  std::string parse_error;
  const std::optional<json::Value> root = json::Value::parse(text,
                                                             &parse_error);
  if (!root.has_value()) return fail("parse error: " + parse_error);
  if (!root->is_object()) return fail("checkpoint must be a JSON object");
  try {
    const json::Object& object = root->as_object();
    const auto schema = object.find("schema");
    expects(schema != object.end() && schema->second.is_string(),
            "missing schema key");
    expects(schema->second.as_string() == kCheckpointSchema,
            "unknown schema version '" + schema->second.as_string() + "'");
    check_keys(object,
               {"schema", "seq", "system", "processes", "options", "complete",
                "exhausted", "progress", "stats", "audit", "violations",
                "fault_points", "frontier"},
               {"fp_cache", "fp_partials"}, "checkpoint");
    Checkpoint checkpoint;
    checkpoint.seq = get_u64(object, "seq", "checkpoint");
    checkpoint.system = get_string(object, "system", "checkpoint");
    checkpoint.processes = get_int(object, "processes", "checkpoint");
    expects(checkpoint.processes >= 1 && checkpoint.processes <= 64,
            "checkpoint process count outside [1, 64]");
    checkpoint.options = parse_options(object, "checkpoint options");
    checkpoint.complete = get_bool(object, "complete", "checkpoint");
    checkpoint.exhausted = get_bool(object, "exhausted", "checkpoint");
    const json::Object& progress =
        get_object(object, "progress", "checkpoint");
    check_keys(progress,
               {"pass_ordinal", "fault_index", "preemption_index", "cap_hit",
                "stopped", "last_pass_budget_limited", "pass_budget_limited",
                "pass_fault_limited"},
               "checkpoint progress");
    checkpoint.pass_ordinal = get_u64(progress, "pass_ordinal", "progress");
    checkpoint.fault_index = get_u64(progress, "fault_index", "progress");
    checkpoint.preemption_index =
        get_u64(progress, "preemption_index", "progress");
    checkpoint.cap_hit = get_bool(progress, "cap_hit", "progress");
    checkpoint.stopped = get_bool(progress, "stopped", "progress");
    checkpoint.last_pass_budget_limited =
        get_bool(progress, "last_pass_budget_limited", "progress");
    checkpoint.pass_budget_limited =
        get_bool(progress, "pass_budget_limited", "progress");
    checkpoint.pass_fault_limited =
        get_bool(progress, "pass_fault_limited", "progress");
    checkpoint.stats = parse_stats(object, "checkpoint");
    checkpoint.audit = parse_audit(object, "checkpoint");
    for (const json::Value& value :
         get_array(object, "violations", "checkpoint")) {
      checkpoint.violations.push_back(parse_embedded_counterexample(
          value, checkpoint.system, checkpoint.processes,
          "checkpoint violation"));
    }
    checkpoint.fault_points =
        parse_fault_points(object, checkpoint.processes, "checkpoint");
    for (const json::Value& value :
         get_array(object, "frontier", "checkpoint")) {
      checkpoint.frontier.push_back(
          parse_unit(value, checkpoint.system, checkpoint.processes));
    }
    if (object.count("fp_cache") != 0) {
      for (const json::Value& value :
           get_array(object, "fp_cache", "checkpoint")) {
        expects(value.is_string(),
                "checkpoint: fp_cache entries must be strings");
        checkpoint.fp_cache.insert(
            parse_fp_key(value.as_string(), "checkpoint fp_cache"));
      }
    }
    checkpoint.fp_partials =
        parse_fp_partials(object, "fp_partials", "checkpoint");
    expects(!checkpoint.complete || checkpoint.frontier.empty(),
            "complete checkpoint still carries a frontier");
    return checkpoint;
  } catch (const std::exception& failure) {
    return fail(failure.what());
  }
}

std::vector<std::string> validate_checkpoint(std::string_view text) {
  std::string error;
  if (!Checkpoint::from_artifact(std::string(text), &error).has_value()) {
    return {error};
  }
  return {};
}

bool write_checkpoint_file(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  if (!obs::write_file(tmp, text)) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace bss::explore
