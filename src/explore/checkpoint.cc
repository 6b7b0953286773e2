#include "explore/checkpoint.h"

#include <cstdio>
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

json::Value stats_to_json(const ExploreStats& stats) {
  json::Object object;
  object.emplace("schedules", json::Value(stats.schedules));
  object.emplace("transitions", json::Value(stats.transitions));
  object.emplace("timer_grants", json::Value(stats.timer_grants));
  object.emplace("sleep_set_prunes", json::Value(stats.sleep_set_prunes));
  object.emplace("preemption_prunes", json::Value(stats.preemption_prunes));
  object.emplace("truncated", json::Value(stats.truncated));
  object.emplace("max_depth_seen", json::Value(stats.max_depth_seen));
  object.emplace("shrink_runs", json::Value(stats.shrink_runs));
  object.emplace("shrink_budget_hits", json::Value(stats.shrink_budget_hits));
  object.emplace("fault_prunes", json::Value(stats.fault_prunes));
  object.emplace("faults_injected", json::Value(stats.faults_injected));
  // Omitted when zero so prune-off artifacts keep their historical byte
  // shape; parses back as zero either way.
  if (stats.fingerprint_prunes > 0) {
    object.emplace("fingerprint_prunes",
                   json::Value(stats.fingerprint_prunes));
  }
  object.emplace("fault_points", json::Value(stats.fault_points));
  return json::Value(std::move(object));
}

json::Value audit_to_json(const AuditSummary& audit) {
  json::Object object;
  object.emplace("enabled", json::Value(audit.enabled));
  object.emplace("windows", json::Value(audit.windows));
  object.emplace("accesses", json::Value(audit.accesses));
  object.emplace("ledger_violations", json::Value(audit.ledger_violations));
  object.emplace("schedules_cross_checked",
                 json::Value(audit.schedules_cross_checked));
  object.emplace("pairs_considered", json::Value(audit.pairs_considered));
  object.emplace("swaps_replayed", json::Value(audit.swaps_replayed));
  object.emplace("commute_mismatches", json::Value(audit.commute_mismatches));
  json::Array findings;
  for (const std::string& finding : audit.findings) {
    findings.emplace_back(finding);
  }
  object.emplace("findings", json::Value(std::move(findings)));
  return json::Value(std::move(object));
}

json::Value fault_points_to_json(
    const std::vector<std::pair<int, std::uint64_t>>& points) {
  json::Array array;
  for (const auto& [action, steps] : points) {
    json::Array pair;
    pair.emplace_back(action_token(action));
    pair.emplace_back(steps);
    array.emplace_back(std::move(pair));
  }
  return json::Value(std::move(array));
}

json::Value options_to_json(const CheckpointOptions& options) {
  json::Object object;
  object.emplace("max_depth", json::Value(options.max_depth));
  object.emplace("preemption_bound", json::Value(options.preemption_bound));
  object.emplace("iterative", json::Value(options.iterative));
  object.emplace("use_por", json::Value(options.use_por));
  object.emplace("max_schedules", json::Value(options.max_schedules));
  object.emplace("stop_at_first_violation",
                 json::Value(options.stop_at_first_violation));
  object.emplace("max_violations", json::Value(options.max_violations));
  object.emplace("minimize", json::Value(options.minimize));
  object.emplace("shrink_budget", json::Value(options.shrink_budget));
  object.emplace("record_trace", json::Value(options.record_trace));
  object.emplace("fault_bound", json::Value(options.fault_bound));
  object.emplace("explore_crashes", json::Value(options.explore_crashes));
  object.emplace("explore_restarts", json::Value(options.explore_restarts));
  object.emplace("explore_sc_failures",
                 json::Value(options.explore_sc_failures));
  object.emplace("audit", json::Value(options.audit));
  object.emplace("audit_commute_sample",
                 json::Value(static_cast<std::uint64_t>(
                     options.audit_commute_sample)));
  // Serialized only when set, so prune-off artifacts keep their historical
  // byte shape (and old artifacts parse as fingerprint_prune == false).
  if (options.fingerprint_prune) {
    object.emplace("fingerprint_prune", json::Value(true));
  }
  return json::Value(std::move(object));
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
  object.emplace("stats", stats_to_json(unit.stats));
  object.emplace("audit", audit_to_json(unit.audit));
  object.emplace("fault_points", fault_points_to_json(unit.fault_points));
  json::Array violations;
  for (const CheckpointViolation& violation : unit.violations) {
    json::Object violation_object;
    violation_object.emplace("artifact",
                             json::Value(violation.cex.to_artifact()));
    violation_object.emplace("stats", stats_to_json(violation.stats));
    violation_object.emplace("audit", audit_to_json(violation.audit));
    violation_object.emplace("fault_points",
                             fault_points_to_json(violation.fault_points));
    violation_object.emplace("budget_limited",
                             json::Value(violation.budget_limited));
    violation_object.emplace("fault_limited",
                             json::Value(violation.fault_limited));
    violations.emplace_back(std::move(violation_object));
  }
  object.emplace("violations", json::Value(std::move(violations)));
  object.emplace("budget_limited", json::Value(unit.budget_limited));
  object.emplace("fault_limited", json::Value(unit.fault_limited));
  object.emplace("cap_hit", json::Value(unit.cap_hit));
  object.emplace("stopped", json::Value(unit.stopped));
  if (!unit.fp_partials.empty()) {
    object.emplace("fp_partials", fp_partials_to_json(unit.fp_partials));
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
                std::initializer_list<const char*> required,
                std::initializer_list<const char*> optional,
                const char* where) {
  for (const char* key : required) {
    expects(object.count(key) != 0,
            std::string(where) + ": missing required key '" + key + "'");
  }
  for (const auto& [key, value] : object) {
    bool known = false;
    for (const char* candidate : required) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    for (const char* candidate : optional) {
      if (known) break;
      if (key == candidate) known = true;
    }
    expects(known, std::string(where) + ": unknown key '" + key + "'");
  }
}

void check_keys(const json::Object& object,
                std::initializer_list<const char*> keys, const char* where) {
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
std::pair<std::uint64_t, std::uint64_t> parse_fp_key(const std::string& text,
                                                     const char* where) {
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

ExploreStats parse_stats(const json::Object& parent, const std::string& key,
                         const char* where) {
  const json::Object& object = get_object(parent, key, where);
  check_keys(object,
             {"schedules", "transitions", "timer_grants", "sleep_set_prunes",
              "preemption_prunes", "truncated", "max_depth_seen",
              "shrink_runs", "shrink_budget_hits", "fault_prunes",
              "faults_injected", "fault_points"},
             {"fingerprint_prunes"}, where);
  ExploreStats stats;
  stats.schedules = get_u64(object, "schedules", where);
  stats.transitions = get_u64(object, "transitions", where);
  stats.timer_grants = get_u64(object, "timer_grants", where);
  stats.sleep_set_prunes = get_u64(object, "sleep_set_prunes", where);
  stats.preemption_prunes = get_u64(object, "preemption_prunes", where);
  stats.truncated = get_u64(object, "truncated", where);
  stats.max_depth_seen = get_u64(object, "max_depth_seen", where);
  stats.shrink_runs = get_u64(object, "shrink_runs", where);
  stats.shrink_budget_hits = get_u64(object, "shrink_budget_hits", where);
  stats.fault_prunes = get_u64(object, "fault_prunes", where);
  stats.faults_injected = get_u64(object, "faults_injected", where);
  stats.fingerprint_prunes =
      get_u64_or(object, "fingerprint_prunes", 0, where);
  stats.fault_points = get_u64(object, "fault_points", where);
  return stats;
}

AuditSummary parse_audit(const json::Object& parent, const std::string& key,
                         const char* where) {
  const json::Object& object = get_object(parent, key, where);
  check_keys(object,
             {"enabled", "windows", "accesses", "ledger_violations",
              "schedules_cross_checked", "pairs_considered", "swaps_replayed",
              "commute_mismatches", "findings"},
             where);
  AuditSummary audit;
  audit.enabled = get_bool(object, "enabled", where);
  audit.windows = get_u64(object, "windows", where);
  audit.accesses = get_u64(object, "accesses", where);
  audit.ledger_violations = get_u64(object, "ledger_violations", where);
  audit.schedules_cross_checked =
      get_u64(object, "schedules_cross_checked", where);
  audit.pairs_considered = get_u64(object, "pairs_considered", where);
  audit.swaps_replayed = get_u64(object, "swaps_replayed", where);
  audit.commute_mismatches = get_u64(object, "commute_mismatches", where);
  for (const json::Value& finding : get_array(object, "findings", where)) {
    expects(finding.is_string(),
            std::string(where) + ": audit findings must be strings");
    audit.note(finding.as_string());
  }
  return audit;
}

std::vector<std::pair<int, std::uint64_t>> parse_fault_points(
    const json::Object& parent, const std::string& key, int processes,
    const char* where) {
  std::vector<std::pair<int, std::uint64_t>> points;
  for (const json::Value& entry : get_array(parent, key, where)) {
    expects(entry.is_array() && entry.as_array().size() == 2,
            std::string(where) +
                ": fault point must be a [token, steps] pair");
    const int action = parse_decision(entry.as_array()[0], processes, where);
    expects(sim::is_fault_action(action),
            std::string(where) + ": fault point carries a non-fault token");
    const json::Value& steps = entry.as_array()[1];
    expects(steps.is_int() && steps.as_int() >= 0,
            std::string(where) + ": fault point steps must be non-negative");
    points.emplace_back(action, static_cast<std::uint64_t>(steps.as_int()));
  }
  return points;
}

CheckpointOptions parse_options(const json::Object& parent,
                                const char* where) {
  const json::Object& object = get_object(parent, "options", where);
  check_keys(object,
             {"max_depth", "preemption_bound", "iterative", "use_por",
              "max_schedules", "stop_at_first_violation", "max_violations",
              "minimize", "shrink_budget", "record_trace", "fault_bound",
              "explore_crashes", "explore_restarts", "explore_sc_failures",
              "audit", "audit_commute_sample"},
             {"fingerprint_prune"}, where);
  CheckpointOptions options;
  options.max_depth = get_u64(object, "max_depth", where);
  options.preemption_bound = get_int(object, "preemption_bound", where);
  options.iterative = get_bool(object, "iterative", where);
  options.use_por = get_bool(object, "use_por", where);
  options.max_schedules = get_u64(object, "max_schedules", where);
  options.stop_at_first_violation =
      get_bool(object, "stop_at_first_violation", where);
  options.max_violations = get_u64(object, "max_violations", where);
  options.minimize = get_bool(object, "minimize", where);
  options.shrink_budget = get_u64(object, "shrink_budget", where);
  options.record_trace = get_bool(object, "record_trace", where);
  options.fault_bound = get_int(object, "fault_bound", where);
  options.explore_crashes = get_bool(object, "explore_crashes", where);
  options.explore_restarts = get_bool(object, "explore_restarts", where);
  options.explore_sc_failures =
      get_bool(object, "explore_sc_failures", where);
  options.audit = get_bool(object, "audit", where);
  options.audit_commute_sample = checked_cast<std::uint32_t>(
      get_u64(object, "audit_commute_sample", where));
  options.fingerprint_prune =
      get_bool_or(object, "fingerprint_prune", false, where);
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
             {"frames", "floor", "complete", "stats", "audit", "fault_points",
              "violations", "budget_limited", "fault_limited", "cap_hit",
              "stopped"},
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
  unit.stats = parse_stats(object, "stats", where);
  unit.audit = parse_audit(object, "audit", where);
  unit.fault_points =
      parse_fault_points(object, "fault_points", processes, where);
  for (const json::Value& violation_value :
       get_array(object, "violations", where)) {
    expects(violation_value.is_object(),
            "frontier unit violations must be objects");
    const json::Object& violation_object = violation_value.as_object();
    check_keys(
        violation_object,
        {"artifact", "stats", "audit", "fault_points", "budget_limited",
         "fault_limited"},
        "frontier violation");
    CheckpointViolation violation;
    violation.cex = parse_embedded_counterexample(
        violation_object.find("artifact")->second, system, processes,
        "frontier violation");
    violation.stats = parse_stats(violation_object, "stats", where);
    violation.audit = parse_audit(violation_object, "audit", where);
    violation.fault_points = parse_fault_points(violation_object,
                                                "fault_points", processes,
                                                where);
    violation.budget_limited = get_bool(violation_object, "budget_limited",
                                        where);
    violation.fault_limited = get_bool(violation_object, "fault_limited",
                                       where);
    unit.violations.push_back(std::move(violation));
  }
  unit.budget_limited = get_bool(object, "budget_limited", where);
  unit.fault_limited = get_bool(object, "fault_limited", where);
  unit.cap_hit = get_bool(object, "cap_hit", where);
  unit.stopped = get_bool(object, "stopped", where);
  unit.fp_partials = parse_fp_partials(object, "fp_partials", where);
  return unit;
}

}  // namespace

CheckpointOptions CheckpointOptions::key_of(const ExploreOptions& options) {
  CheckpointOptions key;
  key.max_depth = options.max_depth;
  key.preemption_bound = options.preemption_bound;
  key.iterative = options.iterative;
  key.use_por = options.use_por;
  key.max_schedules = options.max_schedules;
  key.stop_at_first_violation = options.stop_at_first_violation;
  key.max_violations = static_cast<std::uint64_t>(options.max_violations);
  key.minimize = options.minimize;
  key.shrink_budget = options.shrink_budget;
  key.record_trace = options.record_trace;
  key.fault_bound = options.fault_bound;
  key.explore_crashes = options.explore_crashes;
  key.explore_restarts = options.explore_restarts;
  key.explore_sc_failures = options.explore_sc_failures;
  key.audit = options.audit;
  key.audit_commute_sample = options.audit_commute_sample;
  key.fingerprint_prune = options.fingerprint_prune;
  return key;
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
  root.emplace("stats", stats_to_json(stats));
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
    checkpoint.stats = parse_stats(object, "stats", "checkpoint");
    checkpoint.audit = parse_audit(object, "audit", "checkpoint");
    for (const json::Value& value :
         get_array(object, "violations", "checkpoint")) {
      checkpoint.violations.push_back(parse_embedded_counterexample(
          value, checkpoint.system, checkpoint.processes,
          "checkpoint violation"));
    }
    checkpoint.fault_points = parse_fault_points(
        object, "fault_points", checkpoint.processes, "checkpoint");
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
        checkpoint.fp_cache.push_back(
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
