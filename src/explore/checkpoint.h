// `bss-checkpoint v1` — durable exploration state for the work-stealing
// engine (explore.h: checkpoint_path / resume_path).
//
// The artifact is one canonical-JSON document pairing a *snapshot* (the
// merged DFS-prefix result: stats, audit, violations, fault-point coverage,
// pass position) with a *log* of outstanding work (the frontier: every unit
// not yet folded into the prefix, serialized as its replayable frame stack —
// the `chosen` decision plus the explored siblings `done` per frame, in
// `bss-counterexample v2` token syntax).  Runnable sets, pending operations
// and sleep sets are deliberately NOT stored: the system factory is
// deterministic, so resume re-materializes each frame by replaying its
// decisions on a fresh SimEnv and recomputing the derived state — which
// doubles as an integrity check (an artifact that does not replay, or whose
// `done` lists differ from the ones the engine derives, is rejected).
//
// The codec persists the engine's own records rather than copies of them:
// each frontier unit carries the engine's UnitResult (its UnitTally plus
// violations, per-violation tallies and coverage partials), fault points
// and cache keys stay std::sets, the options are the visit_key_options
// fields of ExploreOptions, and the counter sections are written and read
// through the ExploreStats / AuditSummary counter tables (explore.h).  A
// counter or result-affecting option added there reaches the artifact
// with no codec edit.
//
// Consistency model: workers publish unit snapshots at claim, split and
// checkpoint boundaries, so a checkpoint captures a frontier the serial
// explorer could have reached.  Work done after the last published snapshot
// is simply re-explored on resume — sound because unit exploration is a pure
// function of the frames.  A resumed campaign therefore ends byte-identical
// to an uninterrupted run.
//
// Version policy is the `bss-counterexample` / `bss-runreport` one: the
// reader hard-rejects a missing or unknown schema string, unknown keys,
// wrong-typed values, out-of-range pid tokens, and frontiers that fail
// structural validation.  It is one walk over obs/json.h's Reader, shared
// with the runreport and status formats: resume, validate_checkpoint and
// tools/report_check (which dispatches on the schema string) all get its
// verdict, and the validator reports every error rather than the first.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "explore/explore.h"
#include "obs/json.h"

namespace bss::explore {

inline constexpr std::string_view kCheckpointSchema = "bss-checkpoint v1";

/// The result-affecting ExploreOptions fields, listed once: the artifact's
/// `options` object is exactly these, and resume rejects an artifact whose
/// fields differ from the resuming call's — exploring half a campaign
/// under one sleep-set rule or fault budget and half under another would
/// not be byte-identical to anything.  Scheduling knobs (jobs,
/// checkpoint cadence, status, telemetry) are absent: they never change
/// results.  Calls `f(name, member, optional)` for each field.  An optional
/// field is written only when non-zero and parses as zero when absent — how
/// fingerprint_prune joined the schema without changing prune-off
/// artifacts (pruned passes cover the same space but count different
/// stats, so it is result-affecting too).
template <class F>
void visit_key_options(F&& f) {
  f("max_depth", &ExploreOptions::max_depth, false);
  f("preemption_bound", &ExploreOptions::preemption_bound, false);
  f("iterative", &ExploreOptions::iterative, false);
  f("use_por", &ExploreOptions::use_por, false);
  f("max_schedules", &ExploreOptions::max_schedules, false);
  f("stop_at_first_violation", &ExploreOptions::stop_at_first_violation,
    false);
  f("max_violations", &ExploreOptions::max_violations, false);
  f("minimize", &ExploreOptions::minimize, false);
  f("shrink_budget", &ExploreOptions::shrink_budget, false);
  f("record_trace", &ExploreOptions::record_trace, false);
  f("fault_bound", &ExploreOptions::fault_bound, false);
  f("explore_crashes", &ExploreOptions::explore_crashes, false);
  f("explore_restarts", &ExploreOptions::explore_restarts, false);
  f("explore_sc_failures", &ExploreOptions::explore_sc_failures, false);
  f("audit", &ExploreOptions::audit, false);
  f("audit_commute_sample", &ExploreOptions::audit_commute_sample, false);
  f("fingerprint_prune", &ExploreOptions::fingerprint_prune, true);
}

/// True iff every visit_key_options field matches.
bool same_key_options(const ExploreOptions& a, const ExploreOptions& b);

// ------------------------------------------------- the persisted engine shapes
//
// The engine's own records, persisted as they are: the artifact codec reads
// and writes these types, so a unit's in-memory state and its checkpoint
// entry cannot drift apart.

/// Fault-site coordinate: (encoded action, victim's lifetime op count).
using FaultPoint = std::pair<int, std::uint64_t>;

/// A 128-bit visited-state key, (lo, hi).
using FpKey = std::pair<std::uint64_t, std::uint64_t>;
/// The visited-state cache.  Frozen for the duration of a pass and read
/// concurrently without locks.
using FpCache = std::set<FpKey>;

/// One visited-state coverage partial (fingerprint_prune campaigns only):
/// a 128-bit state-key hash plus whether the emitting unit saw anything
/// incomplete (budget/fault cut, truncation, violation) in that node's
/// subtree segment.  Partials aggregate per key with OR-of-dirty across all
/// units of a pass — commutative and idempotent, so frame copies made by
/// steal splits need no reconciliation — and keys that aggregate clean
/// enter the frozen cache for the NEXT pass.
struct FingerprintPartial {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool dirty = false;
};

/// A merge unit's cumulative tally: everything the DFS-ordered merge folds
/// into the pass result.  A unit carries one for its whole segment and one
/// per recorded violation, taken right after the violation: when the merge
/// decides the serial explorer would have stopped at that violation, it
/// folds that tally instead of the whole unit, discarding everything the
/// worker explored speculatively past the stop point.
struct UnitTally {
  ExploreStats stats;
  AuditSummary audit;
  std::set<FaultPoint> fault_points;
  bool budget_limited = false;  ///< a branch was cut by the preemption budget
  bool fault_limited = false;   ///< a branch was cut by the fault budget
};

/// Results of one merge unit: a contiguous segment of a pass's DFS.  Units
/// are merged in DFS order, which makes the parallel explorer
/// byte-identical to the serial one.
struct UnitResult : UnitTally {
  std::vector<Counterexample> violations;
  std::vector<UnitTally> tallies;  ///< parallel to `violations`
  /// Visited-state coverage partials (fingerprint_prune only), emitted when
  /// a keyed frame pops and for the still-open below-floor frames when the
  /// unit drains.  Folded per key across all units between passes; dropped
  /// wholesale on stop/cap (the campaign is over — the cache is dead).
  std::vector<FingerprintPartial> fp_partials;
  bool cap_hit = false;  ///< max_schedules fired before some run
  bool stopped = false;  ///< the worker hit its violation quota
};

/// One DFS frame of a persisted unit: the decision taken on the current
/// path and the sibling decisions already explored at this node.
/// `fp_dirty` (fingerprint_prune campaigns only) carries the frame's
/// coverage accumulator across a kill — the key itself is recomputed by the
/// resume replay.
struct CheckpointFrame {
  int chosen = 0;
  std::vector<int> done;
  bool fp_dirty = false;
};

/// One outstanding unit: its replayable frame stack (empty when `complete`),
/// backtrack floor, and the results accumulated so far.
struct CheckpointUnit {
  std::vector<CheckpointFrame> frames;
  std::uint64_t floor = 0;
  bool complete = false;  ///< fully explored, waiting on the merge
  UnitResult result;
};

struct Checkpoint {
  std::uint64_t seq = 0;  ///< monotone across a campaign, resumes included
  std::string system;     ///< ExplorableSystem::name() of the target
  int processes = 0;
  /// Only the visit_key_options fields are persisted; a parsed artifact
  /// leaves every other field at its default.
  ExploreOptions options;
  bool complete = false;   ///< exploration finished; `frontier` is empty
  bool exhausted = false;  ///< final coverage flag (meaningful iff complete)
  // Pass position: indices into the iterative budget sweeps plus the flags
  // explore()'s pass loop carries across passes.
  std::uint64_t pass_ordinal = 0;
  std::uint64_t fault_index = 0;
  std::uint64_t preemption_index = 0;
  bool cap_hit = false;
  bool stopped = false;
  bool last_pass_budget_limited = false;
  /// The in-progress pass's running prefix so far cut a branch by the
  /// preemption (fault) budget.  The fold sets them, a resumed pass starts
  /// from them, and explore() consumes and clears them when the pass ends.
  bool pass_budget_limited = false;
  bool pass_fault_limited = false;
  // The running DFS-prefix result.
  ExploreStats stats;
  AuditSummary audit;
  std::vector<Counterexample> violations;
  std::set<FaultPoint> fault_points;
  std::vector<CheckpointUnit> frontier;  ///< DFS order
  // Visited-state cache state (fingerprint_prune campaigns only, so
  // prune-off artifacts keep their historical shape): the cache frozen at
  // the start of the in-progress pass, plus the partials already folded
  // into the running prefix.  Together with the per-unit/per-frame partials
  // above they make a resumed campaign's between-pass cache fold — and so
  // its pruning decisions — byte-identical to an uninterrupted run's.
  FpCache fp_cache;
  /// The artifact's one `fp_partials` list, kept as the folded units' own
  /// vectors in fold order (moved in, never concatenated); a parsed
  /// artifact restores it as one vector.  No entry is empty.
  std::vector<std::vector<FingerprintPartial>> fp_partials;

  /// Canonical JSON with a trailing newline; dump(parse(text)) is a fixed
  /// point, so round-trip tests assert byte equality.
  std::string to_artifact() const;
  /// The one walk over a parsed document: records every schema, version,
  /// type, range and structure violation in `errors`, each with its
  /// location.  The result means something only when none was recorded.
  static Checkpoint read(const obs::json::Value& document,
                         std::vector<std::string>& errors);
  /// Parse + read; nullopt (with the first error in `error`) unless the
  /// walk recorded none.
  static std::optional<Checkpoint> from_artifact(const std::string& text,
                                                 std::string* error = nullptr);
};

/// The walk's error list for the CI gate (tools/report_check): empty ==
/// valid, the same verdict as from_artifact.
std::vector<std::string> validate_checkpoint(std::string_view text);

}  // namespace bss::explore
