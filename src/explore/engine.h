// Engine internals shared by the explorer's translation units.  Nothing
// outside src/explore includes this header.
//
//   dfs.cc             the DFS core: frames, choice selection, prune
//                      accounting, the visited-state key, run_one
//   steal_engine.cc    the work-stealing pass engine, the DFS-ordered merge
//                      and the periodic checkpoint writer
//   replay.cc          tape replay, ddmin minimization, replay_counterexample
//   counterexample.cc  the bss-counterexample v1/v2 codec and action tokens
//   explore.cc         explore(): the pass sweep, resume, the final
//                      checkpoint, heartbeats and the runreport
//
// The records a checkpoint persists — UnitResult and its UnitTally,
// FaultPoint, FpKey/FpCache, FingerprintPartial — are defined once, in
// checkpoint.h, and the engine works on them directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "explore/checkpoint.h"
#include "explore/explore.h"
#include "obs/obs.h"
#include "obs/status.h"
#include "runtime/sim_env.h"

namespace bss::explore::detail {

/// Sentinel for "no choice"; distinct from every encoded action (grants are
/// >= 0, faults are small negatives).
constexpr int kNoChoice = std::numeric_limits<int>::min();

/// One node of the DFS tree: the scheduling state after `index` decisions
/// (grants and faults alike).
struct Frame {
  std::vector<int> runnable;           ///< ascending pids runnable here
  std::vector<sim::OpDesc> pending;    ///< by pid; valid for runnable pids
  std::uint64_t restartable = 0;       ///< runnable pids with a restart hook
  std::uint64_t sc_ready = 0;          ///< runnable pids parked on an SC
  std::uint64_t sc_failed_before = 0;  ///< pids already failed spuriously
  std::vector<int> entry_sleep;        ///< sleeping pids on entry (sorted)
  std::vector<int> done;               ///< sibling choices already explored
  int chosen = kNoChoice;              ///< choice taken on the current path
  int prev_grant = -1;                 ///< pid granted most recently before
  int preemptions_before = 0;          ///< preemptions in decisions 0..index-1
  int faults_before = 0;               ///< faults injected in 0..index-1
  // Visited-state cache accumulator (fingerprint_prune only).  `fp_dirty`
  // records whether anything incomplete happened in this node's subtree
  // while the frame was open — a budget or fault cut, a truncation, a
  // violation.  Every disqualifying event marks EVERY open frame, so by the
  // DFS invariant (all execution happens inside every open frame's subtree)
  // a frame's dirty bit is always a statement about its own subtree; unions
  // of the bit across frame copies (steal splits) therefore aggregate
  // commutatively to exactly the serial walk's answer.
  std::uint64_t fp_lo = 0;
  std::uint64_t fp_hi = 0;
  bool fp_valid = false;  ///< key computed (fingerprint non-empty)
  bool fp_dirty = false;  ///< subtree coverage incomplete so far
};

struct PassState {
  std::vector<Frame> frames;
  int budget = -1;        ///< preemption budget; -1 = unbounded
  int fault_budget = 0;   ///< fault budget; 0 = no fault exploration
  bool use_por = true;
  bool explore_crashes = false;
  bool explore_restarts = false;
  bool explore_sc = false;
  /// Visited-state pruning: read `fp_cache` (frozen at pass start, never
  /// written during a pass — lock-free shared reads) at every fresh frame.
  bool fp_prune = false;
  const FpCache* fp_cache = nullptr;
  /// Subtree floor: advance() never backtracks below this many frames.  0
  /// for the root unit; a unit split off a victim starts at the victim's old
  /// floor, and the victim's floor rises past the cut, so no two units ever
  /// own the same sibling choice.
  std::size_t floor = 0;
};

/// Observability context threaded through the hot loop: the sink (null =
/// off), the caller's single-writer metric shard, and the logical worker id
/// events are attributed to.  Strictly passive — nothing here may influence
/// an exploration decision.
struct ObsCtx {
  obs::ObsSink* sink = nullptr;
  obs::MetricShard* shard = nullptr;
  int worker = obs::Event::kCoordinator;
  obs::PhaseProfiler* profiler = nullptr;
};

ObsCtx make_obs_ctx(obs::ObsSink* sink, int worker);

/// The two metrics run_one bumps on every schedule, looked up by name once
/// per unit instead of once per schedule.  Each cell is resolved on first
/// use, so a metric still appears only once it counts something.
class RunMetrics {
 public:
  explicit RunMetrics(obs::MetricShard* shard) : shard_(shard) {}
  void note_pruned();
  void note_depth(std::uint64_t granted);

 private:
  obs::MetricShard* shard_;
  std::uint64_t* pruned_runs_ = nullptr;
  obs::HistogramData* schedule_depth_ = nullptr;
};

/// The max_schedules safety valve, shared across workers.
struct SharedBudget {
  explicit SharedBudget(std::uint64_t cap) : max_schedules(cap) {}
  std::atomic<std::uint64_t> schedules{0};
  const std::uint64_t max_schedules;
  bool exhausted() const {
    return schedules.load(std::memory_order_relaxed) >= max_schedules;
  }
};

/// Per-worker allocation arena for the DFS inner loop: frames popped by
/// advance() park here and make_frame reuses them, so the per-step vector
/// and string capacities (runnable/pending/entry_sleep/done, the OpDesc
/// object/op strings inside `pending`) circulate instead of being
/// reallocated on every node.  Strictly an allocation cache — nothing in
/// here influences an exploration decision.
struct Scratch {
  std::vector<Frame> spare;             ///< recycled frames, fields cleared
  std::vector<int> runnable;            ///< per-step parked-set buffer
  std::vector<int> actions;             ///< per-run decision-tape buffer
  std::vector<FaultPoint> fault_points; ///< per-run fault-site buffer
};

struct RunOutcome {
  bool pruned = false;
  bool truncated = false;
  std::optional<std::string> violation;
  std::vector<int> decisions;
};

/// Per-pass configuration shared by every worker.
struct PassConfig {
  PassState base;  ///< budgets + filter flags; frames empty, floor 0
  int jobs = 1;
  std::size_t violations_so_far = 0;  ///< result.violations.size() at entry
};

/// What the DFS-ordered merge concluded about a pass.
struct MergeOutcome {
  bool stopped = false;        ///< stop policy met (serial `stopped`)
  bool cap_hit = false;        ///< max_schedules fired (serial `cap_hit`)
  bool budget_limited = false;
  bool fault_limited = false;
};

/// Checkpoint-writer state threaded through a campaign: `seq` numbering
/// spans passes (and resumes), the pass-position fields are refreshed by
/// explore() before each pass, and `merged`/`covered` point at the result
/// accumulated by the between-pass merges (never mutated while a pass
/// runs, so the writer may read them without coordination).
struct CheckpointCtx {
  std::uint64_t seq = 0;
  std::uint64_t written = 0;   ///< all artifacts this explore() call wrote
  std::uint64_t periodic = 0;  ///< periodic (non-final) artifacts only
  std::uint64_t pass_ordinal = 0;
  std::uint64_t fault_index = 0;
  std::uint64_t preemption_index = 0;
  bool cap_hit = false;
  bool stopped = false;
  bool last_pass_budget_limited = false;
  /// MergeOutcome flags restored from a resumed pass's artifact, pre-seeded
  /// into every snapshot fold of that pass.
  bool restored_budget_limited = false;
  bool restored_fault_limited = false;
  const ExploreResult* merged = nullptr;
  const std::set<FaultPoint>* covered = nullptr;
  /// Visited-state cache state (fingerprint_prune only): the cache frozen
  /// at the start of the current pass, and the coverage partials of units
  /// already folded into `merged` (restored from a resumed artifact, then
  /// extended as checkpoints fold more prefix units).  Both null when
  /// pruning is off.
  const FpCache* fp_cache = nullptr;
  const std::vector<FingerprintPartial>* restored_partials = nullptr;
};

/// Fingerprint-prune hit rate in parts per million of all schedule
/// attempts (prunes / (prunes + completed schedules)).  Integer so the
/// status artifact's deterministic channel never carries a double.
inline std::uint64_t fp_hit_ppm(std::uint64_t prunes,
                                std::uint64_t schedules) {
  const std::uint64_t attempts = prunes + schedules;
  if (attempts == 0) return 0;
  return prunes * 1'000'000 / attempts;
}

/// Heartbeat state threaded through a campaign (ExploreOptions::status_path
/// or BSS_STATUS): the writer's `seq` spans passes, the pass fields are
/// refreshed by explore() before each pass, and `merged`/`ckpt` point at
/// state owned by explore().  Strictly passive — nothing here may feed back
/// into an exploration decision.
struct StatusCtx {
  obs::StatusWriter writer;
  std::string system;
  std::uint64_t max_schedules = 0;
  std::uint64_t jobs = 0;
  std::uint64_t pass_ordinal = 0;
  const ExploreResult* merged = nullptr;
  const CheckpointCtx* ckpt = nullptr;

  StatusCtx(std::string path, std::uint64_t every_ms)
      : writer(std::move(path), every_ms) {}

  /// Snapshot of the merged-prefix counters (between passes these are the
  /// campaign totals; the steal pass's heartbeat thread overlays its live
  /// view on top of this base).
  obs::Status snapshot(std::string state) const {
    obs::Status s;
    s.producer = "explore()";
    s.system = system;
    s.state = std::move(state);
    s.schedules = merged->stats.schedules;
    s.violations = merged->violations.size();
    s.fingerprint_prunes = merged->stats.fingerprint_prunes;
    s.fingerprint_hit_rate_ppm =
        fp_hit_ppm(s.fingerprint_prunes, s.schedules);
    s.checkpoints = ckpt != nullptr ? ckpt->written : 0;
    s.max_schedules = max_schedules;
    s.passes = pass_ordinal;
    s.jobs = jobs;
    return s;
  }
};

struct StealPassOutput {
  std::vector<UnitResult> units;  ///< DFS order, every unit complete
  bool halted = false;            ///< halt_after_checkpoints fired mid-pass
};

// ------------------------------------------------------------------ dfs.cc

/// First unexplored, feasible choice at `frame`, or kNoChoice.
int select_choice(const Frame& frame, const PassState& pass);
/// Materializes the node reached after `parent` took its chosen action.
Frame make_frame(const sim::SimEnv& env, Scratch& scratch,
                 const PassState& pass, const Frame* parent);
/// Computes `frame`'s visited-state key; false when the system opts out.
bool compute_fp_key(SystemInstance& instance, const sim::SimEnv& env,
                    Frame& frame);
/// Backtracks to the deepest unexplored sibling above the floor.
bool advance(PassState& pass, UnitResult& unit, Scratch& scratch);
/// Emits coverage partials for the frames still open when a unit drains.
void emit_open_frames(const PassState& pass, UnitResult& unit);
/// Executes one run: prefix replay, then fresh extension.
RunOutcome run_one(const ExplorableSystem& system, const ExploreOptions& opts,
                   PassState& pass, UnitResult& unit, const ObsCtx& octx,
                   RunMetrics& metrics, Scratch& scratch);

// --------------------------------------------------------- steal_engine.cc

/// Folds a pass's units into `result` in DFS order (the serial stop rule).
MergeOutcome merge_pass(std::vector<UnitResult>& units,
                        const ExploreOptions& opts, ExploreResult& result,
                        std::set<FaultPoint>& fault_points);
/// Runs one (budget pair) pass on the work-stealing engine.
StealPassOutput run_steal_pass(const ExplorableSystem& system,
                               const ExploreOptions& opts,
                               const PassConfig& cfg, SharedBudget& budget,
                               const std::vector<CheckpointUnit>* seeds,
                               CheckpointCtx* ckpt, StatusCtx* status);

// -------------------------------------------------------------- explore.cc

/// audit == false resolves through BSS_AUDIT (force-on only).
bool resolve_audit(const ExploreOptions& options);

}  // namespace bss::explore::detail
