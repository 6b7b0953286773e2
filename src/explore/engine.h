// Engine internals shared by the explorer's translation units.  Nothing
// outside src/explore includes this header.
//
//   dfs.cc             the DFS core: frames, choice selection, prune
//                      accounting, the visited-state key, run_one
//   steal_engine.cc    the work-stealing pass engine: the unit list, splits,
//                      the DFS-ordered fold of finished units into the
//                      running prefix (the one stop rule), the periodic
//                      checkpoint writer and the process's helper threads
//   replay.cc          tape replay, ddmin minimization, replay_counterexample
//   counterexample.cc  the bss-counterexample v1/v2 codec and action tokens
//   explore.cc         explore(): the pass sweep, resume, the checkpoint
//                      builder, heartbeats and the runreport
//
// The records a checkpoint persists — Checkpoint itself (explore()'s
// campaign state: the running prefix and the pass position), UnitResult and
// its UnitTally, FaultPoint, FpKey/FpCache, FingerprintPartial — are defined
// once, in checkpoint.h, and the engine works on them directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
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
/// (grants and faults alike).  A fixed-size value: pending operations are
/// read from the SimEnv, and the siblings explored here are derived
/// (explored_siblings).
struct Frame {
  std::uint64_t runnable = 0;          ///< pids runnable here
  std::uint64_t restartable = 0;       ///< runnable pids with a restart hook
  std::uint64_t sc_ready = 0;          ///< runnable pids parked on an SC
  std::uint64_t sc_failed_before = 0;  ///< pids already failed spuriously
  std::uint64_t entry_sleep = 0;       ///< pids asleep on entry
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
static_assert(std::is_trivially_copyable_v<Frame>);

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

/// Observability context threaded through the hot loop: the caller's
/// single-writer metric shard and the phase profiler, each null when off.
/// Strictly passive — nothing here may influence an exploration decision.
struct ObsCtx {
  obs::MetricShard* shard = nullptr;
  obs::PhaseProfiler* profiler = nullptr;
};

/// The context of logical worker `worker` (null telemetry: all off).
ObsCtx make_obs_ctx(obs::Telemetry* telemetry, int worker);

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

/// Per-worker buffers of the run loop: the decision tape and the fault-site
/// buffer keep their capacity from run to run instead of being regrown on
/// every schedule.  Strictly an allocation cache — nothing in here
/// influences an exploration decision.
struct Scratch {
  std::vector<int> actions;             ///< per-run decision-tape buffer
  std::vector<FaultPoint> fault_points; ///< per-run fault-site buffer
};

struct RunOutcome {
  bool pruned = false;
  std::optional<std::string> violation;
  std::vector<int> decisions;
};

/// Per-pass configuration shared by every worker.
struct PassConfig {
  PassState base;  ///< budgets + filter flags; frames empty, floor 0
  int jobs = 1;
};

/// Checkpoint-writer counters of one explore() call (checkpoint_path set).
struct CheckpointCtx {
  std::uint64_t written = 0;   ///< all artifacts this explore() call wrote
  std::uint64_t periodic = 0;  ///< periodic (non-final) artifacts only
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
/// or BSS_STATUS): the writer's `seq` spans passes, and `campaign`/`ckpt`
/// point at state owned by explore(), which a running pass changes only
/// under its pool lock.  Strictly passive — nothing here may feed back into
/// an exploration decision.
struct StatusCtx {
  obs::StatusWriter writer;
  std::uint64_t max_schedules = 0;
  std::uint64_t jobs = 0;
  const Checkpoint* campaign = nullptr;
  const CheckpointCtx* ckpt = nullptr;

  StatusCtx(std::string path, std::uint64_t every_ms)
      : writer(std::move(path), every_ms) {}

  /// Snapshot of the running prefix's counters (between passes these are
  /// the campaign totals; the steal pass's heartbeat thread takes it under
  /// the pool lock and overlays its live view on top).
  obs::Status snapshot(std::string state) const {
    obs::Status s;
    s.producer = "explore()";
    s.system = campaign->system;
    s.state = std::move(state);
    s.schedules = campaign->stats.schedules;
    s.violations = campaign->violations.size();
    s.fingerprint_prunes = campaign->stats.fingerprint_prunes;
    s.fingerprint_hit_rate_ppm =
        fp_hit_ppm(s.fingerprint_prunes, s.schedules);
    s.checkpoints = ckpt != nullptr ? ckpt->written : 0;
    s.max_schedules = max_schedules;
    s.passes = campaign->pass_ordinal;
    s.jobs = jobs;
    return s;
  }
};

// ------------------------------------------------------------------ dfs.cc

/// Pids parked in `env`, as a mask.
std::uint64_t parked_mask(const sim::SimEnv& env);
/// The first feasible choice at `frame` after `after` in the one fixed
/// choice order (kNoChoice: from the start), or kNoChoice.
int next_choice(const Frame& frame, const PassState& pass, int after);
/// The siblings already explored at `frame`: choices are taken in the
/// fixed order and feasibility never changes under a frame, so these are
/// the feasible choices before `chosen`.
std::vector<int> explored_siblings(const Frame& frame, const PassState& pass);
/// The sleep set of the node `parent`'s chosen action leads to, read off
/// `env` before that action applies.
std::uint64_t child_sleep(const sim::SimEnv& env, const Frame& parent,
                          const PassState& pass);
/// Materializes the node reached after `parent` (null at the root) took
/// its chosen action.
Frame make_frame(const sim::SimEnv& env, std::uint64_t runnable,
                 const Frame* parent, std::uint64_t entry_sleep);
/// Computes `frame`'s visited-state key; false when the system opts out.
bool compute_fp_key(SystemInstance& instance, const sim::SimEnv& env,
                    Frame& frame);
/// Backtracks to the deepest unexplored sibling above the floor.
bool advance(PassState& pass, UnitResult& unit);
/// Emits coverage partials for the frames still open when a unit drains.
void emit_open_frames(const PassState& pass, UnitResult& unit);
/// Executes one run: prefix replay, then fresh extension.
RunOutcome run_one(const ExplorableSystem& system, const ExploreOptions& opts,
                   PassState& pass, UnitResult& unit, const ObsCtx& octx,
                   RunMetrics& metrics, Scratch& scratch);

// --------------------------------------------------------- steal_engine.cc

/// Runs one (budget pair) pass on the work-stealing engine, folding its
/// units into `campaign`.  Returns true when halt_after_checkpoints fired
/// mid-pass.
bool run_steal_pass(const ExplorableSystem& system, const ExploreOptions& opts,
                    const PassConfig& cfg, SharedBudget& budget,
                    Checkpoint& campaign,
                    const std::vector<CheckpointUnit>* seeds,
                    CheckpointCtx* ckpt, StatusCtx* status);

// -------------------------------------------------------------- explore.cc

/// Writes `campaign` — the running prefix plus whatever the caller put in
/// its `frontier` — as the next checkpoint artifact, then empties the
/// frontier and advances `seq`.  The periodic and the final artifact both
/// come from here.
void write_checkpoint(Checkpoint& campaign, CheckpointCtx& ckpt,
                      StatusCtx* status);

}  // namespace bss::explore::detail
