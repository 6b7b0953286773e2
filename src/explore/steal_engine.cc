// The work-stealing pass engine: a DFS-ordered list of outstanding units,
// idle workers splitting busy victims' frame stacks, the DFS-ordered fold of
// finished units into the campaign's running prefix that makes every worker
// count byte-identical to the serial walk, and the periodic bss-checkpoint
// writer that persists that prefix plus the outstanding units.  A pass runs
// worker 0 on its calling thread and the others on helper threads that live
// for the process; an owner publishes its unit's results by moving what it
// found since its last publish, never by copying what it found before.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "explore/engine.h"
#include "util/checked.h"

namespace bss::explore::detail {
namespace {

/// Records a violation plus a copy of the unit's tally, so the merge can
/// cut this unit exactly at any of its violations.
void record_violation(UnitResult& unit, Counterexample cex) {
  unit.violations.push_back(std::move(cex));
  unit.tallies.push_back(static_cast<const UnitTally&>(unit));
}

/// `system_name` is system.name(), computed once per pass: collect-all
/// campaigns build a counterexample for most of their schedules.
Counterexample build_counterexample(const ExplorableSystem& system,
                                    const std::string& system_name,
                                    const ExploreOptions& opts,
                                    RunOutcome&& outcome, ExploreStats& stats) {
  Counterexample cex;
  cex.system = system_name;
  cex.processes = system.process_count();
  cex.violation = std::move(*outcome.violation);
  cex.decisions = std::move(outcome.decisions);
  cex.shrunk_from = cex.decisions.size();
  if (opts.minimize) {
    cex = minimize_counterexample(system, std::move(cex), opts, &stats);
  }
  return cex;
}

/// Publishes the work a worker performed on one unit into its metric
/// shard: the difference between the unit's counters when the worker
/// claimed it and when it let go, plus the `found` violations it recorded.
/// The unit's ExploreStats / AuditSummary are the single increment site of
/// every engine counter; the metrics are derived from them here, once per
/// unit, before the merge discards any speculative work (so they keep
/// measuring work *performed*).
void publish_unit_metrics(obs::MetricShard* shard, const UnitTally& claimed,
                          const UnitTally& done, std::size_t found) {
  if (shard == nullptr) return;
  // Counters appear once they count something, as they always have.
  const auto add = [shard](const char* name, std::uint64_t delta) {
    if (delta > 0) shard->counter(name) += delta;
  };
  // Gauges (kMax rows) only from units that ran a schedule.
  const bool ran = done.stats.schedules > claimed.stats.schedules;
  const auto publish = [&](const auto& rows, const auto& a, const auto& b) {
    for (const auto& row : rows) {
      if (row.metric == nullptr) continue;
      if (row.fold != CounterFold::kMax) {
        add(row.metric, b.*row.member - a.*row.member);
      } else if (ran) {
        shard->gauge_max(row.metric, b.*row.member);
      }
    }
  };
  publish(kExploreCounters, claimed.stats, done.stats);
  publish(kAuditCounters, claimed.audit, done.audit);
  add("explore.violations_found", found);
}

/// Folds ONE finished unit into the campaign's running prefix under the
/// serial explorer's stop rule: the first violation at which the serial
/// loop would have stopped cuts the fold at that violation's tally,
/// discarding everything the worker explored speculatively past the stop
/// point.  Returns true when the fold ends AT this unit (violation cut or
/// schedule cap): the pass is over, and no later unit may be folded.
bool merge_one(UnitResult& unit, const ExploreOptions& opts,
               Checkpoint& prefix) {
  // Fold the whole unit, or only up to the first violation that meets the
  // stop rule — the tally recorded with it.
  const UnitTally* tally = &unit;
  std::size_t taken = unit.violations.size();
  bool cut = false;
  for (std::size_t i = 0; i < unit.violations.size(); ++i) {
    if (opts.stop_at_first_violation ||
        prefix.violations.size() + i + 1 >= opts.max_violations) {
      tally = &unit.tallies[i];
      taken = i + 1;
      cut = true;
      break;
    }
  }
  prefix.stats.merge_from(tally->stats);
  prefix.audit.merge_from(tally->audit);
  prefix.fault_points.insert(tally->fault_points.begin(),
                             tally->fault_points.end());
  prefix.stats.fault_points = prefix.fault_points.size();
  prefix.pass_budget_limited |= tally->budget_limited;
  prefix.pass_fault_limited |= tally->fault_limited;
  for (std::size_t i = 0; i < taken; ++i) {
    prefix.violations.push_back(std::move(unit.violations[i]));
  }
  // Every partial joins, cut or not: a pass that ends the campaign folds
  // none of them into the cache.
  if (!unit.fp_partials.empty()) {
    prefix.fp_partials.push_back(std::move(unit.fp_partials));
  }
  if (cut) {
    prefix.stopped = true;
  } else if (unit.cap_hit) {
    prefix.cap_hit = true;
  }
  return cut || unit.cap_hit;
}

// ------------------------------------------------------- the pass engine

/// One unit of the stealing frontier: a contiguous segment of the pass's
/// DFS, owned by at most one worker at a time.  `frames`/`floor`/`result`
/// are the owner's last *published* snapshot (claim, split, due checkpoint
/// and completion boundaries); between publishes the owner works on private
/// state, so a checkpoint taken from the snapshots simply re-explores
/// anything past them on resume — sound, because unit exploration is a pure
/// function of the frames.
struct StealUnit {
  enum class Status { kPending, kRunning, kComplete };
  std::vector<Frame> frames;
  std::size_t floor = 0;
  UnitResult result;
  Status status = Status::kPending;
  bool stolen = false;  ///< unit was split off a victim (worker-beat steals)
};

/// Appends `from`'s elements to `to` by moving them, and empties `from`.
template <typename T>
void move_append(std::vector<T>& to, std::vector<T>& from) {
  if (to.empty()) {
    to.swap(from);
  } else {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  }
  from.clear();
}

/// Publishes an owner's private results into its unit's snapshot (pool.mu
/// held).  The owner's `local` carries the unit's cumulative counters but
/// only the violations, tallies and coverage partials found since its last
/// publish: the counters are copied, and the lists move onto the end of the
/// snapshot's, which therefore reads exactly as a full copy would.
void publish(UnitResult& local, UnitResult& snapshot) {
  static_cast<UnitTally&>(snapshot) = local;
  move_append(snapshot.violations, local.violations);
  move_append(snapshot.tallies, local.tallies);
  move_append(snapshot.fp_partials, local.fp_partials);
  snapshot.cap_hit = local.cap_hit;
  snapshot.stopped = local.stopped;
}

/// Shared state of one stealing pass.  The std::list gives iterator-stable
/// DFS order: a split inserts the thief unit right after its victim, so at
/// every instant the list order IS the serial DFS order.  Finished units at
/// the head are folded into the campaign's running prefix and leave the
/// list, so it holds exactly the outstanding work a checkpoint persists.
struct StealPool {
  std::mutex mu;
  std::condition_variable cv;
  std::list<StealUnit> units;
  std::size_t idle = 0;     ///< workers blocked waiting for a pending unit
  std::size_t running = 0;  ///< units currently owned by a worker
  /// The fold ended the pass.  Only the head unit ever folds, so every unit
  /// was past the stop and the list is cleared: an owner tests this before
  /// it touches its unit, whose iterator no longer points into the list.
  bool stop_confirmed = false;
  bool halt = false;  ///< halt_after_checkpoints fired (SIGKILL stand-in)
  bool abort_all = false;
  std::exception_ptr error;
  /// The only hot-path coupling: owners poll this with a relaxed load at
  /// run boundaries and take the lock only when it is set (idle thieves,
  /// a due checkpoint, a confirmed stop, halt, or an error).
  std::atomic<bool> attention{false};
  std::atomic<bool> checkpoint_due{false};
  std::atomic<std::uint64_t> last_checkpoint_at{0};
};

/// Splits the victim's DFS at its shallowest splittable depth >= floor:
/// the thief takes the *rest of the victim's walk* — the unexplored
/// siblings at depth d plus every backtrack below, down to the victim's
/// old floor — while the victim keeps only its current depth-d subtree
/// (its floor rises to d+1).  Both halves stay contiguous DFS
/// segments with the victim's strictly first, so inserting the thief right
/// after the victim preserves global DFS order; a later, necessarily deeper
/// split inserts between them, which is again the DFS order.  The thief's
/// copy of depth d chooses the victim's next sibling there, so the siblings
/// it derives as explored are the victim's plus the victim's own choice.
bool try_split(PassState& pass, StealUnit& thief) {
  for (std::size_t d = pass.floor; d < pass.frames.size(); ++d) {
    const int next = next_choice(pass.frames[d], pass, pass.frames[d].chosen);
    if (next == kNoChoice) continue;
    const auto cut = pass.frames.begin() + static_cast<std::ptrdiff_t>(d);
    thief.frames.assign(pass.frames.begin(), std::next(cut));
    thief.frames.back().chosen = next;
    thief.floor = pass.floor;
    thief.stolen = true;
    pass.floor = d + 1;
    return true;
  }
  return false;
}

CheckpointUnit serialize_steal_unit(const StealUnit& unit,
                                    const PassState& base) {
  CheckpointUnit out;
  out.complete = unit.status == StealUnit::Status::kComplete;
  if (!out.complete) {
    out.frames.reserve(unit.frames.size());
    for (const Frame& frame : unit.frames) {
      // The key is recomputed by the resume replay; only the dirty
      // accumulator is persisted.
      out.frames.push_back(
          {frame.chosen, explored_siblings(frame, base), frame.fp_dirty});
    }
    out.floor = unit.floor;
  }
  out.result = unit.result;
  return out;
}

/// Re-materializes a persisted unit: its results restore as they are; the
/// frame stack replays its decisions on a fresh SimEnv, recomputing the
/// runnable sets, bitmasks and sleep sets the artifact deliberately does
/// not store.  The replay doubles as an integrity check: an artifact is
/// rejected when its decisions do not apply to the system or a frame's
/// `done` list is not what the engine derives there.  `index` is the unit's
/// position in the frontier, for the error text.
StealUnit materialize_steal_unit(const ExplorableSystem& system,
                                 const PassState& base,
                                 const CheckpointUnit& cu, std::size_t index) {
  StealUnit unit;
  unit.result = cu.result;
  if (cu.complete) {
    unit.status = StealUnit::Status::kComplete;
    return unit;
  }
  unit.floor = static_cast<std::size_t>(cu.floor);

  PassState pass = base;
  auto instance = system.make();
  sim::SimEnv env({.record_trace = false});
  instance->populate(env);
  expects(env.process_count() <= 64,
          "the fault-aware explorer supports at most 64 processes");
  env.start();
  std::uint64_t next_sleep = 0;
  for (const CheckpointFrame& cf : cu.frames) {
    const std::uint64_t runnable = parked_mask(env);
    expects(runnable != 0, "checkpoint frontier replays past quiescence");
    const Frame* parent = pass.frames.empty() ? nullptr : &pass.frames.back();
    Frame frame = make_frame(env, runnable, parent, next_sleep);
    // No account_frame here: the persisted partial stats already charged
    // this frame when it was first materialized.  The cache key is a pure
    // function of the replayed state, so recomputing it (rather than
    // persisting it) keeps the artifact small and doubles as coverage of
    // the key's determinism; only the dirty accumulator needs restoring.
    if (pass.fp_prune) {
      compute_fp_key(*instance, env, frame);
      frame.fp_dirty = cf.fp_dirty;
    }
    expects(env.applicable(cf.chosen),
            "checkpoint frontier decision is not applicable on replay");
    frame.chosen = cf.chosen;
    // `done` then `chosen` must be the feasible choices in the engine's
    // order, up to and including `chosen`.
    const std::vector<int> explored = explored_siblings(frame, pass);
    const int after = explored.empty() ? kNoChoice : explored.back();
    expects(explored == cf.done && next_choice(frame, pass, after) == cf.chosen,
            [&] {
              return "checkpoint frontier unit " + std::to_string(index) +
                     " frame " + std::to_string(pass.frames.size()) +
                     ": done and chosen are not the feasible choices in "
                     "the engine's order";
            });
    next_sleep = child_sleep(env, frame, pass);
    env.apply(cf.chosen);
    pass.frames.push_back(frame);
  }
  env.finish();
  expects(unit.floor <= pass.frames.size(),
          "checkpoint frontier floor exceeds its frame stack");
  unit.frames = std::move(pass.frames);
  return unit;
}

/// Per-worker heartbeat cells, allocated only when a status file is on.
/// Workers publish with relaxed stores; the heartbeat thread reads them
/// approximately — nothing here is part of the deterministic result.
struct WorkerBeat {
  static constexpr int kIdle = 0;
  static constexpr int kRunning = 1;
  static constexpr int kStealing = 2;
  std::atomic<int> state{kIdle};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> schedules{0};
};

const char* beat_state_name(int state) {
  switch (state) {
    case WorkerBeat::kRunning:
      return "running";
    case WorkerBeat::kStealing:
      return "stealing";
    default:
      return "idle";
  }
}

// ---------------------------------------------------------- helper threads

/// The process's helper threads.  A pass runs worker 0 on its calling
/// thread and offers worker indices 1..jobs-1 to idle helpers; a helper
/// runs the index it takes, then waits for the next offer.  A new thread
/// starts on its spawner's CPU set — under a one-CPU affinity it waits a
/// scheduler slice before it can run anywhere else — and maps its fiber
/// stacks anew; a helper keeps its placement, stack pool and caches from
/// pass to pass.  Helpers are optional: a pass whose indices nobody takes
/// completes on worker 0 alone, so nested or concurrent passes cannot
/// deadlock.  The set never shrinks.
class Helpers {
 public:
  /// Runs work(0) on the calling thread and work(1..jobs-1) on helpers as
  /// they take the indices; returns once every helper that took one left.
  /// An index no helper took before work(0) returned is never run.
  static void run(int jobs, const std::function<void(int)>& work) {
    // Never destroyed: idle helpers wait on it until the process exits.
    static Helpers* const helpers = new Helpers;
    helpers->run_pass(jobs, work);
  }

 private:
  struct Offer {
    const std::function<void(int)>* work;
    int next = 1;    ///< the next index to hand out
    int end = 1;     ///< one past the last index
    int joined = 0;  ///< helpers inside work() now
  };

  void run_pass(int jobs, const std::function<void(int)>& work) {
    if (jobs <= 1) {
      work(0);
      return;
    }
    Offer offer{&work, 1, jobs};
    {
      const auto wanted = static_cast<std::size_t>(jobs - 1);
      const std::lock_guard<std::mutex> lock(mu_);
      // Spawn only what the idle helpers not already promised to another
      // pass's indices cannot cover, so concurrent passes keep their width.
      for (std::size_t free = idle_ > unclaimed_ ? idle_ - unclaimed_ : 0;
           free < wanted; ++free) {
        std::thread([this] { serve(); }).detach();
        ++idle_;
      }
      offers_.push_back(&offer);
      unclaimed_ += wanted;
      offered_.notify_all();
    }
    // Closes the offer even if work(0) throws: no helper may take an index
    // of a pass that is gone, and the pass waits for those that did.
    struct Close {
      Helpers& helpers;
      Offer& offer;
      ~Close() {
        std::unique_lock<std::mutex> lock(helpers.mu_);
        helpers.unclaimed_ -= static_cast<std::size_t>(offer.end - offer.next);
        helpers.offers_.erase(std::find(helpers.offers_.begin(),
                                        helpers.offers_.end(), &offer));
        helpers.left_.wait(lock, [this] { return offer.joined == 0; });
      }
    };
    const Close close{*this, offer};
    work(0);
  }

  [[noreturn]] void serve() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      offered_.wait(lock, [this] { return unclaimed_ > 0; });
      Offer& offer = **std::find_if(
          offers_.begin(), offers_.end(),
          [](const Offer* o) { return o->next < o->end; });
      const int index = offer.next++;
      --unclaimed_;
      --idle_;
      ++offer.joined;
      lock.unlock();
      (*offer.work)(index);
      lock.lock();
      ++idle_;
      if (--offer.joined == 0) left_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable offered_;  ///< an open offer has an index left
  std::condition_variable left_;     ///< a helper left its offer
  std::vector<Offer*> offers_;       ///< open offers, oldest first
  std::size_t idle_ = 0;       ///< helpers outside work(), from their spawn
  std::size_t unclaimed_ = 0;  ///< indices left in open offers
};

}  // namespace

/// Runs one (budget pair) pass on the work-stealing engine.  The frontier
/// is a DFS-ordered list of units; idle workers raise the attention flag
/// and owners split their shallowest splittable frame off for them.  Each
/// time a unit finishes, the finished units at the head of the list fold
/// into `campaign`'s running prefix in DFS order; the fold that ends the
/// pass confirms the stop, and everything past it is dropped or abandoned.
/// With checkpointing on, the owner that observes a due checkpoint persists
/// the prefix plus the outstanding units.  `seeds` (non-null on the resumed
/// pass) re-materializes a persisted frontier instead of starting from the
/// root.  `status` (non-null when a heartbeat file is on) gets a dedicated
/// thread that periodically overlays the pool's live counters on the prefix
/// and writes the bss-status artifact — read-only w.r.t. the pool.
bool run_steal_pass(const ExplorableSystem& system, const ExploreOptions& opts,
                    const PassConfig& cfg, SharedBudget& budget,
                    Checkpoint& campaign,
                    const std::vector<CheckpointUnit>* seeds,
                    CheckpointCtx* ckpt, StatusCtx* status) {
  StealPool pool;
  if (seeds != nullptr) {
    for (std::size_t i = 0; i < seeds->size(); ++i) {
      pool.units.push_back(
          materialize_steal_unit(system, cfg.base, (*seeds)[i], i));
    }
  } else {
    pool.units.emplace_back();  // the root unit: empty frames, floor 0
  }
  pool.last_checkpoint_at.store(
      budget.schedules.load(std::memory_order_relaxed),
      std::memory_order_relaxed);

  const std::string system_name = system.name();
  obs::Telemetry* const telemetry = opts.telemetry;
  const bool spans = telemetry != nullptr && telemetry->timeline_enabled();
  obs::PhaseProfiler* const profiler =
      telemetry != nullptr ? telemetry->profiler() : nullptr;
  const std::size_t quota =
      opts.max_violations > campaign.violations.size()
          ? opts.max_violations - campaign.violations.size()
          : 1;
  const int nworkers = std::max(cfg.jobs, 1);
  const bool status_on = status != nullptr && status->writer.enabled();
  std::unique_ptr<WorkerBeat[]> beats;
  if (status_on) {
    beats = std::make_unique<WorkerBeat[]>(static_cast<std::size_t>(nworkers));
  }

  const auto refresh_attention = [&] {  // pool.mu held
    pool.attention.store(
        pool.idle > 0 ||
            pool.checkpoint_due.load(std::memory_order_relaxed) ||
            pool.stop_confirmed || pool.halt || pool.abort_all,
        std::memory_order_release);
  };

  /// Folds the finished units at the head of the list into the running
  /// prefix, in DFS order, and moves them from the list into `dropped`,
  /// which the caller destroys after it releases pool.mu (pool.mu held).
  /// merge_one's verdict is the stop decision: once the prefix ends the
  /// pass, every unit left in the list is past it — the list is emptied
  /// into `dropped`, and running owners abandon theirs when they see the
  /// flag.
  const auto walk_frontier = [&](std::list<StealUnit>& dropped) {
    while (!pool.stop_confirmed && !pool.units.empty() &&
           pool.units.front().status == StealUnit::Status::kComplete) {
      {
        const obs::ScopedPhase merge_scope(profiler, obs::Phase::kMerge);
        pool.stop_confirmed =
            merge_one(pool.units.front().result, opts, campaign);
      }
      dropped.splice(dropped.end(), pool.units, pool.units.begin());
    }
    if (!pool.stop_confirmed) return;
    dropped.splice(dropped.end(), pool.units);
    refresh_attention();
    pool.cv.notify_all();
  };

  /// Persists the campaign (pool.mu held): the running prefix plus every
  /// unit still in the list, in DFS order.
  const auto write_periodic = [&](const ObsCtx& octx) {
    const obs::ScopedPhase checkpoint_scope(octx.profiler,
                                            obs::Phase::kCheckpointWrite);
    for (const StealUnit& unit : pool.units) {
      campaign.frontier.push_back(serialize_steal_unit(unit, cfg.base));
    }
    write_checkpoint(campaign, *ckpt, status);
    ++ckpt->periodic;
    pool.last_checkpoint_at.store(
        budget.schedules.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    if (octx.shard != nullptr) ++octx.shard->counter("explore.checkpoints");
  };

  /// Writes the checkpoint if one is due (pool.mu held).  Returns true iff
  /// the write tripped halt_after_checkpoints — the deterministic SIGKILL
  /// stand-in for kill-and-resume tests: stop dead right after the Nth
  /// periodic write, leaving the artifact as the only durable output.
  const auto checkpoint_if_due = [&](const ObsCtx& octx) {
    if (ckpt == nullptr ||
        !pool.checkpoint_due.load(std::memory_order_relaxed)) {
      return false;
    }
    write_periodic(octx);
    pool.checkpoint_due.store(false, std::memory_order_relaxed);
    if (opts.halt_after_checkpoints == 0 ||
        ckpt->periodic < opts.halt_after_checkpoints) {
      return false;
    }
    pool.halt = true;
    pool.cv.notify_all();
    return true;
  };

  const auto worker = [&](int worker_index) {
    try {
      const ObsCtx octx = make_obs_ctx(telemetry, worker_index);
      WorkerBeat* const beat =
          beats != nullptr ? &beats[worker_index] : nullptr;
      bool halted = false;
      Scratch scratch;
      while (!halted) {
        auto self = pool.units.end();
        PassState pass = cfg.base;
        // The unit's cumulative counters, and only what it found since its
        // last publish: violations, tallies and coverage partials.
        UnitResult local;
        std::size_t published = 0;  ///< violations in the unit's snapshot
        {
          std::unique_lock<std::mutex> lock(pool.mu);
          for (;;) {
            if (pool.abort_all || pool.halt) break;
            for (auto it = pool.units.begin(); it != pool.units.end(); ++it) {
              if (it->status == StealUnit::Status::kPending) {
                self = it;
                break;
              }
            }
            if (self != pool.units.end() || pool.running == 0) break;
            ++pool.idle;
            refresh_attention();
            if (beat != nullptr) {
              beat->state.store(WorkerBeat::kStealing,
                                std::memory_order_relaxed);
            }
            pool.cv.wait(lock);
            --pool.idle;
            refresh_attention();
          }
          if (self == pool.units.end()) {
            pool.cv.notify_all();  // drained/halted: release the others too
            break;
          }
          self->status = StealUnit::Status::kRunning;
          ++pool.running;
          pass.frames = self->frames;
          pass.floor = self->floor;
          static_cast<UnitTally&>(local) = self->result;
          published = self->result.violations.size();
          if (beat != nullptr) {
            beat->state.store(WorkerBeat::kRunning, std::memory_order_relaxed);
            if (self->stolen) {
              beat->steals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        // The metrics baseline: counters the unit already carried (non-zero
        // only for units restored from a checkpoint).
        const UnitTally at_claim = octx.shard != nullptr
                                       ? static_cast<const UnitTally&>(local)
                                       : UnitTally{};
        const std::size_t published_at_claim = published;
        const std::uint64_t unit_begin = spans ? telemetry->now_ns() : 0;
        RunMetrics run_metrics(octx.shard);
        bool aborted = false;
        for (;;) {
          if (pool.attention.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(pool.mu);
            if (pool.abort_all || pool.halt) {
              halted = true;
            } else if (pool.stop_confirmed) {
              aborted = true;
            } else {
              std::size_t splits = 0;
              while (splits < pool.idle) {
                StealUnit thief;
                if (!try_split(pass, thief)) break;
                pool.units.insert(std::next(self), std::move(thief));
                ++splits;
                if (octx.shard != nullptr) {
                  ++octx.shard->counter("explore.steals");
                }
                pool.cv.notify_one();
              }
              // Publish the snapshot other threads read, and only when
              // one reads it: a split moved the floor, and a due
              // checkpoint serializes running units from exactly these
              // fields.  The three move together: a new floor over stale
              // frames would overlap the thief's range, and new frames
              // over a stale result would lose the runs in between on
              // resume.  The result's counters are copied and what the
              // owner found since its last publish moves over, so a
              // publish costs what was found since, not what was found
              // before.  Idle thieves keep attention raised, so this
              // block runs after every run while one waits; it publishes
              // nothing when it cannot split.
              if (splits > 0 ||
                  pool.checkpoint_due.load(std::memory_order_relaxed)) {
                self->frames = pass.frames;
                self->floor = pass.floor;
                published += local.violations.size();
                publish(local, self->result);
              }
              halted = checkpoint_if_due(octx);
              refresh_attention();
            }
          }
          if (halted || aborted) break;
          if (budget.exhausted()) {
            local.cap_hit = true;
            break;
          }
          RunOutcome outcome =
              run_one(system, opts, pass, local, octx, run_metrics, scratch);
          if (!outcome.pruned) {
            if (beat != nullptr) {
              beat->schedules.fetch_add(1, std::memory_order_relaxed);
            }
            const std::uint64_t claimed =
                budget.schedules.fetch_add(1, std::memory_order_relaxed) + 1;
            if (ckpt != nullptr && opts.checkpoint_every > 0 &&
                claimed - pool.last_checkpoint_at.load(
                              std::memory_order_relaxed) >=
                    opts.checkpoint_every &&
                !pool.checkpoint_due.exchange(true,
                                              std::memory_order_relaxed)) {
              pool.attention.store(true, std::memory_order_release);
            }
          }
          if (outcome.violation.has_value()) {
            record_violation(
                local, build_counterexample(system, system_name, opts,
                                            std::move(outcome), local.stats));
            if (opts.stop_at_first_violation ||
                published + local.violations.size() >= quota) {
              local.stopped = true;
              break;
            }
          }
          if (!advance(pass, local)) {
            // Normal drain: emit the below-floor prefix frames' coverage
            // partials.  The halted/aborted/cap/stopped breaks above emit
            // nothing — each either abandons the unit's results wholesale
            // or ends the campaign, and explore() discards all partials of
            // an ended pass.
            emit_open_frames(pass, local);
            break;
          }
        }
        publish_unit_metrics(
            octx.shard, at_claim, local,
            published - published_at_claim + local.violations.size());
        if (halted) break;  // unit stays kRunning; the halt abandons the pass
        const std::uint64_t unit_schedules = local.stats.schedules;
        std::list<StealUnit> dropped;  // destroyed after pool.mu is released
        {
          std::lock_guard<std::mutex> lock(pool.mu);
          --pool.running;
          if (!pool.stop_confirmed) {  // else: past the confirmed stop
            self->frames.clear();
            self->floor = 0;
            publish(local, self->result);
            self->status = StealUnit::Status::kComplete;
            walk_frontier(dropped);
          }
          // A checkpoint that fell due during this unit's last runs is
          // written now: at jobs > 1 the other units may drain without
          // another run boundary, and the pass would end without it.
          if (!pool.abort_all && !pool.halt) halted = checkpoint_if_due(octx);
          refresh_attention();
          pool.cv.notify_all();
        }
        if (spans) {
          obs::Span span;
          span.name = "unit";
          span.track = worker_index;
          span.begin_ns = unit_begin;
          span.end_ns = telemetry->now_ns();
          span.args.emplace_back("schedules", std::to_string(unit_schedules));
          telemetry->record_span(std::move(span));
        }
      }
      if (beat != nullptr) {
        beat->state.store(WorkerBeat::kIdle, std::memory_order_relaxed);
      }
    } catch (...) {
      // Any lock held when the exception was raised has already been
      // released by the unwind, so re-locking here is safe.
      std::lock_guard<std::mutex> lock(pool.mu);
      if (!pool.error) pool.error = std::current_exception();
      pool.abort_all = true;
      pool.attention.store(true, std::memory_order_release);
      pool.cv.notify_all();
    }
  };

  {
    std::list<StealUnit> dropped;
    std::lock_guard<std::mutex> lock(pool.mu);
    walk_frontier(dropped);  // a restored frontier's finished head folds now
  }

  // The heartbeat thread: overlays the pool's live counters on the running
  // prefix and writes the status file whenever the cadence is due.  It only
  // ever reads the prefix and pool state (under pool.mu) and worker beats
  // (relaxed), so it cannot perturb the exploration — kill it and the
  // campaign is identical.
  std::mutex status_mu;
  std::condition_variable status_cv;
  bool status_stop = false;
  const auto build_status = [&] {
    obs::Status s;
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      s = status->snapshot("running");
      for (const StealUnit& unit : pool.units) {
        if (unit.status != StealUnit::Status::kComplete) ++s.frontier;
        s.fingerprint_prunes += unit.result.stats.fingerprint_prunes;
      }
    }
    s.schedules = budget.schedules.load(std::memory_order_relaxed);
    s.fingerprint_hit_rate_ppm =
        fp_hit_ppm(s.fingerprint_prunes, s.schedules);
    for (int i = 0; i < nworkers; ++i) {
      obs::WorkerStatus w;
      w.worker = i;
      w.state = beat_state_name(beats[i].state.load(std::memory_order_relaxed));
      w.steals = beats[i].steals.load(std::memory_order_relaxed);
      w.schedules = beats[i].schedules.load(std::memory_order_relaxed);
      s.workers.push_back(std::move(w));
    }
    return s;
  };
  const auto status_loop = [&] {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(status_mu);
        status_cv.wait_for(lock, std::chrono::milliseconds(25),
                           [&] { return status_stop; });
        if (status_stop) return;
      }
      if (!status->writer.due()) continue;
      status->writer.write(build_status());
    }
  };
  std::thread status_thread;
  if (status_on) status_thread = std::thread(status_loop);

  Helpers::run(nworkers, worker);  // the calling thread is worker 0
  if (status_on) {
    {
      std::lock_guard<std::mutex> lock(status_mu);
      status_stop = true;
    }
    status_cv.notify_all();
    status_thread.join();
  }
  if (pool.error) std::rethrow_exception(pool.error);
  if (pool.halt) return true;
  expects(pool.units.empty(), "stealing pass ended with unfolded units");
  return false;
}

}  // namespace bss::explore::detail
