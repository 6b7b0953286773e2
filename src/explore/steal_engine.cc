// The work-stealing pass engine: a DFS-ordered list of units, idle workers
// splitting busy victims' frame stacks, the DFS-ordered merge that makes
// every worker count byte-identical to the serial walk, and the periodic
// bss-checkpoint writer that persists the merged prefix plus the frontier.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <set>
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

Counterexample build_counterexample(const ExplorableSystem& system,
                                    const ExploreOptions& opts,
                                    RunOutcome&& outcome, ExploreStats& stats) {
  Counterexample cex;
  cex.system = system.name();
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
/// shard: the difference between the unit's results when the worker
/// claimed it and when it let go.  The unit's ExploreStats / AuditSummary
/// are the single increment site of every engine counter; the metrics are
/// derived from them here, once per unit, before the merge discards any
/// speculative work (so they keep measuring work *performed*).
void publish_unit_metrics(obs::MetricShard* shard, const UnitResult& claimed,
                          const UnitResult& done) {
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
  add("explore.violations_found",
      done.violations.size() - claimed.violations.size());
}

/// Folds ONE unit into `result` under the serial explorer's stop rule:
/// the first violation at which the serial loop would have stopped cuts the
/// fold at that violation's tally, discarding everything the worker
/// explored speculatively past the stop point.  Returns true when the merge
/// ends AT this unit (violation cut or schedule cap) — later units must not
/// be folded.  With a non-null `sink` the fold emits the deterministic
/// merge-time events (the real merge); the checkpoint snapshot fold passes
/// nullptr and reproduces the exact same fold silently, on copies.
bool merge_one(UnitResult& unit, const ExploreOptions& opts,
               ExploreResult& result, std::set<FaultPoint>& fault_points,
               MergeOutcome& out, obs::ObsSink* sink) {
  const bool events = sink != nullptr && sink->events_enabled();
  // Violation and fault-point-first-coverage events are emitted HERE, at
  // merge time, not where workers found them: the merge runs in DFS order
  // on one thread, so the event stream (kind, step, fields) is identical
  // for every worker count — only the timing channel varies.
  const auto note_violation = [&](Counterexample&& cex) {
    if (events) {
      obs::Event event;
      event.kind = "violation.found";
      event.step = result.violations.size();
      event.fields.emplace_back("violation", cex.violation);
      event.fields.emplace_back("decisions",
                                std::to_string(cex.decisions.size()));
      event.fields.emplace_back("faults", std::to_string(cex.fault_count()));
      event.fields.emplace_back("shrunk_from",
                                std::to_string(cex.shrunk_from));
      sink->emit(std::move(event));
    }
    result.violations.push_back(std::move(cex));
  };
  const auto cover_fault_points = [&](const std::set<FaultPoint>& points) {
    for (const FaultPoint& point : points) {
      if (!fault_points.insert(point).second) continue;
      if (events) {
        obs::Event event;
        event.kind = "coverage.fault_point";
        event.step = fault_points.size() - 1;
        event.fields.emplace_back("action", action_token(point.first));
        event.fields.emplace_back("victim_steps",
                                  std::to_string(point.second));
        sink->emit(std::move(event));
      }
    }
  };
  // Fold the whole unit, or only up to the first violation that meets the
  // stop rule — the tally recorded with it.
  const UnitTally* tally = &unit;
  std::size_t taken = unit.violations.size();
  bool cut = false;
  for (std::size_t i = 0; i < unit.violations.size(); ++i) {
    if (opts.stop_at_first_violation ||
        result.violations.size() + i + 1 >= opts.max_violations) {
      tally = &unit.tallies[i];
      taken = i + 1;
      cut = true;
      break;
    }
  }
  result.stats.merge_from(tally->stats);
  result.audit.merge_from(tally->audit);
  cover_fault_points(tally->fault_points);
  out.budget_limited |= tally->budget_limited;
  out.fault_limited |= tally->fault_limited;
  for (std::size_t i = 0; i < taken; ++i) {
    note_violation(std::move(unit.violations[i]));
  }
  if (cut) {
    out.stopped = true;
  } else if (unit.cap_hit) {
    out.cap_hit = true;
  }
  return cut || unit.cap_hit;
}

}  // namespace

/// Folds a pass's units into `result` in DFS order, reproducing the serial
/// explorer's stop rule exactly via merge_one.
MergeOutcome merge_pass(std::vector<UnitResult>& units,
                        const ExploreOptions& opts, ExploreResult& result,
                        std::set<FaultPoint>& fault_points) {
  MergeOutcome out;
  for (UnitResult& unit : units) {
    expects(!unit.skipped,
            "deterministic merge reached a unit skipped past the stop");
    if (merge_one(unit, opts, result, fault_points, out, opts.telemetry)) {
      break;
    }
  }
  return out;
}

namespace {

// ------------------------------------------------------- the pass engine

/// One unit of the stealing frontier: a contiguous segment of the pass's
/// DFS, owned by at most one worker at a time.  `frames`/`floor`/`result`
/// are the owner's last *published* snapshot (claim, split and checkpoint
/// boundaries); between publishes the owner works on private copies, so a
/// checkpoint taken from the snapshots simply re-explores anything past
/// them on resume — sound, because unit exploration is a pure function of
/// the frames.
struct StealUnit {
  enum class Status { kPending, kRunning, kComplete };
  std::vector<Frame> frames;
  std::size_t floor = 0;
  UnitResult result;
  Status status = Status::kPending;
  bool abort = false;  ///< deterministic stop confirmed before this unit ran
  bool stolen = false;  ///< unit was split off a victim (worker-beat steals)
};

/// Shared state of one stealing pass.  The std::list gives iterator-stable
/// DFS order: a split inserts the thief unit right after its victim, so at
/// every instant the list order IS the serial DFS order — which is what the
/// frontier walk, the checkpoint fold and the final merge all rely on.
struct StealPool {
  std::mutex mu;
  std::condition_variable cv;
  std::list<StealUnit> units;
  std::size_t idle = 0;     ///< workers blocked waiting for a pending unit
  std::size_t running = 0;  ///< units currently owned by a worker
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
  std::list<StealUnit>::iterator frontier;  ///< first non-merged-prefix unit
  std::size_t frontier_violations = 0;
};

/// Splits the victim's DFS at its shallowest splittable depth >= floor +
/// steal_depth: the thief takes the *rest of the victim's walk* — the
/// unexplored siblings at depth d plus every backtrack below, down to the
/// victim's old floor — while the victim keeps only its current depth-d
/// subtree (its floor rises to d+1).  Both halves stay contiguous DFS
/// segments with the victim's strictly first, so inserting the thief right
/// after the victim preserves global DFS order; a later, necessarily deeper
/// split inserts between them, which is again the DFS order.
bool try_split(PassState& pass, int steal_depth, StealUnit& thief) {
  const std::size_t base =
      pass.floor + static_cast<std::size_t>(std::max(steal_depth, 0));
  for (std::size_t d = base; d < pass.frames.size(); ++d) {
    Frame probe = pass.frames[d];
    probe.done.push_back(probe.chosen);
    probe.chosen = kNoChoice;
    const int next = select_choice(probe, pass);
    if (next == kNoChoice) continue;
    probe.chosen = next;
    thief.frames.assign(pass.frames.begin(),
                        pass.frames.begin() + static_cast<std::ptrdiff_t>(d));
    thief.frames.push_back(std::move(probe));
    thief.floor = pass.floor;
    thief.stolen = true;
    pass.floor = d + 1;
    return true;
  }
  return false;
}

CheckpointUnit serialize_steal_unit(const StealUnit& unit) {
  CheckpointUnit out;
  out.complete = unit.status == StealUnit::Status::kComplete;
  if (!out.complete) {
    out.frames.reserve(unit.frames.size());
    for (const Frame& frame : unit.frames) {
      // The key is recomputed by the resume replay; only the dirty
      // accumulator is persisted.
      out.frames.push_back({frame.chosen, frame.done, frame.fp_dirty});
    }
    out.floor = unit.floor;
  }
  out.result = unit.result;
  return out;
}

/// Re-materializes a persisted unit: its results restore as they are; the
/// frame stack replays its decisions on a fresh SimEnv, recomputing the
/// runnable sets, pending operations, bitmasks and sleep sets the artifact
/// deliberately does not store.  The replay doubles as an integrity check —
/// an artifact whose decisions do not apply to the system is rejected here.
StealUnit materialize_steal_unit(const ExplorableSystem& system,
                                 const PassState& base,
                                 const CheckpointUnit& cu) {
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
  Scratch scratch;
  for (const CheckpointFrame& cf : cu.frames) {
    env.parked_processes(scratch.runnable);
    expects(!scratch.runnable.empty(),
            "checkpoint frontier replays past quiescence");
    const Frame* parent = pass.frames.empty() ? nullptr : &pass.frames.back();
    Frame frame = make_frame(env, scratch, pass, parent);
    // No account_frame here: the persisted partial stats already charged
    // this frame when it was first materialized.  The cache key is a pure
    // function of the replayed state, so recomputing it (rather than
    // persisting it) keeps the artifact small and doubles as coverage of
    // the key's determinism; only the dirty accumulator needs restoring.
    if (pass.fp_prune) {
      compute_fp_key(*instance, env, frame);
      frame.fp_dirty = cf.fp_dirty;
    }
    frame.done = cf.done;
    expects(env.applicable(cf.chosen),
            "checkpoint frontier decision is not applicable on replay");
    frame.chosen = cf.chosen;
    env.apply(cf.chosen);
    pass.frames.push_back(std::move(frame));
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

}  // namespace

/// Runs one (budget pair) pass on the work-stealing engine.  The frontier
/// is a DFS-ordered list of units; idle workers raise the attention flag
/// and owners split their shallowest splittable frame off for them.  A
/// frontier walk over the complete-unit prefix confirms deterministic stops
/// as early as possible: everything past the stop is skipped or abandoned,
/// and the merge never reads it.  With checkpointing on, the
/// owner that observes a due checkpoint persists the folded prefix plus the
/// outstanding frontier snapshots.  `seeds` (non-null on the resumed pass)
/// re-materializes a persisted frontier instead of starting from the root.
/// `status` (non-null when a heartbeat file is on) gets a dedicated thread
/// that periodically overlays the pool's live counters on the merged-prefix
/// base and writes the bss-status artifact — read-only w.r.t. the pool.
StealPassOutput run_steal_pass(const ExplorableSystem& system,
                               const ExploreOptions& opts,
                               const PassConfig& cfg, SharedBudget& budget,
                               const std::vector<CheckpointUnit>* seeds,
                               CheckpointCtx* ckpt, StatusCtx* status) {
  StealPassOutput output;
  StealPool pool;
  if (seeds != nullptr) {
    for (const CheckpointUnit& cu : *seeds) {
      pool.units.push_back(materialize_steal_unit(system, cfg.base, cu));
    }
    if (pool.units.empty()) return output;
  } else {
    pool.units.emplace_back();  // the root unit: empty frames, floor 0
  }
  pool.frontier = pool.units.begin();
  pool.frontier_violations = cfg.violations_so_far;
  pool.last_checkpoint_at.store(
      budget.schedules.load(std::memory_order_relaxed),
      std::memory_order_relaxed);

  obs::ObsSink* sink = opts.telemetry;
  const bool events = sink != nullptr && sink->events_enabled();
  const bool spans = sink != nullptr && sink->timeline_enabled();
  const std::size_t quota =
      opts.max_violations > cfg.violations_so_far
          ? opts.max_violations - cfg.violations_so_far
          : 1;
  const int steal_depth = std::max(opts.steal_depth, 0);
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

  const auto walk_frontier = [&] {  // pool.mu held
    if (pool.stop_confirmed) return;
    while (pool.frontier != pool.units.end() &&
           pool.frontier->status == StealUnit::Status::kComplete) {
      const UnitResult& unit = pool.frontier->result;
      bool stops = unit.cap_hit;
      if (!unit.skipped) {
        for (std::size_t i = 0; i < unit.violations.size() && !stops; ++i) {
          ++pool.frontier_violations;
          if (opts.stop_at_first_violation ||
              pool.frontier_violations >= opts.max_violations) {
            stops = true;
          }
        }
      }
      ++pool.frontier;
      if (stops) {
        // The merge provably ends at this unit: everything after it is
        // discarded work.  Pending units are skipped outright; running
        // owners are told to abandon theirs.
        pool.stop_confirmed = true;
        for (auto it = pool.frontier; it != pool.units.end(); ++it) {
          if (it->status == StealUnit::Status::kPending) {
            it->status = StealUnit::Status::kComplete;
            it->result = UnitResult{};
            it->result.skipped = true;
            it->frames.clear();
          } else if (it->status == StealUnit::Status::kRunning) {
            it->abort = true;
          }
        }
        refresh_attention();
        pool.cv.notify_all();
        break;
      }
    }
  };

  /// Persists the campaign state (pool.mu held).  The completed-unit prefix
  /// is folded the way merge_pass will fold it — on copies, silently — so
  /// the snapshot is exactly the merged result of a serial campaign that
  /// got this far; the rest of the frontier is serialized as outstanding
  /// work.
  const auto write_checkpoint = [&](const ObsCtx& octx) {
    const obs::ScopedPhase checkpoint_scope(octx.profiler,
                                            obs::Phase::kCheckpointWrite);
    Checkpoint cp;
    cp.seq = ckpt->seq++;
    cp.system = system.name();
    cp.processes = system.process_count();
    cp.options = opts;
    cp.pass_ordinal = ckpt->pass_ordinal;
    cp.fault_index = ckpt->fault_index;
    cp.preemption_index = ckpt->preemption_index;
    cp.cap_hit = ckpt->cap_hit;
    cp.stopped = ckpt->stopped;
    cp.last_pass_budget_limited = ckpt->last_pass_budget_limited;
    ExploreResult folded;
    folded.stats = ckpt->merged->stats;
    folded.audit = ckpt->merged->audit;
    folded.violations = ckpt->merged->violations;
    cp.fault_points = *ckpt->covered;
    MergeOutcome fold;
    fold.budget_limited = ckpt->restored_budget_limited;
    fold.fault_limited = ckpt->restored_fault_limited;
    if (ckpt->restored_partials != nullptr) {
      cp.fp_partials = *ckpt->restored_partials;
    }
    bool prefix_stopped = false;
    auto it = pool.units.begin();
    while (it != pool.units.end() &&
           it->status == StealUnit::Status::kComplete &&
           !it->result.skipped) {
      UnitResult copy = it->result;
      const bool ends =
          merge_one(copy, opts, folded, cp.fault_points, fold, nullptr);
      cp.fp_partials.insert(cp.fp_partials.end(), it->result.fp_partials.begin(),
                            it->result.fp_partials.end());
      ++it;
      if (ends) {
        prefix_stopped = true;
        break;
      }
    }
    cp.stopped |= fold.stopped;
    cp.cap_hit |= fold.cap_hit;
    cp.pass_budget_limited = fold.budget_limited;
    cp.pass_fault_limited = fold.fault_limited;
    folded.stats.fault_points = cp.fault_points.size();
    cp.stats = folded.stats;
    cp.audit = folded.audit;
    cp.violations = std::move(folded.violations);
    if (!prefix_stopped) {
      for (; it != pool.units.end(); ++it) {
        cp.frontier.push_back(serialize_steal_unit(*it));
      }
    }
    if (ckpt->fp_cache != nullptr) {
      // The frozen cache is what the in-progress pass is pruning against;
      // persisting it verbatim lets the resumed pass reproduce every
      // pruning decision bit-for-bit.
      cp.fp_cache = *ckpt->fp_cache;
    }
    expects(write_checkpoint_file(opts.checkpoint_path, cp.to_artifact()),
            "failed to write checkpoint artifact: " + opts.checkpoint_path);
    ++ckpt->written;
    ++ckpt->periodic;
    if (status != nullptr) status->writer.note_checkpoint();
    pool.last_checkpoint_at.store(
        budget.schedules.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    if (octx.shard != nullptr) ++octx.shard->counter("explore.checkpoints");
    if (events) {
      obs::Event event;
      event.kind = "worker.checkpoint";
      event.step = cp.seq;
      event.worker = octx.worker;
      event.fields.emplace_back("frontier", std::to_string(cp.frontier.size()));
      event.fields.emplace_back("schedules",
                                std::to_string(cp.stats.schedules));
      sink->emit(std::move(event));
    }
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
    write_checkpoint(octx);
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
      const ObsCtx octx = make_obs_ctx(sink, worker_index);
      WorkerBeat* const beat =
          beats != nullptr ? &beats[worker_index] : nullptr;
      if (events) {
        obs::Event event;
        event.kind = "worker.start";
        event.worker = worker_index;
        sink->emit(std::move(event));
      }
      std::uint64_t claims = 0;
      bool halted = false;
      Scratch scratch;
      while (!halted) {
        auto self = pool.units.end();
        PassState pass = cfg.base;
        UnitResult local;
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
          local = self->result;
          if (beat != nullptr) {
            beat->state.store(WorkerBeat::kRunning, std::memory_order_relaxed);
            if (self->stolen) {
              beat->steals.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        if (events) {
          obs::Event event;
          event.kind = "worker.claim";
          event.step = claims;
          event.worker = worker_index;
          event.fields.emplace_back("depth",
                                    std::to_string(pass.frames.size()));
          event.fields.emplace_back("floor", std::to_string(pass.floor));
          sink->emit(std::move(event));
        }
        ++claims;
        // The metrics baseline: results the unit already carried (non-empty
        // only for units restored from a checkpoint).
        const UnitResult at_claim =
            octx.shard != nullptr ? local : UnitResult{};
        const std::uint64_t unit_begin = spans ? sink->now_ns() : 0;
        RunMetrics run_metrics(octx.shard);
        bool aborted = false;
        for (;;) {
          if (pool.attention.load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> lock(pool.mu);
            if (pool.abort_all || pool.halt) {
              halted = true;
            } else if (self->abort) {
              aborted = true;
            } else {
              std::size_t splits = 0;
              while (splits < pool.idle) {
                StealUnit thief;
                if (!try_split(pass, steal_depth, thief)) break;
                pool.units.insert(std::next(self), std::move(thief));
                ++splits;
                if (octx.shard != nullptr) {
                  ++octx.shard->counter("explore.steals");
                }
                if (events) {
                  obs::Event event;
                  event.kind = "worker.steal";
                  event.step = pass.floor;  // victim floor == split depth + 1
                  event.worker = worker_index;
                  sink->emit(std::move(event));
                }
                pool.cv.notify_one();
              }
              // Publish the snapshot other threads read: splits moved the
              // floor, and the checkpoint writer serializes running units
              // from exactly these fields.
              self->frames = pass.frames;
              self->floor = pass.floor;
              self->result = local;
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
                local, build_counterexample(system, opts, std::move(outcome),
                                            local.stats));
            if (opts.stop_at_first_violation ||
                local.violations.size() >= quota) {
              local.stopped = true;
              break;
            }
          }
          if (!advance(pass, local, scratch)) {
            // Normal drain: emit the below-floor prefix frames' coverage
            // partials.  The halted/aborted/cap/stopped breaks above emit
            // nothing — each either abandons the unit's results wholesale
            // or ends the campaign, and explore() discards all partials of
            // an ended pass.
            emit_open_frames(pass, local);
            break;
          }
        }
        publish_unit_metrics(octx.shard, at_claim, local);
        if (halted) break;  // unit stays kRunning; the halt abandons the pass
        {
          std::lock_guard<std::mutex> lock(pool.mu);
          --pool.running;
          aborted = aborted || self->abort;
          self->frames.clear();
          self->floor = 0;
          if (aborted) {
            self->result = UnitResult{};
            self->result.skipped = true;
          } else {
            self->result = std::move(local);
          }
          self->status = StealUnit::Status::kComplete;
          walk_frontier();
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
          span.end_ns = sink->now_ns();
          span.args.emplace_back(
              "schedules", std::to_string(self->result.stats.schedules));
          sink->record_span(std::move(span));
        }
      }
      if (beat != nullptr) {
        beat->state.store(WorkerBeat::kIdle, std::memory_order_relaxed);
      }
      if (events) {
        obs::Event event;
        event.kind = "worker.finish";
        event.step = claims;
        event.worker = worker_index;
        sink->emit(std::move(event));
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
    std::lock_guard<std::mutex> lock(pool.mu);
    walk_frontier();  // a restored frontier may already confirm a stop
  }

  // The heartbeat thread: overlays the pool's live counters on the merged
  // prefix and writes the status file whenever the cadence is due.  It only
  // ever reads pool state (under pool.mu) and worker beats (relaxed), so it
  // cannot perturb the exploration — kill it and the campaign is identical.
  std::mutex status_mu;
  std::condition_variable status_cv;
  bool status_stop = false;
  const auto build_status = [&] {
    obs::Status s = status->snapshot("running");
    s.schedules = budget.schedules.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      s.violations = pool.frontier_violations;
      std::uint64_t frontier = 0;
      std::uint64_t prunes = status->merged->stats.fingerprint_prunes;
      for (const StealUnit& unit : pool.units) {
        if (unit.status != StealUnit::Status::kComplete) ++frontier;
        prunes += unit.result.stats.fingerprint_prunes;
      }
      s.frontier = frontier;
      s.fingerprint_prunes = prunes;
      s.checkpoints = status->ckpt != nullptr ? status->ckpt->written : 0;
    }
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

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nworkers - 1));
  for (int i = 1; i < nworkers; ++i) {
    threads.emplace_back(worker, i);
  }
  worker(0);  // the calling thread is worker 0
  for (auto& t : threads) t.join();
  if (status_on) {
    {
      std::lock_guard<std::mutex> lock(status_mu);
      status_stop = true;
    }
    status_cv.notify_all();
    status_thread.join();
  }
  if (pool.error) std::rethrow_exception(pool.error);
  if (pool.halt) {
    output.halted = true;
    return output;
  }
  for (auto& unit : pool.units) {
    expects(unit.status == StealUnit::Status::kComplete,
            "stealing pass ended with an incomplete unit");
    output.units.push_back(std::move(unit.result));
  }
  return output;
}

}  // namespace bss::explore::detail
