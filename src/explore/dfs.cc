// The DFS core: one node per decision, choice selection under the
// preemption/fault budgets and sleep sets, prune accounting, the
// visited-state cache key, and run_one — the replay-then-extend loop every
// worker runs once per schedule.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/commute_check.h"
#include "audit/ledger.h"
#include "explore/engine.h"
#include "util/checked.h"

namespace bss::explore {

bool ops_commute(const sim::OpDesc& a, const sim::OpDesc& b) {
  if (a.object != b.object) return true;
  // Anything that is not a plain read (write, cas, ll, sc, …) may change the
  // object or its hidden state (LL links), so it conflicts with every other
  // access to the same object.
  return a.op == "read" && b.op == "read";
}

namespace detail {
namespace {

constexpr std::uint64_t pid_bit(int pid) {
  return std::uint64_t{1} << static_cast<unsigned>(pid);
}

// ------------------------------------------------- visited-state cache keys
//
// The fingerprint-prune cache (ExploreOptions::fingerprint_prune) keys every
// DFS node on a 128-bit hash of the instance fingerprint plus the
// scheduler-visible SimEnv state.  The preemption/fault counters spent on
// the way to a node are deliberately EXCLUDED: a node cleanly covered at one
// budget is covered at every budget (clean == no budget ever cut below), so
// cross-budget cache hits are exactly the point of the iterative sweep.

/// 128-bit state key: two FNV-1a-64 streams over the same bytes, the second
/// perturbed (different offset basis, bytes xor'd) so the pair behaves like
/// independent hashes.  Collision soundness is validated empirically by the
/// mutant sweep (a colliding prune on a mutant would lose its refutation).
struct FpHash {
  std::uint64_t h1 = 14695981039346656037ULL;
  std::uint64_t h2 = 0x6c62272e07bb0142ULL;
  void byte(unsigned char b) {
    h1 = (h1 ^ b) * 1099511628211ULL;
    h2 = (h2 ^ static_cast<unsigned char>(b ^ 0xa5U)) * 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v & 0xffU));
      v >>= 8U;
    }
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

bool contains(const std::vector<int>& values, int value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

const std::vector<std::uint64_t>& depth_bounds() {
  static const std::vector<std::uint64_t> bounds = obs::pow2_bounds(16);
  return bounds;
}

/// Granting away from the most recently granted (still-runnable) process
/// costs one preemption.  Fault actions are not grants: a crash/restart of
/// another process does not preempt the running one.
int choice_cost(const Frame& frame, int grant_pid) {
  if (frame.prev_grant < 0 || grant_pid == frame.prev_grant) return 0;
  return contains(frame.runnable, frame.prev_grant) ? 1 : 0;
}

bool grant_feasible(const Frame& frame, int pid, const PassState& pass) {
  if (contains(frame.done, pid)) return false;
  if (pass.use_por && contains(frame.entry_sleep, pid)) return false;
  if (pass.budget >= 0 &&
      frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
    return false;
  }
  return true;
}

}  // namespace

ObsCtx make_obs_ctx(obs::ObsSink* sink, int worker) {
  ObsCtx octx;
  octx.sink = sink;
  octx.shard = sink != nullptr ? sink->metric_shard(worker) : nullptr;
  octx.worker = worker;
  octx.profiler = sink != nullptr ? sink->profiler() : nullptr;
  return octx;
}

void RunMetrics::note_pruned() {
  if (shard_ == nullptr) return;
  if (pruned_runs_ == nullptr) {
    pruned_runs_ = &shard_->counter("explore.pruned_runs");
  }
  ++*pruned_runs_;
}

void RunMetrics::note_depth(std::uint64_t granted) {
  if (shard_ == nullptr) return;
  if (schedule_depth_ == nullptr) {
    schedule_depth_ =
        &shard_->histogram("explore.schedule_depth", depth_bounds());
  }
  schedule_depth_->observe(granted);
}

/// First unexplored, feasible choice at `frame`: grants first (continuing
/// prev_grant is free, then ascending pid order), then — fault budget
/// permitting — spurious-SC, crash and restart injections in pid order.
/// Sleep sets apply to plain grants only: a spurious-failing SC has a
/// different effect than the explored grant, so it never sleeps.
int select_choice(const Frame& frame, const PassState& pass) {
  if (contains(frame.runnable, frame.prev_grant) &&
      grant_feasible(frame, frame.prev_grant, pass)) {
    return frame.prev_grant;
  }
  for (const int pid : frame.runnable) {
    if (pid == frame.prev_grant) continue;
    if (grant_feasible(frame, pid, pass)) return pid;
  }
  if (pass.fault_budget > 0 && frame.faults_before < pass.fault_budget) {
    if (pass.explore_sc) {
      for (const int pid : frame.runnable) {
        if ((frame.sc_ready & pid_bit(pid)) == 0) continue;
        if ((frame.sc_failed_before & pid_bit(pid)) != 0) continue;
        const int choice = sim::encode_action(sim::ActionKind::kScFailure, pid);
        if (contains(frame.done, choice)) continue;
        // A spurious SC still performs the (failing) operation, so the
        // preemption cost of granting `pid` applies.
        if (pass.budget >= 0 &&
            frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
          continue;
        }
        return choice;
      }
    }
    if (pass.explore_crashes) {
      for (const int pid : frame.runnable) {
        const int choice = sim::encode_action(sim::ActionKind::kCrash, pid);
        if (!contains(frame.done, choice)) return choice;
      }
    }
    if (pass.explore_restarts) {
      for (const int pid : frame.runnable) {
        if ((frame.restartable & pid_bit(pid)) == 0) continue;
        const int choice = sim::encode_action(sim::ActionKind::kRestart, pid);
        if (!contains(frame.done, choice)) return choice;
      }
    }
  }
  return kNoChoice;
}

namespace {

/// Pulls a recycled frame from the arena (or default-constructs one): all
/// fields reset, vector/string capacities preserved.
Frame take_frame(Scratch& scratch) {
  if (scratch.spare.empty()) return Frame{};
  Frame frame = std::move(scratch.spare.back());
  scratch.spare.pop_back();
  frame.runnable.clear();
  frame.restartable = 0;
  frame.sc_ready = 0;
  frame.sc_failed_before = 0;
  frame.entry_sleep.clear();
  frame.done.clear();
  frame.chosen = kNoChoice;
  frame.prev_grant = -1;
  frame.preemptions_before = 0;
  frame.faults_before = 0;
  frame.fp_lo = 0;
  frame.fp_hi = 0;
  frame.fp_valid = false;
  frame.fp_dirty = false;
  return frame;
}

}  // namespace

/// Materializes the frontier node reached after `parent` took its chosen
/// action (parent == nullptr at the root).  Consumes `scratch.runnable` (by
/// swap, so its capacity returns to the buffer pool with the frame).
Frame make_frame(const sim::SimEnv& env, Scratch& scratch,
                 const PassState& pass, const Frame* parent) {
  Frame frame = take_frame(scratch);
  frame.runnable.swap(scratch.runnable);
  frame.pending.resize(static_cast<std::size_t>(env.process_count()));
  for (const int pid : frame.runnable) {
    frame.pending[static_cast<std::size_t>(pid)] = env.pending_of(pid);
    if (env.restart_supported(pid)) frame.restartable |= pid_bit(pid);
    if (frame.pending[static_cast<std::size_t>(pid)].op == "sc") {
      frame.sc_ready |= pid_bit(pid);
    }
  }
  if (parent == nullptr) return frame;

  const sim::Action parent_action = sim::decode_action(parent->chosen);
  frame.sc_failed_before = parent->sc_failed_before;
  if (parent_action.kind == sim::ActionKind::kScFailure) {
    frame.sc_failed_before |= pid_bit(parent_action.pid);
  }
  frame.faults_before =
      parent->faults_before + (sim::is_fault_action(parent->chosen) ? 1 : 0);
  if (sim::grants_step(parent->chosen)) {
    frame.prev_grant = parent_action.pid;
    frame.preemptions_before =
        parent->preemptions_before + choice_cost(*parent, parent_action.pid);
    if (pass.use_por) {
      // Sleep-set propagation: everything asleep at the parent (inherited
      // or explored there) stays asleep iff it commutes with the operation
      // the parent's choice just performed.  Only plain grants in the
      // parent's done set count — fault siblings are not operations.
      const auto& parent_op =
          parent->pending[static_cast<std::size_t>(parent_action.pid)];
      const auto inherit = [&](int pid) {
        if (pid == parent_action.pid) return;
        if (ops_commute(parent->pending[static_cast<std::size_t>(pid)],
                        parent_op)) {
          frame.entry_sleep.push_back(pid);
        }
      };
      for (const int pid : parent->entry_sleep) inherit(pid);
      for (const int choice : parent->done) {
        if (!sim::is_fault_action(choice)) inherit(choice);
      }
      std::sort(frame.entry_sleep.begin(), frame.entry_sleep.end());
    }
  } else {
    // Crash/restart: not a shared-memory operation, so the commutation
    // bookkeeping does not extend across it — start this node with an empty
    // sleep set (sound: strictly less pruning).  Continuing the previously
    // granted process after an unrelated fault is still free.
    frame.prev_grant = parent->prev_grant;
    frame.preemptions_before = parent->preemptions_before;
  }
  return frame;
}

namespace {

/// Accounts the branches the filters cut at a freshly materialized node
/// (all filters are functions of the frame alone, so counting once at
/// creation is exact).  Returns true iff a *budget* filter (preemption or
/// fault) cut anything — the fingerprint cache treats that as incomplete
/// coverage of the node's subtree.  Sleep-set prunes do NOT count: POR
/// pruning is soundness-preserving, so a sleep-pruned subtree is still
/// fully covered by proxy.
bool account_frame(const Frame& frame, const PassState& pass,
                   UnitResult& unit) {
  bool cut_any = false;
  for (const int pid : frame.runnable) {
    if (pass.use_por && contains(frame.entry_sleep, pid)) {
      ++unit.stats.sleep_set_prunes;
      continue;
    }
    if (pass.budget >= 0 &&
        frame.preemptions_before + choice_cost(frame, pid) > pass.budget) {
      ++unit.stats.preemption_prunes;
      unit.budget_limited = true;
      cut_any = true;
    }
  }
  // Note: this must also count at fault_budget == 0 (where every fault
  // choice is cut) — the iterative sweep keys "deepen the fault budget?"
  // off fault_limited.
  const bool faults_enabled =
      pass.explore_crashes || pass.explore_restarts || pass.explore_sc;
  if (faults_enabled && frame.faults_before >= pass.fault_budget) {
    std::uint64_t cut = 0;
    if (pass.explore_crashes) cut += frame.runnable.size();
    for (const int pid : frame.runnable) {
      if (pass.explore_restarts && (frame.restartable & pid_bit(pid)) != 0) {
        ++cut;
      }
      if (pass.explore_sc && (frame.sc_ready & pid_bit(pid)) != 0 &&
          (frame.sc_failed_before & pid_bit(pid)) == 0) {
        ++cut;
      }
    }
    if (cut > 0) {
      unit.stats.fault_prunes += cut;
      unit.fault_limited = true;
      cut_any = true;
    }
  }
  return cut_any;
}

/// Marks every open frame's coverage accumulator dirty.  Called whenever
/// the current run hits something that leaves subtree coverage incomplete —
/// a budget/fault cut, a depth truncation, or a violation — because under
/// DFS all execution happens inside every open frame's subtree, so the
/// event taints all of them.  Frames pushed later (after the event) start
/// clean again: the event is not in *their* subtree.
void mark_path_dirty(PassState& pass) {
  for (Frame& frame : pass.frames) frame.fp_dirty = true;
}

}  // namespace

/// Computes the visited-state cache key for a freshly materialized frame:
/// a 128-bit hash over the system's semantic fingerprint plus every piece
/// of scheduler-visible env state that influences future exploration from
/// this node (virtual clock, per-pid step counts, parked/pending ops,
/// restartability, SC arming).  Budget positions (preemptions_before,
/// faults_before, prev_grant) are deliberately EXCLUDED — a state first
/// reached under a tight budget and revisited with slack is the same
/// state, and cross-budget hits are where the cache pays.  The sleep set
/// IS included: two visits with different sleep sets cover different
/// subtrees, so conflating them would under-explore.
///
/// Returns false (frame.fp_valid stays false) when the system opts out via
/// the empty default fingerprint — without semantic state the env-only key
/// would alias distinct states.
bool compute_fp_key(SystemInstance& instance, const sim::SimEnv& env,
                    Frame& frame) {
  const std::string fp = instance.fingerprint(env);
  if (fp.empty()) return false;
  FpHash hash;
  hash.str(fp);
  hash.u64(static_cast<std::uint64_t>(env.virtual_now()));
  const int n = env.process_count();
  hash.u64(static_cast<std::uint64_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    const bool parked = env.is_parked(pid);
    hash.byte(parked ? 1 : 0);
    hash.u64(env.steps_of(pid));
    if (parked) {
      const sim::OpDesc& op = frame.pending[static_cast<std::size_t>(pid)];
      hash.str(op.object);
      hash.str(op.op);
      hash.u64(static_cast<std::uint64_t>(op.arg0));
      hash.u64(static_cast<std::uint64_t>(op.arg1));
    }
  }
  hash.u64(frame.restartable);
  hash.u64(frame.sc_ready);
  hash.u64(frame.sc_failed_before);
  hash.u64(static_cast<std::uint64_t>(frame.entry_sleep.size()));
  for (const int pid : frame.entry_sleep) {
    hash.u64(static_cast<std::uint64_t>(pid));
  }
  frame.fp_lo = hash.h1;
  frame.fp_hi = hash.h2;
  frame.fp_valid = true;
  return true;
}

/// Backtracks to the deepest node above the subtree floor with an
/// unexplored sibling; returns false when the whole space (at this budget
/// pair, within this subtree) is done.  A frame popped here has finished
/// its whole subtree segment within this unit, so its coverage partial
/// {key, dirty} is emitted before the frame recycles into the arena.
bool advance(PassState& pass, UnitResult& unit, Scratch& scratch) {
  auto& frames = pass.frames;
  while (frames.size() > pass.floor) {
    Frame& frame = frames.back();
    frame.done.push_back(frame.chosen);
    frame.chosen = kNoChoice;
    const int next = select_choice(frame, pass);
    if (next != kNoChoice) {
      frame.chosen = next;
      return true;
    }
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
    scratch.spare.push_back(std::move(frames.back()));
    frames.pop_back();
  }
  return false;
}

/// Emits coverage partials for the frames still open when a unit drains
/// normally (the below-floor prefix frames advance() never pops).  Their
/// dirty bits carry whatever this unit's segment of the subtree saw; the
/// per-key OR across all of a pass's units reassembles total subtree dirt
/// no matter how steal splits divided the work.
void emit_open_frames(const PassState& pass, UnitResult& unit) {
  for (const Frame& frame : pass.frames) {
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
  }
}

namespace {

/// Worker-count-independent schedule sampling for the commutation
/// cross-check: FNV-1a over the canonical decision tape, so the same
/// schedules are selected no matter how the pass was split or merged.
bool commute_sampled(const std::vector<int>& tape, std::uint32_t sample) {
  if (sample == 0) return false;
  if (sample == 1) return true;
  std::uint64_t hash = 1469598103934665603ULL;
  for (const int decision : tape) {
    hash ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(decision));
    hash *= 1099511628211ULL;
  }
  return hash % sample == 0;
}

}  // namespace

/// Executes one run: replays the frame-stack prefix, then extends it one
/// decision at a time until the run completes or is pruned.
///
/// Frame-creation accounting (prune counters, budget/fault-limited flags)
/// commits to `unit` as each fresh frame is made: the run that first
/// descends a path accounts its frames.  Execution deltas (transitions,
/// faults, fault points, audit counters) commit once, when the run ends.
RunOutcome run_one(const ExplorableSystem& system, const ExploreOptions& opts,
                   PassState& pass, UnitResult& unit, const ObsCtx& octx,
                   RunMetrics& metrics, Scratch& scratch) {
  const obs::ScopedPhase step_scope(octx.profiler, obs::Phase::kStep);
  RunOutcome outcome;
  std::uint64_t run_transitions = 0;
  std::uint64_t run_timer_grants = 0;
  std::uint64_t run_faults = 0;
  std::vector<FaultPoint>& run_fault_points = scratch.fault_points;
  run_fault_points.clear();
  std::optional<audit::Auditor> auditor;
  if (opts.audit) auditor.emplace();
  const auto commit = [&] {
    unit.stats.transitions += run_transitions;
    unit.stats.timer_grants += run_timer_grants;
    unit.stats.faults_injected += run_faults;
    unit.fault_points.insert(run_fault_points.begin(), run_fault_points.end());
    if (auditor.has_value()) {
      unit.audit.windows += auditor->windows();
      unit.audit.accesses += auditor->accesses();
      unit.audit.ledger_violations += auditor->violation_count();
    }
  };
  auto instance = system.make();
  sim::SimEnv env({.record_trace = opts.record_trace});
  instance->populate(env);
  expects(env.process_count() <= 64,
          "the fault-aware explorer supports at most 64 processes");
  if (auditor.has_value()) env.set_access_observer(&*auditor);
  env.start();

  std::vector<int>& actions = scratch.actions;
  actions.clear();
  std::size_t depth = 0;
  std::uint64_t granted = 0;
  bool truncated = false;
  for (;;) {
    env.parked_processes(scratch.runnable);
    if (scratch.runnable.empty()) break;
    if (granted >= opts.max_depth) {
      truncated = true;
      break;
    }
    int choice = kNoChoice;
    if (depth < pass.frames.size()) {
      // Prefix replay: the factory is deterministic, so the runnable set
      // must match what the previous run recorded here.
      const Frame& frame = pass.frames[depth];
      if (frame.runnable != scratch.runnable) {
        throw std::logic_error(
            "schedule exploration diverged on prefix replay: the system "
            "factory is nondeterministic");
      }
      choice = frame.chosen;
    } else {
      const Frame* parent = depth > 0 ? &pass.frames[depth - 1] : nullptr;
      Frame frame = make_frame(env, scratch, pass, parent);
      if (pass.fp_prune && compute_fp_key(*instance, env, frame) &&
          pass.fp_cache != nullptr &&
          pass.fp_cache->count({frame.fp_lo, frame.fp_hi}) != 0) {
        // Visited-state hit against the frozen cache: an earlier pass
        // covered this node's full unbounded subtree clean, so nothing
        // below it can change stats, coverage, or violations.  The frame
        // is never pushed (its subtree is skipped wholesale) and its
        // siblings-at-this-node accounting never runs — matching what the
        // serial pruned explorer does, so parallel stays byte-identical.
        ++unit.stats.fingerprint_prunes;
        env.finish();
        commit();
        metrics.note_pruned();
        outcome.pruned = true;
        return outcome;
      }
      const bool cut = account_frame(frame, pass, unit);
      if (pass.fp_prune && cut) {
        // A budget/fault filter cut siblings here: this node's subtree is
        // incompletely covered, which taints it and every open ancestor.
        mark_path_dirty(pass);
        frame.fp_dirty = true;
      }
      choice = select_choice(frame, pass);
      if (choice == kNoChoice) {
        env.finish();
        commit();
        metrics.note_pruned();
        outcome.pruned = true;  // prune kinds were accounted above
        return outcome;
      }
      frame.chosen = choice;
      pass.frames.push_back(std::move(frame));
    }
    ++depth;

    const sim::Action action = sim::decode_action(choice);
    if (sim::is_fault_action(choice)) {
      ++run_faults;
      run_fault_points.emplace_back(choice, env.steps_of(action.pid));
    } else if (env.pending_of(action.pid).op == "timer") {
      ++run_timer_grants;
    }
    if (env.apply(choice)) {
      ++granted;
      ++run_transitions;
    }
    actions.push_back(choice);
  }
  env.finish();
  commit();

  ++unit.stats.schedules;
  unit.stats.max_depth_seen = std::max(unit.stats.max_depth_seen, granted);
  metrics.note_depth(granted);
  if (truncated) {
    ++unit.stats.truncated;
    outcome.truncated = true;
    // The depth valve cut this run short: everything on the path is
    // incompletely covered.
    if (pass.fp_prune) mark_path_dirty(pass);
    return outcome;
  }
  const sim::RunReport report = env.snapshot_report();
  outcome.violation = instance->check(env, report);
  if (!outcome.violation.has_value() && auditor.has_value() &&
      !auditor->clean()) {
    // Ledger / footprint violations become ordinary counterexamples (so
    // they minimize and serialize like property violations), but only when
    // the property check is clean — real violations take precedence.
    outcome.violation = auditor->summary();
    for (const auto& violation : auditor->violations()) {
      unit.audit.note(violation.to_string());
    }
  }
  if (outcome.violation.has_value()) {
    // A violating path must never enter the cache clean: pruning it in a
    // later pass would suppress re-finding the violation.
    if (pass.fp_prune) mark_path_dirty(pass);
    outcome.decisions = std::move(actions);
  } else if (auditor.has_value() &&
             commute_sampled(actions, opts.audit_commute_sample)) {
    // Differential cross-check of the POR commutation oracle: replay this
    // schedule with adjacent independent operations swapped; any deviation
    // in the final state refutes ops_commute (and with it the sleep sets).
    const obs::ScopedPhase audit_scope(octx.profiler, obs::Phase::kAudit);
    const audit::CommuteCheckReport cross = audit::cross_check_commutation(
        system, actions, [](const sim::OpDesc& a, const sim::OpDesc& b) {
          return ops_commute(a, b);
        });
    ++unit.audit.schedules_cross_checked;
    unit.audit.pairs_considered += cross.pairs_considered;
    unit.audit.swaps_replayed += cross.swaps_replayed;
    unit.audit.commute_mismatches += cross.mismatches.size();
    for (const auto& mismatch : cross.mismatches) {
      unit.audit.note("commute mismatch: " + mismatch.detail);
    }
    if (octx.sink != nullptr && octx.sink->events_enabled()) {
      obs::Event event;
      event.kind = "audit.cross_check";
      event.step = unit.audit.schedules_cross_checked;
      event.worker = octx.worker;
      event.fields.emplace_back("pairs",
                                std::to_string(cross.pairs_considered));
      event.fields.emplace_back("swaps", std::to_string(cross.swaps_replayed));
      event.fields.emplace_back("mismatches",
                                std::to_string(cross.mismatches.size()));
      octx.sink->emit(std::move(event));
    }
  }
  return outcome;
}

}  // namespace detail
}  // namespace bss::explore
