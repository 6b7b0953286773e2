// The DFS core: one node per decision, choice selection under the
// preemption/fault budgets and sleep sets, prune accounting, the
// visited-state cache key, and run_one — the replay-then-extend loop every
// worker runs once per schedule.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
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
  return a.op == sim::OpName("read") && b.op == sim::OpName("read");
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
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

/// Calls `visit(pid)` for each pid in `mask`, ascending.
template <class Visit>
void for_each_pid(std::uint64_t mask, Visit&& visit) {
  while (mask != 0) {
    visit(std::countr_zero(mask));
    mask &= mask - 1;
  }
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
  return (frame.runnable & pid_bit(frame.prev_grant)) != 0 ? 1 : 0;
}

bool within_budget(const Frame& frame, int pid, const PassState& pass) {
  return pass.budget < 0 ||
         frame.preemptions_before + choice_cost(frame, pid) <= pass.budget;
}

/// Visits the feasible choices at `frame` in the one fixed order until
/// `visit` returns true, and returns that choice (kNoChoice if none):
/// grants first (continuing prev_grant is free, then ascending pid order),
/// then — fault budget permitting — spurious-SC, crash and restart
/// injections, each in ascending pid order.  Sleep sets apply to plain
/// grants only: a spurious-failing SC has a different effect than the
/// explored grant, so it never sleeps; but it still performs the (failing)
/// operation, so it pays the grant's preemption cost.  Feasibility is a
/// function of the frame and the pass alone, so the order never changes
/// under a frame.
template <class Visit>
int find_choice(const Frame& frame, const PassState& pass, Visit&& visit) {
  int found = kNoChoice;
  const auto scan = [&](std::uint64_t pids, sim::ActionKind kind) {
    for (; found == kNoChoice && pids != 0; pids &= pids - 1) {
      const int pid = std::countr_zero(pids);
      const int choice = sim::encode_action(kind, pid);
      if ((!sim::grants_step(choice) || within_budget(frame, pid, pass)) &&
          visit(choice)) {
        found = choice;
      }
    }
  };
  const std::uint64_t grants =
      pass.use_por ? frame.runnable & ~frame.entry_sleep : frame.runnable;
  const std::uint64_t prev =
      frame.prev_grant >= 0 ? grants & pid_bit(frame.prev_grant) : 0;
  scan(prev, sim::ActionKind::kGrant);
  scan(grants & ~prev, sim::ActionKind::kGrant);
  if (pass.fault_budget > 0 && frame.faults_before < pass.fault_budget) {
    if (pass.explore_sc) {
      scan(frame.sc_ready & ~frame.sc_failed_before,
           sim::ActionKind::kScFailure);
    }
    if (pass.explore_crashes) scan(frame.runnable, sim::ActionKind::kCrash);
    if (pass.explore_restarts) {
      scan(frame.restartable, sim::ActionKind::kRestart);
    }
  }
  return found;
}

}  // namespace

ObsCtx make_obs_ctx(obs::Telemetry* telemetry, int worker) {
  if (telemetry == nullptr) return {};
  return {telemetry->metric_shard(worker), telemetry->profiler()};
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

std::uint64_t parked_mask(const sim::SimEnv& env) {
  std::uint64_t mask = 0;
  for (int pid = 0; pid < env.process_count(); ++pid) {
    if (env.is_parked(pid)) mask |= pid_bit(pid);
  }
  return mask;
}

int next_choice(const Frame& frame, const PassState& pass, int after) {
  bool past = after == kNoChoice;
  return find_choice(frame, pass, [&](int choice) {
    if (past) return true;
    past = choice == after;
    return false;
  });
}

std::vector<int> explored_siblings(const Frame& frame,
                                   const PassState& pass) {
  std::vector<int> explored;
  find_choice(frame, pass, [&](int choice) {
    if (choice == frame.chosen) return true;
    explored.push_back(choice);
    return false;
  });
  return explored;
}

/// Sleep-set propagation: everything asleep at the parent (inherited or
/// explored there) stays asleep iff it commutes with the operation the
/// parent's choice performs.  Only plain grants explored before `chosen`
/// count — fault siblings are not operations.  A crash or restart is not a
/// shared-memory operation, so the commutation bookkeeping does not extend
/// across it: its child starts with an empty sleep set (sound: strictly
/// less pruning).
std::uint64_t child_sleep(const sim::SimEnv& env, const Frame& parent,
                          const PassState& pass) {
  if (!pass.use_por || !sim::grants_step(parent.chosen)) return 0;
  std::uint64_t asleep = parent.entry_sleep;
  find_choice(parent, pass, [&](int choice) {
    if (choice == parent.chosen) return true;
    if (!sim::is_fault_action(choice)) asleep |= pid_bit(choice);
    return false;
  });
  const int granted = sim::decode_action(parent.chosen).pid;
  const sim::OpDesc& granted_op = env.pending_of(granted);
  std::uint64_t sleep = 0;
  for_each_pid(asleep & ~pid_bit(granted), [&](int pid) {
    if (ops_commute(env.pending_of(pid), granted_op)) sleep |= pid_bit(pid);
  });
  return sleep;
}

/// Materializes the frontier node reached after `parent` took its chosen
/// action (parent == nullptr at the root).
Frame make_frame(const sim::SimEnv& env, std::uint64_t runnable,
                 const Frame* parent, std::uint64_t entry_sleep) {
  Frame frame;
  frame.runnable = runnable;
  for_each_pid(runnable, [&](int pid) {
    if (env.restart_supported(pid)) frame.restartable |= pid_bit(pid);
    if (env.pending_of(pid).op == sim::OpName("sc")) {
      frame.sc_ready |= pid_bit(pid);
    }
  });
  if (parent == nullptr) return frame;

  const sim::Action parent_action = sim::decode_action(parent->chosen);
  frame.sc_failed_before = parent->sc_failed_before;
  if (parent_action.kind == sim::ActionKind::kScFailure) {
    frame.sc_failed_before |= pid_bit(parent_action.pid);
  }
  frame.faults_before =
      parent->faults_before + (sim::is_fault_action(parent->chosen) ? 1 : 0);
  frame.entry_sleep = entry_sleep;
  if (sim::grants_step(parent->chosen)) {
    frame.prev_grant = parent_action.pid;
    frame.preemptions_before =
        parent->preemptions_before + choice_cost(*parent, parent_action.pid);
  } else {
    // Continuing the previously granted process after an unrelated crash
    // or restart is still free.
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
  for_each_pid(frame.runnable, [&](int pid) {
    if (pass.use_por && (frame.entry_sleep & pid_bit(pid)) != 0) {
      ++unit.stats.sleep_set_prunes;
    } else if (!within_budget(frame, pid, pass)) {
      ++unit.stats.preemption_prunes;
      unit.budget_limited = true;
      cut_any = true;
    }
  });
  // Note: this must also count at fault_budget == 0 (where every fault
  // choice is cut) — the iterative sweep keys "deepen the fault budget?"
  // off fault_limited.
  const bool faults_enabled =
      pass.explore_crashes || pass.explore_restarts || pass.explore_sc;
  if (faults_enabled && frame.faults_before >= pass.fault_budget) {
    std::uint64_t cut = 0;
    if (pass.explore_crashes) cut += std::popcount(frame.runnable);
    if (pass.explore_restarts) cut += std::popcount(frame.restartable);
    if (pass.explore_sc) {
      cut += std::popcount(frame.sc_ready & ~frame.sc_failed_before);
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
      const sim::OpDesc& op = env.pending_of(pid);
      hash.str(op.object.view());
      hash.str(op.op.view());
      hash.u64(static_cast<std::uint64_t>(op.arg0));
      hash.u64(static_cast<std::uint64_t>(op.arg1));
    }
  }
  hash.u64(frame.restartable);
  hash.u64(frame.sc_ready);
  hash.u64(frame.sc_failed_before);
  hash.u64(static_cast<std::uint64_t>(std::popcount(frame.entry_sleep)));
  for_each_pid(frame.entry_sleep, [&](int pid) {
    hash.u64(static_cast<std::uint64_t>(pid));
  });
  frame.fp_lo = hash.h1;
  frame.fp_hi = hash.h2;
  frame.fp_valid = true;
  return true;
}

/// Backtracks to the deepest node above the subtree floor with an
/// unexplored sibling; returns false when the whole space (at this budget
/// pair, within this subtree) is done.  A frame popped here has finished
/// its whole subtree segment within this unit, so its coverage partial
/// {key, dirty} is emitted before the frame is dropped.
bool advance(PassState& pass, UnitResult& unit) {
  auto& frames = pass.frames;
  while (frames.size() > pass.floor) {
    Frame& frame = frames.back();
    const int next = next_choice(frame, pass, frame.chosen);
    if (next != kNoChoice) {
      frame.chosen = next;
      return true;
    }
    if (frame.fp_valid) {
      unit.fp_partials.push_back({frame.fp_lo, frame.fp_hi, frame.fp_dirty});
    }
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
  std::uint64_t next_sleep = 0;  // entry sleep set of the next fresh frame
  for (;;) {
    const std::uint64_t runnable = parked_mask(env);
    if (runnable == 0) break;
    if (granted >= opts.max_depth) {
      truncated = true;
      break;
    }
    int choice = kNoChoice;
    if (depth < pass.frames.size()) {
      // Prefix replay: the factory is deterministic, so the runnable set
      // must match what the previous run recorded here.
      const Frame& frame = pass.frames[depth];
      if (frame.runnable != runnable) {
        throw std::logic_error(
            "schedule exploration diverged on prefix replay: the system "
            "factory is nondeterministic");
      }
      choice = frame.chosen;
    } else {
      const Frame* parent = depth > 0 ? &pass.frames[depth - 1] : nullptr;
      Frame frame = make_frame(env, runnable, parent, next_sleep);
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
      choice = next_choice(frame, pass, kNoChoice);
      if (choice == kNoChoice) {
        env.finish();
        commit();
        metrics.note_pruned();
        outcome.pruned = true;  // prune kinds were accounted above
        return outcome;
      }
      frame.chosen = choice;
      pass.frames.push_back(frame);
    }
    ++depth;
    // The next frame is fresh: its sleep set reads the operations pending
    // now, before this choice applies.
    if (depth == pass.frames.size()) {
      next_sleep = child_sleep(env, pass.frames.back(), pass);
    }

    const sim::Action action = sim::decode_action(choice);
    if (sim::is_fault_action(choice)) {
      ++run_faults;
      run_fault_points.emplace_back(choice, env.steps_of(action.pid));
    } else if (env.pending_of(action.pid).op == sim::OpName("timer")) {
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
    // Copied, not moved: the arena's tape keeps its capacity, so the next
    // run does not regrow it from empty.
    outcome.decisions = actions;
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
  }
  return outcome;
}

}  // namespace detail
}  // namespace bss::explore
