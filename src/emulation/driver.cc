#include "emulation/driver.h"

#include <algorithm>
#include <map>
#include <string>
#include <string_view>

#include "core/first_value_tree.h"
#include "util/checked.h"

namespace bss::emu {

namespace {

// ------------------------------------------------------------ vp adapters

/// The one emulated compare&swap object every v-process syncs on.
sim::ObjectName cas_object() {
  static const sim::ObjectName cas("cas");
  return cas;
}

/// The registers "<base>[i]" of one emulated array: each one's board key
/// and its interned object name, made on its first use, so an operation on
/// it builds no string and interns nothing.
class RegisterArray {
 public:
  struct Register {
    std::string key;
    sim::ObjectName object;
  };

  explicit RegisterArray(std::string_view base) : base_(base) {}

  const Register& at(std::uint64_t index) {
    auto [it, inserted] = registers_.try_emplace(index);
    if (inserted) {
      it->second.key = base_ + "[" + std::to_string(index) + "]";
      it->second.object = sim::ObjectName(it->second.key);
    }
    return it->second;
  }

 private:
  std::string base_;
  std::map<std::uint64_t, Register> registers_;
};

/// ElectionMemory implementation over the emulated world: reads/writes go to
/// the tagged Board; c&s results are injected by the driver.
class EmulatedElectionMemory {
 public:
  EmulatedElectionMemory(const VpHarness& harness, sim::Ctx& ctx)
      : harness_(harness), ctx_(&ctx) {}

  int k() const { return harness_.k; }

  int cas(int expect, int next) {
    ctx_->sync({cas_object(), "cas", expect, next});
    const std::int64_t result = ctx_->take_injection();
    ctx_->note_result(result);
    return checked_cast<int>(result);
  }

  int read_confirm(int stage) {
    const auto& reg = confirm_.at(static_cast<std::uint64_t>(stage));
    ctx_->sync({reg.object, "read", 0, 0});
    const int value = checked_cast<int>(
        harness_.board->read(reg.key, *harness_.current_label).value_or(0));
    ctx_->note_result(value);
    return value;
  }

  void write_confirm(int stage, int symbol) {
    const auto& reg = confirm_.at(static_cast<std::uint64_t>(stage));
    ctx_->sync({reg.object, "write", symbol, 0});
    harness_.board->write(reg.key, *harness_.current_label, symbol);
  }

  std::int64_t read_announce(std::uint64_t slot) {
    const auto& reg = announce_.at(slot);
    ctx_->sync({reg.object, "read", 0, 0});
    const std::int64_t value =
        harness_.board->read(reg.key, *harness_.current_label)
            .value_or(bss::core::kNoId);
    ctx_->note_result(value);
    return value;
  }

  void write_announce(std::uint64_t slot, std::int64_t id) {
    const auto& reg = announce_.at(slot);
    ctx_->sync({reg.object, "write", id, 0});
    harness_.board->write(reg.key, *harness_.current_label, id);
  }

 private:
  VpHarness harness_;
  sim::Ctx* ctx_;
  RegisterArray confirm_{"confirm"};
  RegisterArray announce_{"announce"};
};

static_assert(bss::core::ElectionMemory<EmulatedElectionMemory>);

}  // namespace

VpFactory fvt_vp_factory() {
  return [](int vp, const VpHarness& harness) {
    return [vp, harness](sim::Ctx& ctx) {
      EmulatedElectionMemory memory(harness, ctx);
      const auto outcome = bss::core::fvt_elect(
          memory, static_cast<std::uint64_t>(vp), 1000 + vp);
      (*harness.decisions)[static_cast<std::size_t>(vp)] = outcome.leader;
    };
  };
}

VpFactory token_race_factory(int rounds) {
  return [rounds](int vp, const VpHarness& harness) {
    return [vp, rounds, harness](sim::Ctx& ctx) {
      const int k = harness.k;
      RegisterArray race("race");
      const auto& reg = race.at(static_cast<std::uint64_t>(vp));
      for (int round = 0; round < rounds; ++round) {
        const int from = round % k;
        const int to = (round + 1) % k;
        ctx.sync({cas_object(), "cas", from, to});
        const std::int64_t seen = ctx.take_injection();
        ctx.note_result(seen);
        ctx.sync({reg.object, "write", seen, 0});
        harness.board->write(reg.key, *harness.current_label, seen);
      }
      (*harness.decisions)[static_cast<std::size_t>(vp)] = vp;
    };
  };
}

// --------------------------------------------------------------- the driver

EmulationDriver::EmulationDriver(EmuParams params, const VpFactory& factory)
    : params_(params), forest_(params.k) {
  expects(params_.m >= 1, "emulation needs emulators");
  expects(params_.vps_per_emulator >= 0, "negative vps per emulator");
  total_vps_ = params_.m * params_.vps_per_emulator;
  expects(total_vps_ >= 1, "emulation needs at least one v-process");
  vp_decisions_.resize(static_cast<std::size_t>(total_vps_));
  vp_suspended_.assign(static_cast<std::size_t>(total_vps_), false);

  VpHarness harness;
  harness.k = params_.k;
  harness.board = &board_;
  harness.current_label = &current_step_label_;
  harness.decisions = &vp_decisions_;
  for (int vp = 0; vp < total_vps_; ++vp) {
    env_.add_process(factory(vp, harness));
  }

  emulators_.resize(static_cast<std::size_t>(params_.m));
  int next_vp = 0;
  for (int id = 0; id < params_.m; ++id) {
    EmulatorState& emulator = emulators_[static_cast<std::size_t>(id)];
    emulator.id = id;
    for (int i = 0; i < params_.vps_per_emulator; ++i) {
      emulator.vps.push_back(next_vp++);
    }
  }
}

EmulationDriver::~EmulationDriver() { env_.finish(); }

bool EmulationDriver::vp_active(const EmulatorState&, int vp) const {
  return !vp_suspended_[static_cast<std::size_t>(vp)] && env_.is_parked(vp);
}

sim::TraceEvent EmulationDriver::step_vp(EmulatorState& emulator, int vp) {
  current_step_label_ = emulator.label;
  const sim::TraceEvent event = env_.step_process(vp);
  VpStep record;
  record.vp = vp;
  record.emulator = emulator.id;
  record.label = emulator.label;
  record.desc = event.desc;
  record.result = event.result;
  record.has_result = event.has_result;
  step_log_.push_back(std::move(record));
  ++stats_.vp_steps;
  // Surface algorithm-A invariant violations immediately: they mean the
  // emulated world handed A an impossible observation.
  if (env_.is_finished(vp) &&
      env_.outcome_of(vp) == sim::ProcOutcome::kFailed) {
    throw InvariantError("v-process " + std::to_string(vp) +
                         " failed inside algorithm A: " + env_.error_of(vp));
  }
  return event;
}

bool EmulationDriver::adopt_decision_if_any(EmulatorState& emulator) {
  if (emulator.decision.has_value()) return true;
  for (const int vp : emulator.vps) {
    if (env_.is_finished(vp) &&
        vp_decisions_[static_cast<std::size_t>(vp)].has_value()) {
      emulator.decision = vp_decisions_[static_cast<std::size_t>(vp)];
      return true;
    }
  }
  return false;
}

int EmulationDriver::count_successes(const Label& label, int from,
                                     int to) const {
  int count = 0;
  for (const auto& [success_label, success_from, success_to] : successes_) {
    if (success_from == from && success_to == to &&
        labels_compatible(success_label, label)) {
      ++count;
    }
  }
  return count;
}

ExcessGraph EmulationDriver::excess_for(const Label& label) const {
  ExcessGraph graph(params_.k);
  for (const Suspension& suspension : suspensions_) {
    if (!suspension.released &&
        labels_compatible(suspension.label, label)) {
      graph.add_weight(suspension.from, suspension.to, 1);
    }
  }
  const std::vector<int> history = forest_.compute_history(label);
  for (int from = 0; from < params_.k; ++from) {
    for (int to = 0; to < params_.k; ++to) {
      if (from == to) continue;
      const int demand = LabelForest::transition_count(history, from, to) -
                         count_successes(label, from, to);
      graph.add_weight(from, to, -demand);
    }
  }
  return graph;
}

bool EmulationDriver::can_rebalance(EmulatorState& emulator,
                                    const std::vector<int>& history) {
  for (Suspension& suspension : suspensions_) {
    if (suspension.released || suspension.emulator != emulator.id) continue;
    if (!labels_compatible(suspension.label, emulator.label)) continue;
    // Transitions that appeared after this suspension.
    int after = 0;
    for (std::size_t i = std::max<std::size_t>(
             suspension.history_len_at_suspend, 1);
         i < history.size(); ++i) {
      if (history[i - 1] == suspension.from && history[i] == suspension.to) {
        ++after;
      }
    }
    const int available =
        LabelForest::transition_count(history, suspension.from,
                                      suspension.to) -
        count_successes(emulator.label, suspension.from, suspension.to);
    if (after < 1 || available < params_.release_margin) continue;
    // Figure 5 condition (3): a replacement to keep the edge stocked.
    int replacement = -1;
    for (const int vp : emulator.vps) {
      if (!vp_active(emulator, vp)) continue;
      const auto& op = env_.pending_of(vp);
      if (op.op == sim::OpName("cas") && op.arg0 == suspension.from &&
          op.arg1 == suspension.to) {
        replacement = vp;
        break;
      }
    }
    if (replacement == -1) continue;
    // Swap: suspend the replacement, release and run the suspended one.
    // The push_back below may reallocate suspensions_, so mark the release
    // and keep a copy before it.
    suspension.released = true;
    const Suspension released = suspension;
    vp_suspended_[static_cast<std::size_t>(replacement)] = true;
    suspensions_.push_back({replacement, emulator.id, released.from,
                            released.to, emulator.label, history.size(),
                            false});
    ++stats_.suspensions;
    successes_.emplace_back(emulator.label, released.from, released.to);
    vp_suspended_[static_cast<std::size_t>(released.vp)] = false;
    ++stats_.releases;
    events_.push_back({EmuEventKind::kRelease, emulator.id, emulator.label,
                       "release vp" + std::to_string(released.vp) + " cas(" +
                           std::to_string(released.from) + "->" +
                           std::to_string(released.to) + ")"});
    env_.inject(released.vp, released.from);  // success returns `from`
    step_vp(emulator, released.vp);
    return true;
  }
  return false;
}

bool EmulationDriver::update_cas(EmulatorState& emulator,
                                 const std::vector<int>& history) {
  const int cs = history.back();
  // Most popular next value among active v-processes poised on cas(cs -> x).
  std::map<int, int> popularity;
  for (const int vp : emulator.vps) {
    if (!vp_active(emulator, vp)) continue;
    const auto& op = env_.pending_of(vp);
    if (op.op == sim::OpName("cas") && op.arg0 == cs) {
      ++popularity[checked_cast<int>(op.arg1)];
    }
  }
  if (popularity.empty()) return false;
  int x = -1;
  int best = 0;
  for (const auto& [value, count] : popularity) {
    if (count > best) {
      best = count;
      x = value;
    }
  }

  const bool x_used =
      std::find(history.begin(), history.end(), x) != history.end();
  GroupTree* tree = forest_.find(emulator.label);
  TreeNode* rightmost = tree->rightmost();
  // Stale snapshot: another emulator extended the history since we read it.
  // A real concurrent update's c&s would fail here; retry next round.
  if (rightmost->symbol != cs) return false;
  const ExcessGraph graph = excess_for(emulator.label);

  bool installed = false;
  bool direct_edge = false;
  if (x_used) {
    if (params_.direct_install) {
      // Relaxed mode: the installing v-process itself (active, poised on
      // cas(cs -> x)) performs the transition, so the new node chains under
      // the true rightmost with empty splices.  Chaining (never attaching
      // under an ancestor) means the DFS never returns through an
      // unverified ToParent — what keeps this mode sound without the
      // paper's suspended-backing invariant.
      tree->attach(rightmost, x, {}, {});
      direct_edge = true;
      installed = true;
      events_.push_back({EmuEventKind::kInstall, emulator.id, emulator.label,
                         "chain " + std::to_string(x) + " under " +
                             std::to_string(cs)});
    } else {
      // Figure 6 threshold walk: attach x to the deepest ancestor whose
      // excess cycle through (ancestor, x) is wide enough.  An ancestor
      // whose own symbol is x cannot host the new node (the splice would
      // be a self-loop); skip past it.
      for (TreeNode* parent = rightmost; parent != nullptr;
           parent = parent->parent) {
        if (parent->symbol == x) continue;
        const auto cycle = best_cycle(graph, parent->symbol, x);
        if (!cycle.has_value()) continue;
        const std::int64_t threshold = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(params_.threshold_slope) *
                   parent->depth());
        if (cycle->width < threshold) continue;
        std::vector<int> from_parent(cycle->a_to_x.begin() + 1,
                                     cycle->a_to_x.end() - 1);
        std::vector<int> to_parent(cycle->x_to_a.begin() + 1,
                                   cycle->x_to_a.end() - 1);
        direct_edge = parent == rightmost && from_parent.empty();
        tree->attach(parent, x, std::move(from_parent), std::move(to_parent));
        events_.push_back({EmuEventKind::kInstall, emulator.id,
                           emulator.label,
                           "attach " + std::to_string(x) + " under " +
                               std::to_string(parent->symbol)});
        installed = true;
        break;
      }
      if (!installed) return false;  // no ancestor admits x: stall
    }
  } else {
    // Fresh value: activate a new group tree (label extension; a split when
    // sibling groups activate different fresh values).  Another emulator of
    // our group may have activated the same value from the same snapshot —
    // then we just join it (the paper's concurrent-activation case) and
    // must NOT install a second time.
    Label extended = emulator.label;
    extended.push_back(x);
    const bool fresh_activation = forest_.find(extended) == nullptr;
    if (fresh_activation && !params_.direct_install &&
        graph.weight(tree->root()->symbol, x) < 1) {
      return false;  // no suspended backing for root -> x: stall
    }
    forest_.activate(extended);
    emulator.label = std::move(extended);
    if (fresh_activation) {
      direct_edge = rightmost == tree->root();
      ++stats_.splits;
      installed = true;
      events_.push_back({EmuEventKind::kSplit, emulator.id, emulator.label,
                         "activate first-value " + std::to_string(x)});
    }
  }
  if (installed) ++stats_.installs;

  // Realize the install: with direct_install and a direct edge from the old
  // current value, the installing v-process itself succeeds; otherwise the
  // transitions stay owed to suspended v-processes (CanRebalance pays them).
  bool success_realized = false;
  if (params_.direct_install && direct_edge) {
    for (const int vp : emulator.vps) {
      if (!vp_active(emulator, vp)) continue;
      const auto& op = env_.pending_of(vp);
      if (op.op == sim::OpName("cas") && op.arg0 == cs && op.arg1 == x) {
        successes_.emplace_back(emulator.label, cs, x);
        env_.inject(vp, cs);  // success: returns the previous value
        step_vp(emulator, vp);
        success_realized = true;
        break;
      }
    }
  }
  (void)success_realized;

  // Figure 6 line 15: fail every remaining active cas with the new value.
  // A pending cas whose EXPECTED value is x would succeed on the real
  // register; it is the next round's install candidate, not a failure —
  // leave it parked.
  for (const int vp : emulator.vps) {
    if (!vp_active(emulator, vp)) continue;
    const auto& op = env_.pending_of(vp);
    if (op.op == sim::OpName("cas") && op.arg0 != x) {
      env_.inject(vp, x);
      step_vp(emulator, vp);
    }
  }
  return true;
}

void EmulationDriver::snapshot(EmulatorState& emulator) {
  // Label migration (Figure 4 lines 1-2): if our tree is no longer a leaf,
  // follow the activations down.
  const Label leaf = forest_.extend_to_leaf(emulator.label);
  if (leaf != emulator.label) {
    events_.push_back({EmuEventKind::kMigrate, emulator.id, leaf,
                       "migrate from " + label_string(emulator.label)});
    emulator.label = leaf;
  }
  emulator.snapshot_history = forest_.compute_history(emulator.label);
}

EmulationDriver::IterResult EmulationDriver::iterate(EmulatorState& emulator) {
  if (adopt_decision_if_any(emulator)) return IterResult::kDecided;

  const std::vector<int>& history = emulator.snapshot_history;
  const int cs = history.back();

  bool acted = false;
  // Suspension quota (Figure 3 lines 4-5).
  std::map<std::pair<int, int>, std::vector<int>> poised;
  for (const int vp : emulator.vps) {
    if (!vp_active(emulator, vp)) continue;
    const auto& op = env_.pending_of(vp);
    if (op.op == sim::OpName("cas")) {
      poised[{checked_cast<int>(op.arg0), checked_cast<int>(op.arg1)}]
          .push_back(vp);
    }
  }
  for (const auto& [edge, vps] : poised) {
    if (checked_cast<int>(vps.size()) < params_.suspend_trigger) continue;
    bool mine_suspended = false;
    for (const Suspension& suspension : suspensions_) {
      if (!suspension.released && suspension.emulator == emulator.id &&
          suspension.from == edge.first && suspension.to == edge.second) {
        mine_suspended = true;
        break;
      }
    }
    if (mine_suspended) continue;
    const int quota =
        std::min<int>(params_.suspend_quota, checked_cast<int>(vps.size()));
    for (int i = 0; i < quota; ++i) {
      const int vp = vps[static_cast<std::size_t>(i)];
      vp_suspended_[static_cast<std::size_t>(vp)] = true;
      suspensions_.push_back({vp, emulator.id, edge.first, edge.second,
                              emulator.label, history.size(), false});
      ++stats_.suspensions;
      events_.push_back({EmuEventKind::kSuspend, emulator.id, emulator.label,
                         "suspend vp" + std::to_string(vp) + " cas(" +
                             std::to_string(edge.first) + "->" +
                             std::to_string(edge.second) + ")"});
      acted = true;
    }
  }

  // EmulateSimpleOp (Figure 3 lines 6-7): reads, writes and failing cas.
  for (const int vp : emulator.vps) {
    if (!vp_active(emulator, vp)) continue;
    const auto& op = env_.pending_of(vp);
    const bool failing_cas = op.op == sim::OpName("cas") && op.arg0 != cs;
    const bool simple = op.op != sim::OpName("cas") || failing_cas;
    if (!simple) continue;
    if (failing_cas) env_.inject(vp, cs);
    step_vp(emulator, vp);
    return IterResult::kActed;
  }

  if (can_rebalance(emulator, history)) return IterResult::kActed;
  if (update_cas(emulator, history)) return IterResult::kActed;
  return acted ? IterResult::kActed : IterResult::kStalled;
}

EmuStats EmulationDriver::run() {
  env_.start();
  // A v-process that failed before its first shared operation means the
  // inputs are impossible for algorithm A (e.g. more slots than capacity);
  // surface it rather than silently starving an emulator.
  for (int vp = 0; vp < total_vps_; ++vp) {
    if (env_.is_finished(vp) &&
        env_.outcome_of(vp) == sim::ProcOutcome::kFailed) {
      throw InvariantError("v-process " + std::to_string(vp) +
                           " rejected its inputs: " + env_.error_of(vp));
    }
  }
  stats_ = EmuStats{};
  stats_.decisions.resize(static_cast<std::size_t>(params_.m));

  for (int round = 0; round < params_.max_rounds; ++round) {
    stats_.rounds = round + 1;
    bool progress = false;
    bool all_decided = true;
    // Phase A: everyone snapshots the shared state (Figure 3 line 2)...
    for (EmulatorState& emulator : emulators_) {
      if (!emulator.decision.has_value()) snapshot(emulator);
    }
    // ...phase B: everyone acts on its snapshot.  Emulators in the same
    // group acting on one snapshot model the paper's concurrent updates —
    // in particular, simultaneous installs of different fresh values are
    // what splits groups.
    for (EmulatorState& emulator : emulators_) {
      if (emulator.decision.has_value()) continue;
      const IterResult result = iterate(emulator);
      if (result != IterResult::kStalled) progress = true;
      if (!emulator.decision.has_value()) all_decided = false;
    }
    if (all_decided) {
      stats_.completed = true;
      break;
    }
    if (!progress) {
      stats_.stalled = true;
      break;
    }
  }
  if (!stats_.completed && !stats_.stalled) stats_.stalled = true;

  env_.finish();
  std::vector<std::int64_t> distinct;
  for (std::size_t id = 0; id < emulators_.size(); ++id) {
    stats_.decisions[id] = emulators_[id].decision;
    stats_.final_labels.push_back(emulators_[id].label);
    if (emulators_[id].decision.has_value() &&
        std::find(distinct.begin(), distinct.end(),
                  *emulators_[id].decision) == distinct.end()) {
      distinct.push_back(*emulators_[id].decision);
    }
  }
  stats_.distinct_decisions = checked_cast<int>(distinct.size());
  stats_.tree_count = forest_.tree_count();
  return stats_;
}

}  // namespace bss::emu
