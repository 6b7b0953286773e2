// The reduction driver: Section 3's emulation, executable.
//
// m emulators cooperatively construct runs of an algorithm A (the
// "v-processes" are A's front ends, hosted as parked simulator processes
// whose pending operation is visible and whose operation results the driver
// injects).  Emulators have only the read/write Board, the history forest T
// and the suspension lists — never a real compare&swap: successful c&s
// operations exist only as history-tree appends matched against suspended
// v-processes, exactly the paper's construction.
//
// One emulator iteration (Figure 3):
//   1. snapshot state; recompute label (migrate to a leaf of T) and h(l);
//   2. suspension quota: park v-processes poised on popular c&s edges;
//   3. if some v-process's next op is simple (read, write, or a c&s whose
//      expected value is not current) — emulate it directly;
//   4. else try CanRebalance (Figure 5): release a suspended v-process whose
//      successful c&s is backed by enough unmatched history transitions;
//   5. else UpdateC&S (Figure 6): append the most popular next value to the
//      history — attaching to the deepest ancestor whose excess-cycle width
//      clears the depth threshold, or activating a new group tree when the
//      value is fresh (label split) — then fail every active v-process with
//      the new current value.
// An emulator adopts the decision of the first of its v-processes to decide
// and leaves; the driver stops when all emulators decided or no emulator can
// act (a stall — which is itself informative: with A = the (k-1)!-capacity
// election there are simply not enough v-processes to feed (k-1)!+1
// emulators, the operational face of Theorem 1).
//
// Scaling note (DESIGN.md §6): the paper's quotas (m·k² suspensions per
// edge, release margin m, threshold Σ g·m^g) assume Θ = O(k^(k²+3))
// v-processes.  The quotas here are parameters with small defaults, and
// `direct_install` lets the installing v-process itself realize a new
// history transition (sound under the driver's iteration atomicity;
// disable it to exercise the paper-faithful suspended-backing discipline,
// which then requires proportionally more v-processes).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "emulation/board.h"
#include "emulation/excess.h"
#include "emulation/history_tree.h"
#include "runtime/sim_env.h"

namespace bss::emu {

/// What a v-process body needs from the emulation world.
struct VpHarness {
  int k = 0;
  Board* board = nullptr;
  /// Label of the emulator currently stepping this v-process (set by the
  /// driver before every step; reads consult it for compatibility).
  const Label* current_label = nullptr;
  /// Where the body records its decision (indexed by vp id).
  std::vector<std::optional<std::int64_t>>* decisions = nullptr;
};

/// Builds the simulator body of v-process `vp`.
using VpFactory =
    std::function<std::function<void(sim::Ctx&)>(int vp, const VpHarness&)>;

/// A = the FirstValueTree election: v-process i owns slot i, proposes
/// 1000 + i.  Requires total vps <= (k-1)!.
VpFactory fvt_vp_factory();

/// A = a value-reusing exerciser: each v-process toggles the register
/// ⊥ -> 1 -> ⊥ -> ... for `rounds` rounds (writing a log entry between
/// attempts), then decides its own id.  NOT a leader election — used to
/// drive the rebalance/cycle machinery, which first-value algorithms never
/// touch.
VpFactory token_race_factory(int rounds);

struct EmuParams {
  int k = 3;
  int m = 2;                  ///< emulators
  int vps_per_emulator = 1;
  int suspend_trigger = 2;    ///< paper: m*k^2
  int suspend_quota = 1;      ///< paper: m*k^2 (all of them)
  int release_margin = 1;     ///< paper: m
  int threshold_slope = 1;    ///< threshold(D) = slope * D (paper: Σ g·m^g)
  bool direct_install = true; ///< see the scaling note above
  int max_rounds = 100000;
};

/// One emulated virtual-operation record, for the legality checks.
struct VpStep {
  int vp = -1;
  int emulator = -1;
  Label label;  ///< emulator's label when the step ran
  sim::OpDesc desc;
  std::int64_t result = 0;
  bool has_result = false;
};

struct Suspension {
  int vp = -1;
  int emulator = -1;
  int from = 0;
  int to = 0;
  Label label;
  std::size_t history_len_at_suspend = 0;
  bool released = false;
};

enum class EmuEventKind { kSuspend, kRelease, kInstall, kSplit, kMigrate };

struct EmuEvent {
  EmuEventKind kind;
  int emulator;
  Label label;
  std::string detail;
};

struct EmuStats {
  bool completed = false;   ///< every emulator decided
  bool stalled = false;     ///< a full round passed with no action possible
  int rounds = 0;
  int vp_steps = 0;
  int suspensions = 0;
  int releases = 0;
  int installs = 0;          ///< history appends (incl. new-tree activations)
  int splits = 0;            ///< new-tree activations (label extensions)
  std::vector<std::optional<std::int64_t>> decisions;  ///< per emulator
  std::vector<Label> final_labels;                     ///< per emulator
  int distinct_decisions = 0;
  std::size_t tree_count = 0;
};

class EmulationDriver {
 public:
  EmulationDriver(EmuParams params, const VpFactory& factory);
  ~EmulationDriver();

  EmulationDriver(const EmulationDriver&) = delete;
  EmulationDriver& operator=(const EmulationDriver&) = delete;

  /// Runs the emulation to completion or stall.
  EmuStats run();

  // --- inspection (for checks, benches, the walkthrough example) ---
  const std::vector<VpStep>& step_log() const { return step_log_; }
  const std::vector<Suspension>& suspensions() const { return suspensions_; }
  const std::vector<EmuEvent>& events() const { return events_; }
  const LabelForest& forest() const { return forest_; }
  const Board& board() const { return board_; }
  int total_vps() const { return total_vps_; }
  /// Excess graph for a label, from the current state (Definition 1).
  ExcessGraph excess_for(const Label& label) const;

 private:
  struct EmulatorState {
    int id = -1;
    Label label{0};
    std::vector<int> vps;  ///< owned v-process ids
    std::optional<std::int64_t> decision;
    /// The round's snapshot (Figure 3 line 2): emulators act on the state
    /// they read at the top of the round, concurrently with one another —
    /// which is exactly how distinct first-value installs split groups.
    std::vector<int> snapshot_history;
  };

  enum class IterResult { kActed, kDecided, kStalled };

  /// Phase A of a round: adopt decisions, migrate the label, snapshot h(l).
  void snapshot(EmulatorState& emulator);
  /// Phase B: act on the snapshot.
  IterResult iterate(EmulatorState& emulator);
  // Steps vp with the emulator's label exposed; records the log entry.
  sim::TraceEvent step_vp(EmulatorState& emulator, int vp);
  bool vp_active(const EmulatorState& emulator, int vp) const;
  bool adopt_decision_if_any(EmulatorState& emulator);

  // Figure 5.
  bool can_rebalance(EmulatorState& emulator, const std::vector<int>& history);
  // Figure 6; returns false on stall.
  bool update_cas(EmulatorState& emulator, const std::vector<int>& history);

  /// Successful c&s operations already emulated (releases + direct installs)
  /// on (from -> to) with labels compatible with `label`.
  int count_successes(const Label& label, int from, int to) const;

  EmuParams params_;
  sim::SimEnv env_;
  Board board_;
  LabelForest forest_;
  Label current_step_label_{0};  ///< exposed to v-process bodies
  std::vector<std::optional<std::int64_t>> vp_decisions_;
  std::vector<bool> vp_suspended_;
  std::vector<EmulatorState> emulators_;
  std::vector<Suspension> suspensions_;
  /// (label, from, to) per emulated successful c&s.
  std::vector<std::tuple<Label, int, int>> successes_;
  std::vector<VpStep> step_log_;
  std::vector<EmuEvent> events_;
  EmuStats stats_;
  int total_vps_ = 0;
};

}  // namespace bss::emu
