// Simulator wiring for the FirstValueTree election: shared state, the
// per-process memory adapter, and a one-call runner used by tests, benches
// and examples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/first_value_tree.h"
#include "registers/cas_register_k.h"
#include "registers/mwmr_register.h"
#include "registers/swmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::core {

/// The election's shared memory as simulator objects: one compare&swap-(k),
/// k-1 confirm registers, (k-1)! announce registers.
struct SimElectionState {
  explicit SimElectionState(int k);

  sim::CasRegisterK cas;
  std::vector<sim::MwmrRegister<int>> confirm;
  std::vector<sim::SwmrRegister<std::int64_t>> announce;
};

/// Per-process adapter binding a Ctx to the shared state; satisfies
/// ElectionMemory.
class SimElectionMemory {
 public:
  SimElectionMemory(SimElectionState& state, sim::Ctx& ctx)
      : state_(&state), ctx_(&ctx) {}

  int k() const { return state_->cas.k(); }
  int cas(int expect, int next) {
    return state_->cas.compare_and_swap(*ctx_, expect, next);
  }
  int read_confirm(int stage) const {
    return state_->confirm[static_cast<std::size_t>(stage)].read(*ctx_);
  }
  void write_confirm(int stage, int symbol) {
    state_->confirm[static_cast<std::size_t>(stage)].write(*ctx_, symbol);
  }
  std::int64_t read_announce(std::uint64_t slot) const {
    return state_->announce[static_cast<std::size_t>(slot)].read(*ctx_);
  }
  void write_announce(std::uint64_t slot, std::int64_t id) {
    state_->announce[static_cast<std::size_t>(slot)].write(*ctx_, id);
  }

 private:
  SimElectionState* state_;
  sim::Ctx* ctx_;
};

static_assert(ElectionMemory<SimElectionMemory>);

/// Result of running a whole election system under the simulator.
struct SimElectionReport {
  int k = 0;
  int processes = 0;
  sim::RunReport run;
  /// Outcome per pid; empty optional for crashed processes.
  std::vector<std::optional<ElectOutcome>> outcomes;
  /// Successful compare&swap transitions, in order (the run's history).
  std::vector<sim::CasRegisterK::Transition> cas_history;
  std::uint64_t cas_total_accesses = 0;
  /// Identity proposed by pid (id_base + pid).
  std::int64_t proposed_id(int pid) const { return id_base + pid; }
  std::int64_t id_base = 1000;
};

struct SimElectionOptions {
  /// Process pid occupies slot pid by default; permute for stress variants.
  std::vector<std::uint64_t> slot_of_pid;  // empty = identity
  std::int64_t id_base = 1000;
  sim::SimOptions sim;
  /// Ablation knobs (bench_ablation); defaults are the full algorithm.
  ElectPolicy policy;
};

/// Runs `n` processes (n <= (k-1)!) electing a leader with a
/// compare&swap-(k) under `scheduler`, optionally crashing per `crashes`.
SimElectionReport run_sim_election(int k, int n, sim::Scheduler& scheduler,
                                   const sim::FaultPlan& crashes = {},
                                   SimElectionOptions options = {});

}  // namespace bss::core
