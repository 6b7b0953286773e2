// OneShotElection — leader election among k-1 processes that touches the
// compare&swap-(k) exactly once per process.
//
// This is the Burns-Cruz-Loui-style baseline *with* announcement registers:
// process i claims the fresh symbol i+1 with a single c&s(⊥ → i+1); the
// winner is whoever's symbol landed, and every loser learns it from the
// failed operation's return value.  Capacity k-1 — exponentially below the
// (k-1)! of FirstValueTree, which is the measured content of the paper's
// conclusion that read/write registers *increase* the power of a bounded
// object (here they raise one c&s access per process to O(k) accesses and
// the capacity from k-1 to (k-1)!).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "registers/cas_register_k.h"
#include "registers/swmr_register.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::core {

struct OneShotState {
  explicit OneShotState(int k);

  sim::CasRegisterK cas;
  /// claim[s] = identity of the process that owns symbol s (s in 1..k-1).
  std::vector<sim::SwmrRegister<std::int64_t>> claim;
};

/// Body for process `pid` (0 <= pid < k-1) proposing `id`; returns the
/// elected identity.
std::int64_t one_shot_elect(OneShotState& state, sim::Ctx& ctx, int pid,
                            std::int64_t id);

struct OneShotReport {
  sim::RunReport run;
  std::vector<std::optional<std::int64_t>> elected;  // by pid
  bool consistent = true;
};

/// Runs n <= k-1 processes; ids are 1000 + pid.
OneShotReport run_one_shot_election(int k, int n, sim::Scheduler& scheduler,
                                    const sim::FaultPlan& crashes = {});

}  // namespace bss::core
