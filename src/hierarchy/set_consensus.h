// k-set consensus — the decision task the Section 3 reduction produces.
//
// Definition (paper §2): n processes with inputs each decide a value such
// that (a) at most l distinct decisions occur, (b) every process decides in
// finitely many steps, (c) every decision is some process's input.  It is
// solvable from read/write registers iff l >= n (else impossible —
// Borowsky-Gafni / Herlihy-Shavit / Saks-Zaharoglou), and trivially solvable
// for any l from l consensus objects: partition the processes into l groups
// and run one consensus per group.  Both constructions live here; the
// partition algorithm is exactly the shape of the emulation's output (one
// group per label, one decision per group).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "registers/sticky.h"
#include "registers/swmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::hierarchy {

struct SetConsensusReport {
  sim::RunReport run;
  std::vector<std::optional<std::int64_t>> decisions;  // by pid
  int distinct_decisions = 0;
  bool valid = true;  ///< every decision was some process's input
};

/// l-set consensus among n processes from l sticky registers: process pid
/// proposes through register pid % l.  Wait-free for any n; at most l
/// distinct decisions by construction.
SetConsensusReport run_partition_set_consensus(
    int n, int l, const std::vector<std::int64_t>& inputs,
    sim::Scheduler& scheduler, const sim::FaultPlan& crashes = {});

/// n-set consensus among n processes from read/write registers only (the
/// trivial "decide your own input" protocol — the l >= n boundary case,
/// included to mark where possibility ends: for l < n the task is
/// impossible over registers, which is the theorem the reduction leans on).
SetConsensusReport run_trivial_set_consensus(
    int n, const std::vector<std::int64_t>& inputs, sim::Scheduler& scheduler,
    const sim::FaultPlan& crashes = {});

}  // namespace bss::hierarchy
