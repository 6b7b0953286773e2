// Extension: the election on a k-valued load-link/store-conditional register.
//
// The paper names "compare&swap, or load-link-store-conditional" as the
// top-of-hierarchy objects and conjectures its results "can be extended to
// hold for arbitrary read-modify-write registers of size k".  This module is
// that extension for LL/SC: the same FirstValueTree algorithm, with the
// compare&swap-(k) replaced by a k-valued LL/SC register behind a thin
// adapter implementing c&s(a -> b):
//
//     v := LL();  if v != a: return v;          // failure, v is current
//     if SC(b):   return a;                      // success
//     retry                                      // an SC intervened
//
// The retry loop is bounded by the algorithm's no-reuse invariant: an SC
// interfering with ours changed the value, values never repeat within a run,
// so the next LL cannot read `a` again — at most TWO iterations ever happen
// on ideal LL/SC.  One *spurious* SC failure (FaultPlan::fail_sc) costs one
// extra round trip, and the no-reuse argument still cuts the chain after
// it, so the guard of 3 attempts tolerates exactly one spurious failure per
// c&s call; FaultPlan caps injection at one per process, which is stricter.
// Capacity, validity, consistency and the O(k) access bound all carry over;
// tests/test_election.cc exercises the adapter under the same schedulers and
// crash storms as the c&s version, and tests/test_faults.cc under spurious
// SC storms.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/first_value_tree.h"
#include "registers/ll_sc.h"
#include "registers/mwmr_register.h"
#include "registers/swmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::core {

struct LlScElectionState {
  explicit LlScElectionState(int k);

  sim::LlScRegisterK llsc;
  std::vector<sim::MwmrRegister<int>> confirm;
  std::vector<sim::SwmrRegister<std::int64_t>> announce;
};

class LlScElectionMemory {
 public:
  LlScElectionMemory(LlScElectionState& state, sim::Ctx& ctx)
      : state_(&state), ctx_(&ctx) {}

  int k() const { return state_->llsc.k(); }

  int cas(int expect, int next) {
    // Bounded by the no-reuse invariant; the guard documents it.
    for (int attempt = 0; attempt < 3; ++attempt) {
      const int value = state_->llsc.load_link(*ctx_);
      if (value != expect) return value;
      if (state_->llsc.store_conditional(*ctx_, next)) return expect;
    }
    expects(false,
            "LL/SC c&s adapter retried past its bound: a value recurred");
    return -1;  // unreachable
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
  LlScElectionState* state_;
  sim::Ctx* ctx_;
};

static_assert(ElectionMemory<LlScElectionMemory>);

struct LlScElectionReport {
  sim::RunReport run;
  std::vector<std::optional<ElectOutcome>> outcomes;
  bool consistent = true;
  bool valid = true;
};

/// Runs n <= (k-1)! processes electing through one k-valued LL/SC register.
/// `faults` may fail-stop processes and fail SCs spuriously; restart events
/// are rejected — the bodies register no restart hook.
LlScElectionReport run_llsc_election(int k, int n, sim::Scheduler& scheduler,
                                     const sim::FaultPlan& faults = {});

}  // namespace bss::core
