// Extension: several copies of the bounded object.
//
// The paper's conclusions: "We believe that the results presented herein can
// be extended to ... systems with a number of copies of the strong object."
// This module composes r compare&swap-(k) registers into an election for
// ((k-1)!)^r designated processes: identity = r digits in base (k-1)!, one
// digit decided per register by an independent FirstValueTree stage that
// EVERY process runs (with its own digit as the proposed slot).  Stage j's
// decision is a digit, and the elected identity is the digit vector.
//
// Design note — why every process runs every stage: filtering stage-j
// participation by "my earlier digits won" would strand survivors whenever a
// whole winning-prefix group crashes (the stage could never start), killing
// wait-freedom.  Running all stages unfiltered keeps every stage live, at
// the price of the closed-model validity also used by the Burns multi-
// register composition: the elected digit vector is always a designated
// identity, but it may combine digits "owned" by different processes.  (The
// same caveat appears in [5]; the open-model composition is exactly the
// open problem the paper leaves for future work.)  Because all announcers
// of a stage slot write the same value — the slot index itself — plain
// MWMR registers suffice and the model stays c&s-(k) + read/write.
//
// Contrast for the capacity tables: r write-once k-valued RMW registers
// (Burns) elect (k-1)^r; r compare&swap-(k) with read/write registers elect
// ((k-1)!)^r — factorial amplification per copy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/first_value_tree.h"
#include "registers/cas_register_k.h"
#include "registers/mwmr_register.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::core {

/// One stage's shared memory: a compare&swap-(k) plus confirm/announce
/// boards.  Announce is MWMR because processes sharing a digit all claim the
/// same slot (writing the identical value, so plain registers suffice).
struct ComposedStageState {
  explicit ComposedStageState(int k, int stage);

  sim::CasRegisterK cas;
  std::vector<sim::MwmrRegister<int>> confirm;
  std::vector<sim::MwmrRegister<std::int64_t>> announce;
};

/// ElectionMemory over one stage.
class ComposedStageMemory {
 public:
  ComposedStageMemory(ComposedStageState& state, sim::Ctx& ctx)
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
  ComposedStageState* state_;
  sim::Ctx* ctx_;
};

static_assert(ElectionMemory<ComposedStageMemory>);

/// ((k-1)!)^copies.
std::uint64_t composed_capacity(int k, int copies);

struct ComposedElectionReport {
  int k = 0;
  int copies = 0;
  int processes = 0;
  sim::RunReport run;
  /// Elected identity (digit vector encoded in base (k-1)!) per pid; empty
  /// for crashed processes.
  std::vector<std::optional<std::uint64_t>> leaders;
  bool consistent = true;
  bool valid = true;  ///< leader < capacity (closed-model validity)
};

ComposedElectionReport run_composed_election(int k, int copies, int n,
                                             sim::Scheduler& scheduler,
                                             const sim::FaultPlan& crashes = {});

}  // namespace bss::core
