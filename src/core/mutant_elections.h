// Deliberately-buggy election variants ("mutants") for the schedule-space
// explorer (src/explore).
//
// Each mutant is a real concurrency bug: it is *correct on most schedules*
// and wrong only under a specific interleaving, so a scheduler that merely
// samples the schedule space can miss it forever.  The explorer's job is to
// refute every one of them with a minimized, replayable counterexample;
// tests/test_explore.cc asserts that it does.  None of these are reachable
// from the production election entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "registers/cas_register_k.h"
#include "registers/ll_sc.h"
#include "registers/mwmr_register.h"
#include "registers/swmr_register.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::core {

enum class OneShotMutant {
  kNone,          ///< the correct algorithm (control)
  kClaimAfterCas, ///< claim register written AFTER racing: a loser can read
                  ///< the winner's claim before the winner wrote it and,
                  ///< seeing nothing, crowns itself
  kSplitCas,      ///< the c&s replaced by a read-then-write on a plain MWMR
                  ///< register: two processes can both observe ⊥ and both
                  ///< "win" (classic check-then-act race)
};

std::string to_string(OneShotMutant mutant);

/// Shared memory for the mutated one-shot election.  Carries both the real
/// compare&swap-(k) and the plain register the kSplitCas mutant races on, so
/// every mutant runs against the same state shape.
struct MutantOneShotState {
  explicit MutantOneShotState(int k);

  sim::CasRegisterK cas;
  sim::MwmrRegister<int> weak;  ///< kSplitCas's stand-in for the c&s
  std::vector<sim::SwmrRegister<std::int64_t>> claim;
};

/// One-shot election body with the selected bug injected.  With
/// OneShotMutant::kNone this is behaviourally identical to one_shot_elect.
std::int64_t one_shot_elect_mutant(MutantOneShotState& state, sim::Ctx& ctx,
                                   int pid, std::int64_t id,
                                   OneShotMutant mutant);

// ---------------------------------------------------------- audit mutants
//
// Seeded soundness bugs for the access-ledger auditor (src/audit).  Unlike
// the schedule mutants above, these are not wrong on any *particular*
// interleaving — they lie to the exploration infrastructure itself
// (undeclared footprints, unsynchronized access, broken read/read
// commutation), the exact failure modes that silently unsound a sleep-set
// explorer.  tests/test_audit.cc asserts each is caught by its detector.

enum class AuditMutant {
  kHiddenScratch,   ///< read secretly writes a hidden scratch cell — an
                    ///< undeclared footprint (kUndeclaredTouch)
  kUnsyncedPeek,    ///< a process peeks shared state before its first sync
                    ///< — access outside any granted window (kUnsyncedAccess)
  kStealthCounter,  ///< a "read" that mutates hidden state, so reads no
                    ///< longer commute — ledger-clean, only the commutation
                    ///< cross-check exposes it
};

std::string to_string(AuditMutant mutant);

/// Register whose read declares the honest {name, "read"} footprint but ALSO
/// bumps a hidden scratch cell.  The token reports the scratch write
/// truthfully (the lie is in the *declaration*, not the ledger), so the
/// footprint conformance checker flags kUndeclaredTouch.  Under-declared
/// footprints are exactly what unsounds sleep-set POR: two "reads" of this
/// register do not commute, yet ops_commute says they do.
class HiddenScratchRegister {
 public:
  explicit HiddenScratchRegister(std::string name)
      : name_(std::move(name)), scratch_name_(name_ + ".scratch") {}

  std::int64_t read(sim::Ctx& ctx) {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    ctx.access_token().write(scratch_name_);  // BUG: undeclared footprint
    ++scratch_;
    ctx.note_result(value_);
    return value_;
  }

  void write(sim::Ctx& ctx, std::int64_t value) {
    ctx.sync({name_, "write", value, 0});
    ctx.access_token().write(name_);
    value_ = value;
  }

  const std::string& name() const { return name_; }
  std::int64_t peek() const { return value_; }
  std::int64_t scratch() const { return scratch_; }

 private:
  std::string name_;
  std::string scratch_name_;
  std::int64_t value_ = 0;
  std::int64_t scratch_ = 0;
};

/// Register that is ledger- AND footprint-clean — its token truthfully
/// reports a read of the declared object, nothing else — yet serves every
/// "read" a fresh ticket from a hidden counter.  Two reads of it do not
/// commute (swapping them swaps the tickets the processes saw), violating
/// the read/read half of ops_commute.  No per-access detector can see this;
/// the differential commutation cross-check catches it by replaying the
/// swapped schedule and comparing final states.
class StealthCounterRegister {
 public:
  explicit StealthCounterRegister(std::string name) : name_(std::move(name)) {}

  std::int64_t read(sim::Ctx& ctx) {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    const std::int64_t ticket = ++served_;  // BUG: a "read" that writes
    ctx.note_result(ticket);
    return ticket;
  }

  const std::string& name() const { return name_; }
  std::int64_t peek() const { return served_; }

 private:
  std::string name_;
  std::int64_t served_ = 0;
};

/// LL/SC c&s adapter that IGNORES store-conditional failure: the process
/// believes it installed its symbol although the register never changed.
/// Harmless while SCs never interleave; wrong exactly when another SC lands
/// between this process's LL and SC — an interleaving-dependent bug for the
/// FirstValueTree election (see explore::LlScSystem).
class ScBlindLlScMemory {
 public:
  ScBlindLlScMemory(sim::LlScRegisterK& llsc,
                    std::vector<sim::MwmrRegister<int>>& confirm,
                    std::vector<sim::SwmrRegister<std::int64_t>>& announce,
                    sim::Ctx& ctx)
      : llsc_(&llsc), confirm_(&confirm), announce_(&announce), ctx_(&ctx) {}

  int k() const { return llsc_->k(); }

  int cas(int expect, int next) {
    const int value = llsc_->load_link(*ctx_);
    if (value != expect) return value;
    (void)llsc_->store_conditional(*ctx_, next);  // BUG: result ignored
    return expect;
  }

  int read_confirm(int stage) const { return confirm(stage).read(*ctx_); }
  void write_confirm(int stage, int symbol) {
    confirm(stage).write(*ctx_, symbol);
  }
  std::int64_t read_announce(std::uint64_t slot) const {
    return (*announce_)[static_cast<std::size_t>(slot)].read(*ctx_);
  }
  void write_announce(std::uint64_t slot, std::int64_t id) {
    (*announce_)[static_cast<std::size_t>(slot)].write(*ctx_, id);
  }

 private:
  // Once an ignored SC failure corrupts the process's view, the election
  // can walk one stage past the last confirm register; the process then
  // fails (a reported violation) instead of touching memory out of bounds.
  sim::MwmrRegister<int>& confirm(int stage) const {
    expects(stage >= 0 && static_cast<std::size_t>(stage) < confirm_->size(),
            "sc-blind mutant: confirm stage out of range");
    return (*confirm_)[static_cast<std::size_t>(stage)];
  }

  sim::LlScRegisterK* llsc_;
  std::vector<sim::MwmrRegister<int>>* confirm_;
  std::vector<sim::SwmrRegister<std::int64_t>>* announce_;
  sim::Ctx* ctx_;
};

}  // namespace bss::core
