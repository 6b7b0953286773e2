#include "explore/election_systems.h"

#include <optional>
#include <sstream>
#include <vector>

#include "core/election_validator.h"
#include "core/first_value_tree.h"
#include "core/llsc_election.h"
#include "core/recoverable_election.h"
#include "core/sim_election.h"
#include "util/checked.h"

namespace bss::explore {

namespace {

constexpr std::int64_t kIdBase = 1000;

/// Serializes a final shared-state component into the commute cross-check
/// fingerprint.  Every instance funnels its register peeks and per-process
/// results through this so the format stays uniform and deterministic.
template <class T>
void fp_field(std::ostringstream& out, const char* label, const T& value) {
  out << label << '=' << value << ';';
}

template <class Register>
void fp_peeks(std::ostringstream& out, const char* label,
              const std::vector<Register>& registers) {
  out << label << "=[";
  for (const auto& reg : registers) out << reg.peek() << ',';
  out << "];";
}

template <class T>
void fp_values(std::ostringstream& out, const char* label,
               const std::vector<T>& values) {
  out << label << "=[";
  for (const auto& value : values) out << value << ',';
  out << "];";
}

/// "p<pid> failed: <error>".  Built by appends: GCC 12 reports a false
/// -Wrestrict on `"literal" + std::string` in optimized builds.
std::string failure_message(const sim::RunReport& report, int pid) {
  std::string message = "p";
  message += std::to_string(pid);
  message += " failed: ";
  message += report.errors[static_cast<std::size_t>(pid)];
  return message;
}

/// Shared post-run checks: every surviving process finished without
/// throwing, all survivors agree, and the winner was actually proposed.
/// Crashed processes (fail-stop or killed mid-restart by the fault
/// explorer) are exempt — a crash is the adversary's move, not the
/// algorithm's failure — so agreement and validity quantify over the
/// finished processes only.
std::optional<std::string> check_outcomes(
    const sim::RunReport& report, const std::vector<std::int64_t>& elected,
    int n) {
  std::int64_t leader = -1;
  for (int pid = 0; pid < n; ++pid) {
    const auto outcome = report.outcomes[static_cast<std::size_t>(pid)];
    if (outcome == sim::ProcOutcome::kCrashed) continue;
    if (outcome == sim::ProcOutcome::kFailed) {
      return failure_message(report, pid);
    }
    if (outcome != sim::ProcOutcome::kFinished) {
      std::string message = "p";
      message += std::to_string(pid);
      message += " never finished";
      return message;
    }
    const std::int64_t mine = elected[static_cast<std::size_t>(pid)];
    if (leader == -1) leader = mine;
    if (mine != leader) {
      std::ostringstream out;
      out << "inconsistent: p" << pid << " elected " << mine
          << " but an earlier process elected " << leader;
      return out.str();
    }
  }
  if (leader != -1 && (leader < kIdBase || leader >= kIdBase + n)) {
    std::ostringstream out;
    out << "invalid: elected id " << leader << " was never proposed";
    return out.str();
  }
  return std::nullopt;
}

class OneShotInstance final : public SystemInstance {
 public:
  OneShotInstance(int k, int n, core::OneShotMutant mutant, bool restartable)
      : state_(k), n_(n), mutant_(mutant), restartable_(restartable),
        elected_(static_cast<std::size_t>(n), -1) {}

  void populate(sim::SimEnv& env) override {
    for (int pid = 0; pid < n_; ++pid) {
      const auto body = [this, pid](sim::Ctx& ctx) {
        elected_[static_cast<std::size_t>(pid)] = core::one_shot_elect_mutant(
            state_, ctx, pid, kIdBase + pid, mutant_);
      };
      if (restartable_) {
        // One-shot election is naturally recovery-safe: the claim write
        // precedes the c&s, re-claiming is idempotent, and a re-run c&s that
        // loses to the first incarnation's own install still reads back this
        // process's symbol.  The body IS the restart hook.
        env.add_process(body, body);
      } else {
        env.add_process(body);
      }
    }
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    return check_outcomes(report, elected_, n_);
  }

  std::string fingerprint(const sim::SimEnv&) override {
    std::ostringstream out;
    fp_field(out, "cas", state_.cas.peek());
    fp_field(out, "cas_transitions", state_.cas.history().size());
    fp_field(out, "weak", state_.weak.peek());
    fp_peeks(out, "claim", state_.claim);
    fp_values(out, "elected", elected_);
    return out.str();
  }

 private:
  core::MutantOneShotState state_;
  int n_;
  core::OneShotMutant mutant_;
  bool restartable_;
  std::vector<std::int64_t> elected_;
};

class LlScInstance final : public SystemInstance {
 public:
  LlScInstance(int k, int n, bool sc_blind)
      : state_(k), n_(n), sc_blind_(sc_blind),
        elected_(static_cast<std::size_t>(n), -1) {}

  void populate(sim::SimEnv& env) override {
    for (int pid = 0; pid < n_; ++pid) {
      env.add_process([this, pid](sim::Ctx& ctx) {
        const auto slot = static_cast<std::uint64_t>(pid);
        core::ElectOutcome outcome;
        if (sc_blind_) {
          core::ScBlindLlScMemory memory(state_.llsc, state_.confirm,
                                         state_.announce, ctx);
          outcome = core::fvt_elect(memory, slot, kIdBase + pid);
        } else {
          core::LlScElectionMemory memory(state_, ctx);
          outcome = core::fvt_elect(memory, slot, kIdBase + pid);
        }
        elected_[static_cast<std::size_t>(pid)] = outcome.leader;
      });
    }
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    return check_outcomes(report, elected_, n_);
  }

  std::string fingerprint(const sim::SimEnv&) override {
    std::ostringstream out;
    fp_field(out, "llsc", state_.llsc.peek());
    fp_peeks(out, "confirm", state_.confirm);
    fp_peeks(out, "announce", state_.announce);
    fp_values(out, "elected", elected_);
    return out.str();
  }

 private:
  core::LlScElectionState state_;
  int n_;
  bool sc_blind_;
  std::vector<std::int64_t> elected_;
};

class FvtInstance : public SystemInstance {
 public:
  FvtInstance(int k, int n)
      : state_(k), k_(k), n_(n), outcomes_(static_cast<std::size_t>(n)) {}

  void populate(sim::SimEnv& env) override {
    for (int pid = 0; pid < n_; ++pid) {
      env.add_process([this, pid](sim::Ctx& ctx) {
        core::SimElectionMemory memory(state_, ctx);
        outcomes_[static_cast<std::size_t>(pid)] = core::fvt_elect(
            memory, static_cast<std::uint64_t>(pid), kIdBase + pid);
      });
    }
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    for (int pid = 0; pid < n_; ++pid) {
      if (report.outcomes[static_cast<std::size_t>(pid)] ==
          sim::ProcOutcome::kFailed) {
        return failure_message(report, pid);
      }
    }
    core::SimElectionReport election;
    election.k = k_;
    election.processes = n_;
    election.id_base = kIdBase;
    election.run = report;
    election.outcomes = outcomes_;
    election.cas_history = state_.cas.history();
    election.cas_total_accesses = state_.cas.total_accesses();
    for (int pid = 0; pid < n_; ++pid) {
      if (report.outcomes[static_cast<std::size_t>(pid)] !=
          sim::ProcOutcome::kFinished) {
        election.outcomes[static_cast<std::size_t>(pid)].reset();
      }
    }
    const core::ElectionVerdict verdict = core::verify_election(election);
    if (!verdict.ok()) return verdict.diagnosis;
    return std::nullopt;
  }

  std::string fingerprint(const sim::SimEnv&) override {
    std::ostringstream out;
    fp_field(out, "cas", state_.cas.peek());
    fp_field(out, "cas_transitions", state_.cas.history().size());
    fp_peeks(out, "confirm", state_.confirm);
    fp_peeks(out, "announce", state_.announce);
    out << "leaders=[";
    for (const auto& outcome : outcomes_) {
      if (outcome.has_value()) {
        out << outcome->leader;
      } else {
        out << '?';
      }
      out << ',';
    }
    out << "];";
    return out.str();
  }

 protected:
  core::SimElectionState state_;
  int k_;
  int n_;
  std::vector<std::optional<core::ElectOutcome>> outcomes_;
};

/// FvtInstance with crash-restartable processes: each process's program is
/// its own restart hook (recovery-safe elections re-derive everything from
/// shared state), and the seeded kFreshClaim mutant mints a fresh slot and
/// identity per incarnation.  The paper-grade check is inherited unchanged.
class RecoverableFvtInstance final : public FvtInstance {
 public:
  RecoverableFvtInstance(int k, int n, core::RestartBehavior behavior)
      : FvtInstance(k, n), behavior_(behavior) {}

  void populate(sim::SimEnv& env) override {
    const std::uint64_t slots = core::slot_count(k_);
    for (int pid = 0; pid < n_; ++pid) {
      const auto program = [this, pid, slots](sim::Ctx& ctx) {
        auto my_slot = static_cast<std::uint64_t>(pid);
        std::int64_t my_id = kIdBase + pid;
        if (behavior_ == core::RestartBehavior::kFreshClaim &&
            ctx.incarnation() > 0) {
          // BUG (seeded): rejoin as a brand-new participant.
          const auto incarnation =
              static_cast<std::uint64_t>(ctx.incarnation());
          my_slot = (my_slot + incarnation) % slots;
          my_id += core::kFreshClaimIdStride * ctx.incarnation();
        }
        core::SimElectionMemory memory(state_, ctx);
        outcomes_[static_cast<std::size_t>(pid)] =
            core::recoverable_elect(memory, my_slot, my_id);
      };
      env.add_process(program, program);
    }
  }

 private:
  core::RestartBehavior behavior_;
};

/// Host for the seeded audit mutants: n processes each performing one
/// operation on the lying register (plus, for kUnsyncedPeek, one pre-sync
/// peek by p0).  The property check passes on every schedule — these bugs
/// are invisible to it by construction — so any refutation must come from
/// the audit layer.
class AuditMutantInstance final : public SystemInstance {
 public:
  AuditMutantInstance(core::AuditMutant mutant, int n)
      : mutant_(mutant), n_(n), hidden_("hidden"), stealth_("counter"),
        cell_("cell", 0), seen_(static_cast<std::size_t>(n), -1) {}

  void populate(sim::SimEnv& env) override {
    for (int pid = 0; pid < n_; ++pid) {
      env.add_process([this, pid](sim::Ctx& ctx) {
        auto& mine = seen_[static_cast<std::size_t>(pid)];
        switch (mutant_) {
          case core::AuditMutant::kHiddenScratch:
            mine = hidden_.read(ctx);
            break;
          case core::AuditMutant::kUnsyncedPeek:
            if (pid == 0) {
              // BUG: inspect shared state before the first sync — no
              // granted window is open, so this read raced the launch.
              ctx.access_token().read("cell");
              peeked_ = cell_.peek();
            }
            mine = cell_.read(ctx);
            break;
          case core::AuditMutant::kStealthCounter:
            mine = stealth_.read(ctx);
            break;
        }
      });
    }
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    for (int pid = 0; pid < n_; ++pid) {
      if (report.outcomes[static_cast<std::size_t>(pid)] ==
          sim::ProcOutcome::kFailed) {
        return failure_message(report, pid);
      }
    }
    return std::nullopt;
  }

  std::string fingerprint(const sim::SimEnv&) override {
    std::ostringstream out;
    fp_field(out, "hidden", hidden_.peek());
    fp_field(out, "scratch", hidden_.scratch());
    fp_field(out, "served", stealth_.peek());
    fp_field(out, "cell", cell_.peek());
    fp_field(out, "peeked", peeked_);
    fp_values(out, "seen", seen_);
    return out.str();
  }

 private:
  core::AuditMutant mutant_;
  int n_;
  core::HiddenScratchRegister hidden_;
  core::StealthCounterRegister stealth_;
  sim::MwmrRegister<std::int64_t> cell_;
  std::int64_t peeked_ = -1;
  std::vector<std::int64_t> seen_;
};

}  // namespace

OneShotSystem::OneShotSystem(int k, int n, core::OneShotMutant mutant,
                             bool restartable)
    : k_(k), n_(n), mutant_(mutant), restartable_(restartable) {
  expects(n >= 1 && n <= k - 1, "one-shot election requires 1 <= n <= k-1");
}

std::string OneShotSystem::name() const {
  return "one_shot[k=" + std::to_string(k_) + ",n=" + std::to_string(n_) +
         ",mutant=" + core::to_string(mutant_) +
         (restartable_ ? ",restartable]" : "]");
}

std::unique_ptr<SystemInstance> OneShotSystem::make() const {
  return std::make_unique<OneShotInstance>(k_, n_, mutant_, restartable_);
}

LlScSystem::LlScSystem(int k, int n, bool sc_blind)
    : k_(k), n_(n), sc_blind_(sc_blind) {
  expects(n >= 1 && static_cast<std::uint64_t>(n) <= core::slot_count(k),
          "LL/SC election capacity is (k-1)!");
}

std::string LlScSystem::name() const {
  return std::string("llsc[k=") + std::to_string(k_) +
         ",n=" + std::to_string(n_) +
         (sc_blind_ ? ",mutant=sc-blind]" : "]");
}

std::unique_ptr<SystemInstance> LlScSystem::make() const {
  return std::make_unique<LlScInstance>(k_, n_, sc_blind_);
}

FvtSystem::FvtSystem(int k, int n) : k_(k), n_(n) {
  expects(n >= 1 && static_cast<std::uint64_t>(n) <= core::slot_count(k),
          "FirstValueTree capacity is (k-1)!");
}

std::string FvtSystem::name() const {
  return "fvt[k=" + std::to_string(k_) + ",n=" + std::to_string(n_) + "]";
}

std::unique_ptr<SystemInstance> FvtSystem::make() const {
  return std::make_unique<FvtInstance>(k_, n_);
}

RecoverableFvtSystem::RecoverableFvtSystem(int k, int n,
                                           core::RestartBehavior behavior)
    : k_(k), n_(n), behavior_(behavior) {
  expects(n >= 1 && static_cast<std::uint64_t>(n) <= core::slot_count(k),
          "FirstValueTree capacity is (k-1)!");
}

std::string RecoverableFvtSystem::name() const {
  std::string name =
      "rfvt[k=" + std::to_string(k_) + ",n=" + std::to_string(n_);
  if (behavior_ != core::RestartBehavior::kRecover) {
    name += std::string(",mutant=") + core::to_string(behavior_);
  }
  return name + "]";
}

std::unique_ptr<SystemInstance> RecoverableFvtSystem::make() const {
  return std::make_unique<RecoverableFvtInstance>(k_, n_, behavior_);
}

AuditMutantSystem::AuditMutantSystem(core::AuditMutant mutant, int n)
    : mutant_(mutant), n_(n) {
  expects(n >= 1, "audit mutant system needs at least one process");
}

std::string AuditMutantSystem::name() const {
  return "audit[mutant=" + core::to_string(mutant_) +
         ",n=" + std::to_string(n_) + "]";
}

std::unique_ptr<SystemInstance> AuditMutantSystem::make() const {
  return std::make_unique<AuditMutantInstance>(mutant_, n_);
}

}  // namespace bss::explore
