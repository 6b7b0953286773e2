#include "service/lease_system.h"

#include <optional>
#include <sstream>

#include "service/lease_ledger.h"
#include "service/lease_service.h"
#include "service/sim_platform.h"

namespace bss::service {

namespace {

class LeaseInstance final : public explore::SystemInstance {
 public:
  LeaseInstance(const LeaseConfig& config, LeaseMutant mutant)
      : config_(config), mutant_(mutant), state_(config) {}

  void populate(sim::SimEnv& env) override {
    for (int pid = 0; pid < config_.n; ++pid) {
      const auto program = [this, pid](sim::Ctx& ctx) {
        (void)pid;
        SimLeasePlatform plat(ctx, state_);
        run_lease_session(plat, ledger_, config_, mutant_);
      };
      // The session is its own restart hook: a fresh incarnation lost its
      // locals and re-enters acquisition, where its own stale registration
      // is waited out like any other holder's.
      env.add_process(program, program);
    }
  }

  std::optional<std::string> check(const sim::SimEnv&,
                                   const sim::RunReport& report) override {
    for (int pid = 0; pid < config_.n; ++pid) {
      const auto outcome = report.outcomes[static_cast<std::size_t>(pid)];
      if (outcome == sim::ProcOutcome::kCrashed) continue;  // adversary's move
      if (outcome == sim::ProcOutcome::kFinished) continue;
      // Appended, not `"p" + std::to_string(pid) + ...`: GCC 12 reports a
      // false -Wrestrict on that form in optimized builds.
      std::string message = "p";
      message += std::to_string(pid);
      if (outcome == sim::ProcOutcome::kFailed) {
        message += " failed: ";
        message += report.errors[static_cast<std::size_t>(pid)];
      } else {
        message += " never finished";
      }
      return message;
    }
    return ledger_.check();
  }

  std::string fingerprint(const sim::SimEnv& env) override {
    std::ostringstream out;
    out << "holder=" << state_.holder.peek() << ";expiry=[";
    for (const auto& reg : state_.expiry) out << reg.peek() << ',';
    out << "];clock=" << env.virtual_now() << ';' << ledger_.fingerprint();
    return out.str();
  }

 private:
  LeaseConfig config_;
  LeaseMutant mutant_;
  LeaseSharedState state_;
  LeaseLedger ledger_;
};

}  // namespace

LeaseServiceSystem::LeaseServiceSystem(LeaseConfig config, LeaseMutant mutant)
    : config_(config), mutant_(mutant) {
  config_.validate();
}

std::string LeaseServiceSystem::name() const {
  std::ostringstream out;
  out << "lease[n=" << config_.n << ",term=" << config_.term
      << ",margin=" << config_.renew_margin
      << ",renewals=" << config_.renewals
      << ",attempts=" << config_.acquire_attempts
      << ",sc_retries=" << config_.sc_retries;
  if (mutant_ != LeaseMutant::kNone) out << ",mutant=" << to_string(mutant_);
  out << ']';
  return out.str();
}

int LeaseServiceSystem::process_count() const { return config_.n; }

std::unique_ptr<explore::SystemInstance> LeaseServiceSystem::make() const {
  return std::make_unique<LeaseInstance>(config_, mutant_);
}

}  // namespace bss::service
