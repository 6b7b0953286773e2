// fault_tour — end-to-end tour of the crash-recovery fault model.
//
// With no arguments, the tour runs four acts and prints what happens:
//
//   1. A single crash-restart injected into a recoverable FirstValueTree
//      election: the victim loses all private state, re-enters through its
//      restart hook, and the election still satisfies every invariant.
//   2. A randomized crash-restart storm (100 seeds), validated seed by seed.
//   3. An exhaustive single-fault sweep over the restartable one-shot
//      election: every crash and restart point, zero violations.
//   4. The seeded recovery-UNSAFE mutant (each incarnation rejoins as a
//      brand-new participant): the fault explorer refutes it and prints the
//      minimized `bss-counterexample v2` artifact to stdout.
//
// Save the artifact and pass it back as a file argument to replay the
// faulty schedule verbatim:
//
//   ./fault_tour > mutant.bss-cex
//   ./fault_tour mutant.bss-cex
//
// The replay exits 0 only when the violation reproduced with zero
// divergences — schedule AND faults re-executed from the tape.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/election_validator.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "util/rng.h"

namespace {

bss::explore::RecoverableFvtSystem make_mutant() {
  return bss::explore::RecoverableFvtSystem(
      3, 2, bss::core::RestartBehavior::kFreshClaim);
}

bss::explore::ExploreOptions mutant_options() {
  bss::explore::ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;  // the bug needs a restart, not a death
  return options;
}

int replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto cex = bss::explore::Counterexample::from_artifact(text.str());
  if (!cex) {
    std::cerr << "not a bss-counterexample artifact: " << path << "\n";
    return 2;
  }
  const auto system = make_mutant();
  const auto outcome =
      bss::explore::replay_counterexample(system, *cex, mutant_options());
  std::cerr << "replayed " << cex->decisions.size() << " decisions ("
            << cex->fault_count() << " faults), divergences="
            << outcome.divergences << "\n";
  if (!outcome.violated || outcome.divergences != 0) {
    std::cerr << "replay did NOT reproduce the violation verbatim\n";
    return 1;
  }
  std::cerr << "reproduced: " << outcome.violation << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc > 1) return replay(argv[1]);

  // Act 1: one surgical crash-restart.
  {
    bss::sim::FaultPlan plan;
    plan.restart_before_op(0, 4);  // p0 dies mid-protocol and comes back
    bss::sim::RoundRobinScheduler scheduler;
    const auto report =
        bss::core::run_recoverable_sim_election(3, 2, scheduler, plan);
    const auto verdict = bss::core::verify_election(report.election);
    std::cerr << "[1] restart p0 before its op 4: restarts="
              << report.restarts_by_pid[0] << ", invariants "
              << (verdict.ok() ? "hold" : verdict.diagnosis) << "\n";
  }

  // Act 2: a hundred random storms.
  {
    int bad = 0;
    int restarted = 0;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
      bss::Rng rng(seed);
      const auto plan = bss::sim::FaultPlan::random(6, 0.2, 0.5, 0.0, 30, rng);
      bss::sim::RandomScheduler scheduler(seed * 31 + 7);
      const auto report =
          bss::core::run_recoverable_sim_election(4, 6, scheduler, plan);
      if (!bss::core::verify_election(report.election).ok()) ++bad;
      if (report.election.run.restarted_count() > 0) ++restarted;
    }
    std::cerr << "[2] 100-seed crash-restart storm: " << restarted
              << " runs saw restarts, " << bad << " violations\n";
  }

  // Act 3: exhaustive single-fault sweep of a correct election.
  {
    bss::explore::OneShotSystem system(4, 2, bss::core::OneShotMutant::kNone,
                                       /*restartable=*/true);
    bss::explore::ExploreOptions options;
    options.fault_bound = 1;
    options.iterative = true;
    const auto result = bss::explore::explore(system, options);
    std::cerr << "[3] exhaustive single-fault sweep: " << result.summary()
              << "\n";
  }

  // Act 4: refute the recovery-unsafe mutant, emit the v2 artifact.
  const auto system = make_mutant();
  const auto result = bss::explore::explore(system, mutant_options());
  if (result.ok()) {
    std::cerr << "[4] mutant unexpectedly survived: " << result.summary()
              << "\n";
    return 1;
  }
  const auto& cex = result.violations.front();
  std::cerr << "[4] refuted " << system.name() << " with "
            << cex.decisions.size() << " decisions (" << cex.fault_count()
            << " faults, shrunk from " << cex.shrunk_from
            << "); artifact on stdout\n";
  std::cout << cex.to_artifact();
  return 0;
} catch (const std::exception& error) {
  std::cerr << "fault_tour: error: " << error.what() << "\n";
  return 2;
}
