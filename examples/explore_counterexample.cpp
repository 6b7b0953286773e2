// explore_counterexample — end-to-end tour of the schedule explorer.
//
// With no arguments: explores a seeded one-shot election mutant (split-cas,
// a classic read-then-write TOCTOU race), prints the minimized
// counterexample artifact to stdout and diagnostics to stderr.  Save the
// artifact and pass it back as a file argument to replay it verbatim:
//
//   ./explore_counterexample > cex.txt
//   ./explore_counterexample cex.txt
//
// The replay exits 0 only when ReplayScheduler reproduced the violation
// with zero divergences, i.e. the artifact still drives this build of the
// code end to end.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"

namespace {

bss::explore::OneShotSystem make_system() {
  return bss::explore::OneShotSystem(4, 2,
                                     bss::core::OneShotMutant::kSplitCas);
}

int explore_and_print() {
  const bss::explore::OneShotSystem system = make_system();
  std::cerr << "exploring " << system.name() << " ...\n";
  const bss::explore::ExploreResult result = bss::explore::explore(system);
  std::cerr << result.summary() << "\n";
  if (result.ok()) {
    std::cerr << "no violation found (did someone fix the mutant?)\n";
    return 1;
  }
  const bss::explore::Counterexample& cex = result.violations.front();
  std::cerr << "violation: " << cex.violation << "\n"
            << "minimized " << cex.shrunk_from << " -> "
            << cex.decisions.size() << " decisions\n";
  std::cout << cex.to_artifact();
  return 0;
}

int replay_from_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto cex = bss::explore::Counterexample::from_artifact(buffer.str());
  if (!cex) {
    std::cerr << path << " is not a bss-counterexample artifact\n";
    return 1;
  }
  const bss::explore::OneShotSystem system = make_system();
  if (cex->system != system.name()) {
    std::cerr << "artifact is for " << cex->system << ", this binary replays "
              << system.name() << "\n";
    return 1;
  }
  const bss::explore::ReplayOutcome outcome =
      bss::explore::replay_counterexample(system, *cex);
  std::cerr << "replayed " << cex->decisions.size() << " decisions, "
            << outcome.divergences << " divergences\n";
  if (!outcome.violated) {
    std::cerr << "violation did not reproduce\n";
    return 1;
  }
  std::cerr << "reproduced: " << outcome.violation << "\n";
  return outcome.divergences == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc > 2) {
    std::cerr << "usage: " << argv[0] << " [artifact-file]\n";
    return 2;
  }
  return argc == 2 ? replay_from_file(argv[1]) : explore_and_print();
} catch (const std::exception& error) {
  std::cerr << "explore_counterexample: error: " << error.what() << "\n";
  return 2;
}
