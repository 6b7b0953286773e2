// Quickstart: elect a leader among 24 real threads using ONE 5-valued
// compare&swap register (plus plain shared words).
//
// A compare&swap-(k) holds only k distinct values — here k = 5 — yet with
// read/write registers on the side it elects a leader among (k-1)! = 24
// processes, wait-free (Afek & Stupp '94 / FOCS '93).  Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <exception>

#include "core/concurrent_election.h"

int main() try {
  constexpr int kK = 5;        // register holds 5 values: ⊥,1,2,3,4
  constexpr int kThreads = 24; // == (kK-1)! — the algorithm's full capacity

  const bss::core::ConcurrentElectionReport report =
      bss::core::run_concurrent_election(kK, kThreads);

  std::printf("elected leader: id %lld (thread %lld)\n",
              static_cast<long long>(report.leader),
              static_cast<long long>(report.leader - 1000));
  std::printf("all %d threads agree: %s\n", kThreads,
              report.consistent ? "yes" : "NO");

  int max_cas = 0;
  for (const auto& outcome : report.outcomes) {
    if (outcome.cas_accesses > max_cas) max_cas = outcome.cas_accesses;
  }
  std::printf(
      "hardest-working thread touched the compare&swap %d times "
      "(bounded wait-free: <= %d for k=%d)\n",
      max_cas, bss::core::max_iterations(kK), kK);

  // The winning thread can print its own label — the order in which fresh
  // symbols entered the register, which uniquely names the winner.
  std::printf("winning label:");
  for (const int symbol : report.outcomes.front().label) {
    std::printf(" %d", symbol);
  }
  std::printf("\n");
  return report.consistent ? 0 : 1;
} catch (const std::exception& error) {
  std::fprintf(stderr, "quickstart: error: %s\n", error.what());
  return 2;
}
