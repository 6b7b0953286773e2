// A guided tour of Herlihy's hierarchy — every claim machine-checked as you
// watch.
//
// The paper refines the hierarchy's top level by object SIZE; this tour
// walks the levels below it with the exhaustive checker: read/write
// registers can't do 2-consensus, test&set does exactly 2, a
// compare&swap-(k) without helpers tops out at k-1, and sticky registers
// (or unbounded c&s) go all the way up — at the price of unbounded supply,
// which the universal construction makes concrete.
#include <cstdio>
#include <exception>

#include "checker/bivalence.h"
#include "checker/consensus_check.h"
#include "checker/protocols.h"
#include "hierarchy/universal.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace {

const std::vector<int> kBinary{0, 1};

void show(const bss::check::Protocol& protocol, const char* story) {
  const auto inputs =
      bss::check::all_input_vectors(protocol.process_count(), kBinary);
  const auto result = bss::check::check_consensus(protocol, inputs);
  std::printf("%-14s n=%d: %s\n", protocol.name().c_str(),
              protocol.process_count(),
              result.solves ? "SOLVES consensus" : "fails");
  if (!result.solves) {
    std::printf("   counterexample (%s): schedule", result.detail.c_str());
    for (const int pid : result.schedule) std::printf(" p%d", pid);
    std::printf("  under inputs");
    for (const int input : result.inputs) std::printf(" %d", input);
    std::printf("\n");
  }
  std::printf("   %s\n\n", story);
}

}  // namespace

int main() try {
  std::printf("=== level 1: read/write registers ===\n");
  bss::check::RwWriteReadConsensus rw;
  show(rw,
       "the natural write-then-read protocol disagrees: FLP/Loui-Abu-Amara, "
       "as a concrete schedule.");
  bss::check::RwSpinConsensus rw_spin;
  show(rw_spin,
       "a 'safe' variant never disagrees - but then it must WAIT, and the "
       "checker schedules the waiter forever: no wait-free consensus from "
       "registers.");

  std::printf("=== level 2: test&set ===\n");
  bss::check::TasConsensus2 tas2;
  show(tas2, "two processes: the bit decides, the loser deduces the winner.");
  bss::check::TasSpinConsensus3 tas3;
  show(tas3,
       "three processes: a loser cannot tell WHICH of the other two won - "
       "it must wait. Consensus number of test&set: exactly 2.");

  std::printf("=== the top level, refined by size (the paper) ===\n");
  bss::check::CasConsensusK cas_ok(3, 4);
  show(cas_ok, "a compare&swap-(4): three processes claim distinct symbols.");
  bss::check::CasConsensusK cas_overloaded(4, 4);
  show(cas_overloaded,
       "the same object with four processes: two must share a symbol, and "
       "sharing breaks agreement - BOUNDED SIZE LIMITS POWER. The paper "
       "quantifies exactly this: n_k = O(k^(k^2+3)), and (k-1)! is "
       "achievable with read/write helpers.");

  std::printf("=== valency, counted ===\n");
  const auto valency = bss::check::analyze_valency(tas2, {0, 1});
  std::printf("tas-2 on inputs {0,1}: %s\n\n", valency.summary().c_str());

  std::printf("=== universality (Herlihy [10]) ===\n");
  bss::hierarchy::UniversalObject queue("queue", bss::hierarchy::queue_spec(),
                                        3, 24);
  bss::sim::SimEnv env;
  std::vector<long long> got(3, -2);
  for (int pid = 0; pid < 3; ++pid) {
    env.add_process([&, pid](bss::sim::Ctx& ctx) {
      queue.invoke(ctx, 1 + pid);              // enqueue pid
      got[static_cast<std::size_t>(pid)] = queue.invoke(ctx, 0);  // dequeue
    });
  }
  bss::sim::RandomScheduler scheduler(42);
  env.run(scheduler);
  std::printf(
      "a wait-free FIFO queue built from consensus cells: dequeues = "
      "%lld %lld %lld (distinct, all enqueued)\n",
      got[0], got[1], got[2]);
  std::printf(
      "...but it consumed %d consensus cells for 6 operations: universality "
      "eats an unbounded supply. A single bounded object cannot do that - "
      "which is the paper's question, answered.\n",
      queue.log_length());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "hierarchy_tour: error: %s\n", error.what());
  return 2;
}
