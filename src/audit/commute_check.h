// Differential validation of the POR commutation oracle.
//
// Sleep-set reduction prunes an interleaving exactly when the oracle
// (explore::ops_commute) says the reordered pair is independent — so an
// oracle that ever calls a conflicting pair independent silently removes
// the schedules that could refute a buggy system.  This module tests the
// oracle *dynamically*: given the complete decision tape of a run, it finds
// adjacent grant pairs the oracle calls independent, replays the run with
// the pair swapped on a private SimEnv, and demands byte-identical results
// — the full trace (modulo the swapped pair itself), the RunReport, the
// property verdict, and the instance's state fingerprint.  Any difference
// means the two operations did NOT commute and the oracle was wrong.
//
// Both orders of an adjacent pair are legal schedules (each process was
// already parked on its operation before the pair began), so a swapped tape
// always replays; an entry turning inapplicable mid-replay is itself
// evidence of non-commutation and is reported as a mismatch.
//
// The oracle arrives as a parameter (bss_audit does not link bss_explore;
// it uses only the header-only system interfaces, and replays through
// SimEnv::apply), so tests can also probe deliberately wrong oracles.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "explore/system.h"
#include "runtime/trace.h"

namespace bss::audit {

using CommuteOracle =
    std::function<bool(const sim::OpDesc&, const sim::OpDesc&)>;

struct CommuteCheckOptions {
  /// Step limit for every replay (baseline and swapped).
  std::uint64_t max_depth = 4096;
  /// Adjacent independent pairs replayed per tape (earliest first); 0 means
  /// all of them.
  std::size_t max_swaps = 64;
  /// Stop after this many mismatches (each one already refutes the oracle).
  std::size_t max_mismatches = 8;
};

/// One refutation of the oracle: the swapped replay diverged.
struct CommuteMismatch {
  std::size_t tape_index = 0;  ///< position of the pair's first decision
  int first_pid = -1;
  int second_pid = -1;
  sim::OpDesc first;
  sim::OpDesc second;
  std::string detail;  ///< which comparison failed, human-readable
};

struct CommuteCheckReport {
  /// False iff the baseline tape did not replay cleanly (foreign or stale
  /// tape); no pairs are checked in that case.
  bool baseline_ok = false;
  std::uint64_t pairs_considered = 0;  ///< adjacent pairs oracle called independent
  std::uint64_t swaps_replayed = 0;
  std::vector<CommuteMismatch> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string summary() const;
};

/// Replays `tape` on fresh instances of `system` and cross-checks every
/// adjacent independent pair (per `commutes`) by swapped replay.
CommuteCheckReport cross_check_commutation(
    const explore::ExplorableSystem& system, const std::vector<int>& tape,
    const CommuteOracle& commutes, const CommuteCheckOptions& options = {});

}  // namespace bss::audit
