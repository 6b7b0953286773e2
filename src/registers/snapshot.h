// Wait-free atomic snapshot from SWMR registers
// (Afek, Attiya, Dolev, Gafni, Merritt, Shavit, JACM '93).
//
// The emulation of Section 3 begins every iteration with
// `SnapShot(T, G)` — an atomic read of all shared data structures.  Atomic
// snapshots are implementable wait-free from plain SWMR registers, so using
// them costs the reduction nothing; this module is that implementation, kept
// faithful (double collect + borrowed embedded scans) rather than exploiting
// the simulator's step atomicity.
//
// Each of the n components is owned (written) by one process.  update()
// embeds a full scan in the written cell; scan() double-collects until either
// two identical collects appear (a clean snapshot) or some component is seen
// to move twice, whose embedded view — taken entirely inside this scan's
// window — is borrowed.  Either way the result is linearizable, and the scan
// finishes within O(n^2) reads: bounded wait-free.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "runtime/sim_env.h"

namespace bss::sim {

class AtomicSnapshot {
 public:
  /// `n` components, indexed 0..n-1; component i may be updated by any
  /// process but only one at a time owns it in the intended SWMR usage
  /// (enforce_single_writer controls whether that discipline is checked).
  AtomicSnapshot(std::string_view name, int n, bool enforce_single_writer = true);

  /// Writes `value` to component `component` (embedding a fresh scan).
  void update(Ctx& ctx, int component, std::int64_t value);

  /// Returns a linearizable view of all n components.
  std::vector<std::int64_t> scan(Ctx& ctx) const;

  int component_count() const { return n_; }
  std::string_view name() const { return name_.view(); }

  /// Checker access: current values without simulation steps.
  std::vector<std::int64_t> peek() const;
  /// Number of physical register reads the last scan by `pid` needed
  /// (instrumentation for bench_primitives).
  std::uint64_t reads_in_last_scan(int pid) const;

 private:
  struct Cell {
    std::int64_t value = 0;
    std::uint64_t seq = 0;
    int writer = -1;
    std::vector<std::int64_t> view;  // embedded scan at time of update
  };

  // One collect: reads every cell, one simulation step each.
  std::vector<Cell> collect(Ctx& ctx) const;

  ObjectName name_;
  int n_;
  bool enforce_single_writer_;
  std::vector<Cell> cells_;
  std::vector<ObjectName> cell_names_;  // "name[i]", the objects synced on
  std::vector<int> owners_;  // fixed at first update when enforcing SWMR
  mutable std::vector<std::uint64_t> last_scan_reads_;  // by pid
};

}  // namespace bss::sim
