// Phase self-profiler (DESIGN.md §12): scoped wall-time accumulation into a
// closed set of engine phases, answering "where did the time go" for a
// campaign without touching the deterministic channel.  The accumulated
// table is emitted as the `profile` section of `bss-runreport v1` and
// mirrored into the live `bss-status v1` heartbeat.
//
// Passivity contract: a ScopedPhase constructed against a null profiler is
// inert — one pointer test, zero timer calls, no allocation — so hot loops
// can be instrumented unconditionally.  Wall-clock readings live only in
// the accumulated nanosecond totals, which are quarantined alongside the
// `timing` sections of the artifacts that carry them; phases nest and
// overlap (step includes the audit cross-check, ddmin includes its replay
// runs), so the table is orientation, not a disjoint accounting.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

#include "obs/json.h"

namespace bss::obs {

/// The closed phase set.  Adding a phase means adding an enumerator here
/// and a JSON name in kPhaseNames — read_profile, which both the runreport
/// and status walks call, rejects names outside this list.
enum class Phase : int {
  kReplay = 0,       ///< re-running a recorded tape through the simulator
  kStep,             ///< executing one fresh schedule (run_one)
  kMerge,            ///< folding per-worker partial results
  kDdmin,            ///< counterexample minimization
  kAudit,            ///< access-ledger commutation cross-checks
  kCheckpointWrite,  ///< serializing + renaming a checkpoint artifact
  kStatusWrite,      ///< serializing + renaming a status heartbeat
};

inline constexpr int kPhaseCount = 7;

inline constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "replay",  "step",  "merge", "ddmin",
    "audit",   "checkpoint_write", "status_write",
};

/// True iff `name` is one of the closed phase names above.
constexpr bool is_phase_name(std::string_view name) {
  for (const std::string_view known : kPhaseNames) {
    if (known == name) return true;
  }
  return false;
}

/// Reads a `profile` section against the closed phase set: every member is
/// a phase named in kPhaseNames holding exactly the non-negative `calls`
/// and `ns` counters.  Shared by the runreport and status walks.
void read_profile(json::Reader section);

/// Thread-safe accumulator: per-phase {calls, ns} cells bumped with relaxed
/// atomics (totals are exact, cross-phase ordering is irrelevant).  One
/// instance is shared by every worker of a run.
class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  void add(Phase phase, std::uint64_t ns) {
    Cell& cell = cells_[static_cast<std::size_t>(phase)];
    cell.calls.fetch_add(1, std::memory_order_relaxed);
    cell.ns.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t calls(Phase phase) const {
    return cells_[static_cast<std::size_t>(phase)].calls.load(
        std::memory_order_relaxed);
  }
  std::uint64_t ns(Phase phase) const {
    return cells_[static_cast<std::size_t>(phase)].ns.load(
        std::memory_order_relaxed);
  }

  /// True once any phase has recorded at least one interval.
  bool has_data() const;

  /// { "<phase>": {"calls": N, "ns": N}, … } for every phase with calls > 0
  /// — the `profile` section shape shared by runreport and status.
  json::Object to_json() const;

  /// Monotonic nanoseconds: the one clock read in src/.  Phase intervals,
  /// timeline spans and explore()'s runreport wall time all go through it,
  /// so the clock (and its lint suppression) lives in exactly one place.
  static std::uint64_t now_ns();

 private:
  struct Cell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  std::array<Cell, kPhaseCount> cells_;
};

/// RAII interval: records [construction, destruction) into `profiler` under
/// `phase`.  Null profiler == fully inert (the passivity contract).
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase),
        begin_ns_(profiler ? PhaseProfiler::now_ns() : 0) {}
  ~ScopedPhase() {
    if (profiler_ != nullptr) {
      profiler_->add(phase_, PhaseProfiler::now_ns() - begin_ns_);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_;
  Phase phase_;
  std::uint64_t begin_ns_;
};

}  // namespace bss::obs
