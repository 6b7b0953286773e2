// The benchmark's four frozen workloads over the public explore() API.
//
// A workload is a list of jobs (system + ExploreOptions + the deterministic
// counters recorded for it) that one closed-loop *pass* runs in order.  The
// seed picks one member of a family the benchmark fixes; every member stays
// inside the workload's size band, and seed 0 is the reference member:
//
//   mutant-refutation  OneShot(k, 3) x {claim-after-cas, split-cas}, naive
//                      DFS, collect-all, minimize off, jobs=4; k = 4 + seed%6
//   skewed-iterative   one long writer (7 writes) and three short writers
//                      (2 writes) on one register, iterative pb=4, POR off,
//                      fingerprint pruning, jobs=4; long-writer pid = seed%4
//   lease-prefix       LeaseServiceSystem n=3, fault_bound=1 (crash, restart,
//                      spurious SC), POR on, pb=1, jobs=4, checkpoints;
//                      seed%6 picks the timing constants and backoff seed
//   refute             seven seeded mutants refuted at jobs=1 with default
//                      options (stop at first, minimize on), each artifact
//                      round-tripped and replayed; one-shot k = 4 + seed%4
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/explore.h"

namespace perfbench {

/// The deterministic counters of one explore() call.  A pass is correct only
/// if every job reproduces its recorded row exactly.
struct Counters {
  std::uint64_t schedules = 0;
  std::uint64_t transitions = 0;
  std::uint64_t violations = 0;
  std::uint64_t sleep_set_prunes = 0;
  std::uint64_t preemption_prunes = 0;
  std::uint64_t fault_prunes = 0;
  std::uint64_t fingerprint_prunes = 0;
  std::uint64_t timer_grants = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t shrink_runs = 0;
  bool exhausted = false;

  static Counters of(const bss::explore::ExploreResult& result);
  bool operator==(const Counters&) const = default;
  std::string str() const;
};

/// What a refute job's audit layer must report.
enum class AuditFinding { kNone, kLedger, kCommute };

struct Job {
  std::unique_ptr<bss::explore::ExplorableSystem> system;
  bss::explore::ExploreOptions options;
  Counters expected;
  /// Refute jobs time and check the whole refutation: explore, then
  /// to_artifact -> from_artifact -> replay_counterexample.
  bool refute = false;
  AuditFinding audit_finding = AuditFinding::kNone;
  /// False where arbitrary schedules can drive the system's seeded bug out
  /// of bounds (sc-blind LL/SC indexes past its confirm registers), so the
  /// runtime probe's random schedules skip it; explore() only ever runs the
  /// recorded, checked schedule prefix up to the first violation.
  bool random_schedules_safe = true;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  int member = 0;  ///< family member the seed picked
  int jobs = 1;    ///< explorer workers (ExploreOptions::jobs of every job)
  /// Pinned serial workloads: call pin_to_next_cpu() before each job.
  bool rotate_cpus = false;
  std::vector<Job> work;
  /// Covered schedules per pass: the sum of ExploreStats::schedules, except
  /// on skewed-iterative, where it is the same sweep's recorded prune-off
  /// count (so a smarter cache is not penalised for running fewer).
  std::uint64_t covered = 0;
};

/// Builds `name`'s family member for `seed`.  `scratch_dir` receives the
/// lease-prefix checkpoint artifact.  With `pinned`, each explorer worker
/// runs on a CPU of its own (see workloads.cc); otherwise the kernel places
/// the threads, as it does for explore()'s users.  Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, int jobs,
                       const std::string& scratch_dir, bool pinned = true);

/// Pins the calling thread, and the SimEnv threads it starts from then on,
/// to the process's next CPU in turn (see workloads.cc).
void pin_to_next_cpu();

/// Between these calls, every make() of a workload's systems records the
/// time since the same worker's previous make() call; stop returns those
/// instantiation times, in ms.  Nothing is recorded outside them.
void start_make_clock();
std::vector<double> stop_make_clock();

/// Result of running one job without tracing.
struct JobOutcome {
  bss::explore::ExploreResult result;
  double wall_s = 0;
  /// Refute jobs: the round-tripped artifact's replay.
  bss::explore::ReplayOutcome replay;
  std::size_t artifact_len = 0;  ///< decisions after the round trip
  bool round_trip_ok = true;
};

/// Runs one job (and, for refute jobs, its artifact round trip and replay)
/// and times it.
JobOutcome run_job(const Job& job);

/// Every way `outcome` departs from the job's recorded counters and, for
/// refute jobs, from a minimized, round-tripped, replay-confirmed
/// counterexample with the expected audit finding.  Empty means correct.
std::vector<std::string> check_job(const Job& job, const JobOutcome& outcome);

/// Prints the recorded-counter rows of every family member of `name`,
/// explored serially (jobs=1), as C++ initializers for workloads.cc.
void record_expectations(const std::string& name);

}  // namespace perfbench
