// Determinism suite for the work-stealing exploration engine: stealing must
// be invisible in the results.  For clean exhaustive sweeps, seeded
// mutants, fault-budget sweeps and a deliberately skewed-subtree workload,
// every worker count must produce results byte-identical to the serial
// explorer — same stats summary, same exhausted verdict, same violations
// in the same order with the same minimized tapes — with and without
// fingerprint pruning.  A telemetry probe additionally proves steals actually
// happen on a busy multi-worker run (the invariance tests would pass
// vacuously if no one ever stole).  The helper-thread tests pin how passes
// share the process's helper threads: a pass reuses idle helpers instead of
// starting threads, and concurrent passes each keep their results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/mutant_elections.h"
#include "expect_identical.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/skewed_system.h"
#include "obs/obs.h"
#include "service/lease_system.h"
#include "util/checked.h"

namespace bss::explore {
namespace {

using core::OneShotMutant;
using core::RestartBehavior;

/// Runs `system` serially, then at every worker count, asserting
/// byte-identical results each time.  Returns the serial result.
ExploreResult expect_steal_invariant(const ExplorableSystem& system,
                                     ExploreOptions options,
                                     std::initializer_list<int> worker_counts) {
  options.jobs = 1;
  ExploreResult serial = explore(system, options);
  for (const int jobs : worker_counts) {
    ExploreOptions stealing = options;
    stealing.jobs = jobs;
    const ExploreResult result = explore(system, stealing);
    expect_identical(serial, result,
                     system.name() + " jobs=" + std::to_string(jobs));
  }
  return serial;
}

// ------------------------------------------------- clean exhaustive sweeps

TEST(StealExplore, CleanOneShotPorIdenticalAcrossWorkers) {
  OneShotSystem system(4, 3);
  expect_steal_invariant(system, {}, {2, 4, 8});
}

TEST(StealExplore, CleanOneShotNaiveCountsExactInterleavings) {
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.use_por = false;
  options.jobs = 4;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_TRUE(result.exhausted);
  // 9 steps, 3 per process: 9!/(3!)^3 — the exact serial count.
  EXPECT_EQ(result.stats.schedules, 1680u);
  expect_steal_invariant(system, options, {2, 4});
}

TEST(StealExplore, IterativePreemptionBoundIdentical) {
  LlScSystem system(3, 2);
  ExploreOptions options;
  options.preemption_bound = 2;
  options.iterative = true;
  expect_steal_invariant(system, options, {4});
  // Pruned: the frozen per-pass cache is shared read-only by the workers and
  // each finished unit's partials fold into the prefix under the pool lock.
  options.fingerprint_prune = true;
  const ExploreResult pruned = expect_steal_invariant(system, options, {2, 4});
  EXPECT_GT(pruned.stats.fingerprint_prunes, 0u);
}

// ------------------------------------------------------- mutant refutation

TEST(StealExplore, ClaimAfterCasMutantIdenticalMinimizedArtifact) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  expect_steal_invariant(system, {}, {2, 4});
}

TEST(StealExplore, SplitCasMutantIdenticalMinimizedArtifact) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  expect_steal_invariant(system, {}, {4, 8});
}

TEST(StealExplore, ScBlindLlScMutantIdenticalMinimizedArtifact) {
  LlScSystem system(3, 2, /*sc_blind=*/true);
  expect_steal_invariant(system, {}, {4});
}

TEST(StealExplore, CollectAllViolationsIdenticalOrderAndTapes) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  ExploreOptions options;
  options.stop_at_first_violation = false;
  options.max_violations = 8;
  expect_steal_invariant(system, options, {2, 4});
}

// The mutant-refutation workload uncapped: naive DFS collecting every one
// of the mutant's violations unminimized, so the merge must order thousands
// of tapes from many stolen units exactly as the serial DFS finds them.
TEST(StealExplore, UncappedCollectAllRefutationIdentical) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  expect_steal_invariant(system, options, {4});
}

// The stop rule across unit boundaries: with the mutant's violations spread
// over many stolen units, a small max_violations cuts the fold inside a
// later unit, and the stop must land on the serial walk's violation.
TEST(StealExplore, ViolationCapCutsInsideLaterUnitsIdentically) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.use_por = false;
  options.minimize = false;
  for (const bool stop_first : {false, true}) {
    for (const std::size_t cap : {1u, 2u, 3u, 5u, 13u, 89u}) {
      options.stop_at_first_violation = stop_first;
      options.max_violations = cap;
      SCOPED_TRACE("stop_at_first_violation=" + std::to_string(stop_first) +
                   " max_violations=" + std::to_string(cap));
      expect_steal_invariant(system, options, {4});
    }
  }
}

// ------------------------------------------------------ fault-budget sweeps

TEST(StealExplore, FaultSweepIdenticalIncludingFaultPoints) {
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  expect_steal_invariant(system, options, {2, 4});
}

TEST(StealExplore, FreshClaimMutantFaultRefutationIdentical) {
  RecoverableFvtSystem system(3, 2, RestartBehavior::kFreshClaim);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;  // the bug needs a restart, not a death
  expect_steal_invariant(system, options, {4});
}

// ----------------------------------------------------- skewed-subtree load

// One long writer against three short writers on a single register: every
// operation pair conflicts, so POR prunes nothing and the DFS is violently
// unbalanced — the shape a fixed prefix-depth split handles worst and
// stealing exists for.
TEST(StealExplore, SkewedSubtreeWorkloadIdenticalAcrossWorkerCounts) {
  SkewedWriterSystem system(4, 6, 1);
  expect_steal_invariant(system, {}, {2, 4, 8});
  // Iterative and pruned: the deep skewed subtrees are where covered keys
  // cut whole stolen units short.
  ExploreOptions options;
  options.preemption_bound = 3;
  options.iterative = true;
  options.fingerprint_prune = true;
  const ExploreResult pruned = expect_steal_invariant(system, options, {2, 4});
  EXPECT_GT(pruned.stats.fingerprint_prunes, 0u);
}

TEST(StealExplore, SkewedWorkloadNaiveNoPorIdentical) {
  SkewedWriterSystem system(3, 4, 2);
  ExploreOptions options;
  options.use_por = false;
  expect_steal_invariant(system, options, {4});
}

// ------------------------------------------------------ steals really occur

// The invariance tests above would pass vacuously if no worker ever stole;
// this probe pins the mechanism: a 4-worker no-POR sweep of a 1680-schedule
// space must record at least one steal (worker 0 cannot drain a 4-process
// root subtree before anyone else wakes up).
TEST(StealExplore, BusyMultiWorkerRunActuallySteals) {
  OneShotSystem system(4, 3);
  obs::Telemetry::Options sink_options;
  sink_options.metrics = true;
  obs::Telemetry telemetry(sink_options);
  ExploreOptions options;
  options.use_por = false;
  options.jobs = 4;
  options.telemetry = &telemetry;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.ok()) << result.summary();
  const obs::MetricsSnapshot snapshot = telemetry.metrics_snapshot();
  const auto it = snapshot.counters.find("explore.steals");
  ASSERT_NE(it, snapshot.counters.end())
      << "no explore.steals counter recorded";
  EXPECT_GE(it->second, 1u);
}

// -------------------------------------------- publishes and helper threads

/// The mutant-refutation shape: naive DFS collecting every violation of the
/// claim-after-cas mutant, unminimized.
ExploreOptions collect_all_options() {
  ExploreOptions options;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 20;
  options.minimize = false;
  return options;
}

// An owner publishes only what it found since its last publish; the
// violations_found metric must still count every violation once.
TEST(StealExplore, ViolationsFoundMetricCountsEveryViolation) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  for (const int jobs : {1, 4}) {
    obs::Telemetry::Options sink_options;
    sink_options.metrics = true;
    obs::Telemetry telemetry(sink_options);
    ExploreOptions options = collect_all_options();
    options.jobs = jobs;
    options.telemetry = &telemetry;
    const ExploreResult result = explore(system, options);
    ASSERT_FALSE(result.violations.empty());
    EXPECT_EQ(telemetry.metrics_snapshot().counters.at(
                  "explore.violations_found"),
              result.violations.size())
        << "jobs=" << jobs;
  }
}

std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(begin(tasks), std::filesystem::directory_iterator{}));
}

// Helpers live for the process: once a jobs=4 pass has run, another one
// finds its helpers idle and starts no thread.  The count is sampled at
// every instantiation, i.e. while the second pass's workers run.
TEST(HelperThreads, SecondExploreStartsNoThread) {
  const OneShotSystem inner(3, 2);
  std::mutex mu;
  std::size_t most = 0;
  const FactorySystem system(inner.name(), inner.process_count(), [&] {
    const std::size_t now = thread_count();
    const std::lock_guard<std::mutex> lock(mu);
    most = std::max(most, now);
    return inner.make();
  });
  ExploreOptions options;
  options.use_por = false;
  options.jobs = 4;
  ASSERT_TRUE(explore(system, options).ok());
  const std::size_t before = thread_count();
  most = 0;
  ASSERT_TRUE(explore(system, options).ok());
  EXPECT_EQ(most, before);
  EXPECT_EQ(thread_count(), before);
}

// Three passes share the helpers at once; each must still match its own
// serial run exactly.
TEST(HelperThreads, ConcurrentExploresMatchTheirSerialRuns) {
  OneShotSystem split_cas(4, 2, OneShotMutant::kSplitCas);
  SkewedWriterSystem skewed(3, 4, 2);
  service::LeaseConfig lease_config;
  lease_config.n = 2;
  lease_config.renewals = 0;
  lease_config.acquire_attempts = 1;
  lease_config.sc_retries = 0;
  service::LeaseServiceSystem lease(lease_config);

  struct Run {
    const ExplorableSystem* system;
    ExploreOptions options;
    ExploreResult serial;
    ExploreResult parallel;
  };
  std::vector<Run> runs(3);
  runs[0].system = &split_cas;
  runs[0].options = collect_all_options();
  runs[1].system = &skewed;
  runs[1].options.preemption_bound = 3;
  runs[1].options.iterative = true;
  runs[1].options.fingerprint_prune = true;
  runs[2].system = &lease;
  runs[2].options.fault_bound = 1;
  runs[2].options.preemption_bound = 1;
  for (Run& run : runs) {
    run.options.jobs = 1;
    run.serial = explore(*run.system, run.options);
    run.options.jobs = 4;
  }
  std::vector<std::thread> drivers;
  for (Run& run : runs) {
    drivers.emplace_back(
        [&run] { run.parallel = explore(*run.system, run.options); });
  }
  for (std::thread& driver : drivers) driver.join();
  for (const Run& run : runs) {
    expect_identical(run.serial, run.parallel, run.system->name());
  }
  EXPECT_FALSE(runs[0].serial.violations.empty());
  EXPECT_GT(runs[1].serial.stats.fingerprint_prunes, 0u);
  EXPECT_GT(runs[2].serial.stats.faults_injected, 0u);
}

// ------------------------------------------------- the BSS_EXPLORE_JOBS knob

/// Sets BSS_EXPLORE_JOBS for one scope and restores what was there (CI
/// reruns this binary with the variable exported).
class ScopedJobsEnv {
 public:
  explicit ScopedJobsEnv(const char* value) {
    if (const char* old = std::getenv("BSS_EXPLORE_JOBS"); old != nullptr) {
      saved_ = old;
    }
    EXPECT_EQ(setenv("BSS_EXPLORE_JOBS", value, 1), 0);
  }
  ~ScopedJobsEnv() {
    if (saved_.has_value()) {
      setenv("BSS_EXPLORE_JOBS", saved_->c_str(), 1);
    } else {
      unsetenv("BSS_EXPLORE_JOBS");
    }
  }
  ScopedJobsEnv(const ScopedJobsEnv&) = delete;
  ScopedJobsEnv& operator=(const ScopedJobsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The worker count explore() resolved for `options`, read back from the
/// explore.jobs gauge.
std::uint64_t resolved_jobs(ExploreOptions options) {
  obs::Telemetry::Options sink_options;
  sink_options.metrics = true;
  obs::Telemetry telemetry(sink_options);
  options.telemetry = &telemetry;
  (void)explore(OneShotSystem(3, 2), options);
  return telemetry.metrics_snapshot().gauges.at("explore.jobs");
}

TEST(StealExplore, JobsEnvIsReadOnEveryCall) {
  {
    const ScopedJobsEnv env("2");
    EXPECT_EQ(resolved_jobs({}), 2u);
  }
  {
    const ScopedJobsEnv env("3");
    EXPECT_EQ(resolved_jobs({}), 3u);
    ExploreOptions explicit_jobs;
    explicit_jobs.jobs = 1;
    EXPECT_EQ(resolved_jobs(explicit_jobs), 1u);  // explicit values win
  }
  {
    const ScopedJobsEnv env("100");
    EXPECT_EQ(resolved_jobs({}), 64u);  // clamps like an explicit jobs
  }
}

TEST(StealExplore, JobsEnvRejectsMalformedValues) {
  // A malformed count is an error, never a silent serial run.
  for (const char* bad : {"abc", "4x", "0", "-2", " 4", ""}) {
    const ScopedJobsEnv env(bad);
    try {
      (void)explore(OneShotSystem(3, 2), {});
      ADD_FAILURE() << "BSS_EXPLORE_JOBS='" << bad << "' was accepted";
    } catch (const InvariantError& error) {
      EXPECT_NE(std::string(error.what()).find("BSS_EXPLORE_JOBS"),
                std::string::npos)
          << error.what();
    }
    ExploreOptions explicit_jobs;
    explicit_jobs.jobs = 2;  // an explicit count never consults the variable
    EXPECT_TRUE(explore(OneShotSystem(3, 2), explicit_jobs).ok());
  }
}

}  // namespace
}  // namespace bss::explore
