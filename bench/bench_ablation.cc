// Ablation — why each helping mechanism in the election is load-bearing.
//
// The FirstValueTree election has two helping rules (DESIGN.md §4):
//   H1 (help-others):     a process whose slot fell out of the race pushes
//                         the smallest announced surviving slot forward;
//   H2 (helper-confirm):  a process observing an unconfirmed install through
//                         a failed c&s confirms it itself.
// Removing either must break *wait-freedom under crashes* (never safety):
// survivors start returning "gave up" when the crashed process was the one
// the removed rule would have substituted for.  This bench measures decide
// rates across crash storms for the three policies.  Shape: the full
// algorithm decides 100%; each ablation leaves survivors stranded in some
// runs; no policy ever produces two leaders.
#include <cstdio>

#include "bench_flags.h"
#include "bench_report.h"
#include "core/election_validator.h"
#include "core/sim_election.h"
#include "util/checked.h"
#include "util/rng.h"

namespace {

struct AblationRow {
  const char* name;
  bss::core::ElectPolicy policy;
};

void run_policy(const AblationRow& row, int k, int n, int trials,
                bss::bench::BenchReport& bench_report) {
  int decided_all = 0;
  int gave_up_runs = 0;
  int inconsistent = 0;
  bss::Rng rng(4242);
  for (int trial = 0; trial < trials; ++trial) {
    const auto crashes = bss::sim::FaultPlan::random_crashes(n, 0.45, 12, rng);
    bss::sim::RandomScheduler scheduler(static_cast<std::uint64_t>(trial));
    bss::core::SimElectionOptions options;
    options.policy = row.policy;
    const auto report =
        bss::core::run_sim_election(k, n, scheduler, crashes, options);
    bool all_decided = true;
    bool any_gave_up = false;
    std::int64_t leader = bss::core::kNoId;
    bool consistent = true;
    for (int pid = 0; pid < n; ++pid) {
      if (report.run.outcomes[static_cast<std::size_t>(pid)] !=
          bss::sim::ProcOutcome::kFinished) {
        continue;
      }
      const auto& outcome = report.outcomes[static_cast<std::size_t>(pid)];
      if (!outcome.has_value() || outcome->gave_up ||
          outcome->leader == bss::core::kNoId) {
        all_decided = false;
        any_gave_up = any_gave_up || (outcome.has_value() && outcome->gave_up);
        continue;
      }
      if (leader == bss::core::kNoId) leader = outcome->leader;
      if (outcome->leader != leader) consistent = false;
    }
    if (all_decided) ++decided_all;
    if (any_gave_up) ++gave_up_runs;
    if (!consistent) ++inconsistent;
  }
  std::printf("%-22s %10.0f%% %12d %14d\n", row.name,
              100.0 * decided_all / trials, gave_up_runs, inconsistent);
  bss::obs::json::Object object;
  object.emplace("policy", row.name);
  object.emplace("trials", trials);
  object.emplace("all_decided_runs", decided_all);
  object.emplace("gave_up_runs", gave_up_runs);
  object.emplace("inconsistent_runs", inconsistent);
  bench_report.row(std::move(object));
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_ablation");
  constexpr int kK = 5;
  constexpr int kN = 24;
  constexpr int kTrials = 60;
  std::printf(
      "ablation of the election's helping rules (k=%d, n=%d, %d crash-storm "
      "trials, 45%% crash probability)\n\n",
      kK, kN, kTrials);
  std::printf("%-22s %11s %12s %14s\n", "policy", "all-decide",
              "gave-up-runs", "inconsistent");

  AblationRow rows[3];
  rows[0] = {"full algorithm", {}};
  rows[1] = {"no help-others", {}};
  rows[1].policy.help_others = false;
  rows[1].policy.allow_incomplete = true;
  rows[2] = {"no helper-confirm", {}};
  rows[2].policy.helper_confirm = false;
  rows[2].policy.allow_incomplete = true;

  for (const auto& row : rows) run_policy(row, kK, kN, kTrials, report);

  std::printf(
      "\nshape: removing either helping rule costs only LIVENESS (give-ups\n"
      "appear under crashes) and never SAFETY (zero inconsistent runs) —\n"
      "the algorithm degrades the way the wait-freedom argument predicts.\n");
  report.finalize();
  return 0;
}
