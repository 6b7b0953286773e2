// bench_audit — the access-ledger soundness auditor's certificate
// (DESIGN.md "Soundness auditing").
//
// For each system we explore the schedule space three times — audit off,
// audit on with the default commutation sample (1/16 schedules), and audit
// on cross-checking every schedule — and report the audit counters
// (windows, accesses, swap replays, commutation mismatches).  The explorer's
// own output must be identical across the three runs (the audit layer is
// passive); the bench asserts that on the spot and exits 1 otherwise.  The
// table must also equal the one recorded below, or the bench prints the
// differing rows and exits 1.  What the audit costs is measured by
// bench_explore's audited/off gate and by perfbench, not here.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "bench_report.h"
#include "explore/election_systems.h"
#include "explore/explore.h"

namespace {

using bss::explore::ExplorableSystem;
using bss::explore::ExploreOptions;
using bss::explore::ExploreResult;

/// The certificate as last reviewed (EXPERIMENTS.md "Audit certificate").
constexpr const char* kRecorded = R"(
system         audit  schedules  windows accesses  swaps mismatches
one-shot[4,2]  off            2        0        0      0          0
one-shot[4,2]  on/16          2       25       25      0          0
one-shot[4,2]  on/1           2       25       25      3          0
one-shot[4,3]  off            6        0        0      0          0
one-shot[4,3]  on/16          6      239      239      9          0
one-shot[4,3]  on/1           6      239      239     19          0
llsc[3,2]      off           41        0        0      0          0
llsc[3,2]      on/16         41     1591     1591      5          0
llsc[3,2]      on/1          41     1591     1591     96          0
fvt[3,2]       off           26        0        0      0          0
fvt[3,2]       on/16         26      947      947      2          0
fvt[3,2]       on/1          26      947      947     62          0
)";

struct Row {
  std::string system;
  std::string mode;  ///< "off", "on/16", "on/1"
  ExploreResult result;
};

std::vector<Row> audit_modes(const std::string& label,
                             const ExplorableSystem& system,
                             ExploreOptions options) {
  std::vector<Row> rows;
  options.audit = false;
  rows.push_back({label, "off", bss::explore::explore(system, options)});
  options.audit = true;
  options.audit_commute_sample = 16;
  rows.push_back({label, "on/16", bss::explore::explore(system, options)});
  options.audit_commute_sample = 1;
  rows.push_back({label, "on/1", bss::explore::explore(system, options)});
  const ExploreResult& base = rows[0].result;
  for (const Row& row : rows) {
    // The audit layer must be passive: identical explorer output in every
    // mode.  A mismatch here is a determinism regression, not noise.
    if (row.result.stats.summary() != base.stats.summary() ||
        row.result.violations.size() != base.violations.size()) {
      std::fprintf(stderr,
                   "FATAL: audit mode changed explorer results on %s (%s)\n",
                   label.c_str(), row.mode.c_str());
      std::exit(1);
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  // Constructed first so the report's wall clock covers the whole bench.
  bss::bench::BenchReport report(flags, "bench_audit");

  std::vector<Row> rows;
  const auto add = [&](const std::string& label,
                       const ExplorableSystem& system,
                       const ExploreOptions& options) {
    for (Row& row : audit_modes(label, system, options)) {
      rows.push_back(std::move(row));
    }
  };

  add("one-shot[4,2]", bss::explore::OneShotSystem(4, 2), {});
  add("one-shot[4,3]", bss::explore::OneShotSystem(4, 3), {});
  {
    ExploreOptions options;
    options.preemption_bound = 2;
    add("llsc[3,2]", bss::explore::LlScSystem(3, 2), options);
    add("fvt[3,2]", bss::explore::FvtSystem(3, 2), options);
  }

  std::string table;
  bss::bench::appendf(table, "%-14s %-6s %9s %8s %8s %6s %10s\n", "system",
                      "audit", "schedules", "windows", "accesses", "swaps",
                      "mismatches");
  for (const Row& row : rows) {
    const auto& audit = row.result.audit;
    bss::bench::appendf(
        table, "%-14s %-6s %9llu %8llu %8llu %6llu %10llu\n",
        row.system.c_str(), row.mode.c_str(),
        static_cast<unsigned long long>(row.result.stats.schedules),
        static_cast<unsigned long long>(audit.windows),
        static_cast<unsigned long long>(audit.accesses),
        static_cast<unsigned long long>(audit.swaps_replayed),
        static_cast<unsigned long long>(audit.commute_mismatches));

    bss::obs::json::Object object;
    object.emplace("system", bss::obs::json::Value(row.system));
    object.emplace("audit", bss::obs::json::Value(row.mode));
    object.emplace("schedules",
                   bss::obs::json::Value(row.result.stats.schedules));
    object.emplace("windows", bss::obs::json::Value(audit.windows));
    object.emplace("accesses", bss::obs::json::Value(audit.accesses));
    object.emplace("swaps_replayed",
                   bss::obs::json::Value(audit.swaps_replayed));
    object.emplace("commute_mismatches",
                   bss::obs::json::Value(audit.commute_mismatches));
    report.row(std::move(object));
  }
  report.finalize();
  bss::bench::print_certificate(table, kRecorded);
  return 0;
}
