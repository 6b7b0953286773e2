// T1 — the capacity table: what one compare&swap-(k) + unbounded R/W memory
// can do, bounded below by the election algorithm and above by Theorem 1.
//
// Columns per k:
//   burns   = k-1        one k-valued write-once RMW register alone [5]
//   lower   = (k-1)!     FirstValueTree's capacity (witnessed live below)
//   conj    = k!         the paper's conjecture for n_k
//   upper   = k^(k^2+3)  Theorem 1
// The "witness" rows actually run the election at n = (k-1)! under several
// adversarial schedulers and validate consistency/validity/wait-freedom —
// the measured content of "n_k >= (k-1)!".
#include <cstdio>
#include <memory>
#include <string>

#include "bench_flags.h"
#include "bench_report.h"
#include "core/capacity.h"
#include "core/composed_election.h"
#include "core/election_validator.h"
#include "core/sim_election.h"
#include "util/checked.h"

namespace {

using bss::core::capacity_row;
using bss::core::CapacityRow;

std::string clipped(const bss::BigUint& value, int max_digits = 24) {
  const std::string digits = value.to_decimal();
  if (bss::checked_cast<int>(digits.size()) <= max_digits) return digits;
  return digits.substr(0, 6) + "...e+" + std::to_string(digits.size() - 1);
}

void print_bounds_table(bss::bench::BenchReport& report) {
  std::printf("T1a — capacity bounds for one compare&swap-(k) (+ R/W registers)\n");
  std::printf("%3s %12s %16s %18s %26s %10s\n", "k", "burns=k-1",
              "lower=(k-1)!", "conjecture=k!", "upper=k^(k^2+3)",
              "gap(digits)");
  for (int k = 3; k <= 9; ++k) {
    const CapacityRow row = capacity_row(k);
    std::printf("%3d %12s %16s %18s %26s %10d\n", k,
                row.burns.to_decimal().c_str(),
                row.lower.to_decimal().c_str(),
                row.conjectured.to_decimal().c_str(),
                clipped(row.upper).c_str(), row.gap_digits);
    bss::obs::json::Object object;
    object.emplace("kind", "bounds");
    object.emplace("k", k);
    object.emplace("burns", row.burns.to_decimal());
    object.emplace("lower", row.lower.to_decimal());
    object.emplace("conjectured", row.conjectured.to_decimal());
    object.emplace("upper", row.upper.to_decimal());
    object.emplace("gap_digits", row.gap_digits);
    report.row(std::move(object));
  }
  std::printf(
      "\nshape: read/write registers amplify a bounded object from k-1 to\n"
      "(k-1)! processes (exponential), yet the upper bound leaves the\n"
      "paper's conjectured Θ(k!) gap of many decimal orders.\n\n");
}

void print_witness_table(bss::bench::BenchReport& bench_report) {
  std::printf("T1b — live witness of the lower bound: n = (k-1)! processes elect\n");
  std::printf("%3s %8s %14s %12s %12s %8s\n", "k", "n", "scheduler",
              "total-steps", "max-cas/proc", "verdict");
  for (int k = 3; k <= 6; ++k) {
    const int n = bss::checked_cast<int>(bss::core::slot_count(k));
    struct Case {
      std::string name;
      std::unique_ptr<bss::sim::Scheduler> scheduler;
    };
    Case cases[3];
    cases[0] = {"round-robin", std::make_unique<bss::sim::RoundRobinScheduler>()};
    cases[1] = {"random", std::make_unique<bss::sim::RandomScheduler>(2026)};
    cases[2] = {"cas-convoy", std::make_unique<bss::sim::CasConvoyScheduler>(7)};
    for (auto& test_case : cases) {
      const auto report =
          bss::core::run_sim_election(k, n, *test_case.scheduler);
      const auto verdict = bss::core::verify_election(report);
      int max_cas = 0;
      for (const auto& outcome : report.outcomes) {
        if (outcome.has_value() && outcome->cas_accesses > max_cas) {
          max_cas = outcome->cas_accesses;
        }
      }
      std::printf("%3d %8d %14s %12llu %12d %8s\n", k, n,
                  test_case.name.c_str(),
                  static_cast<unsigned long long>(report.run.total_steps),
                  max_cas, verdict.ok() ? "OK" : "FAIL");
      bss::obs::json::Object object;
      object.emplace("kind", "witness");
      object.emplace("k", k);
      object.emplace("n", n);
      object.emplace("scheduler", test_case.name);
      object.emplace("total_steps", report.run.total_steps);
      object.emplace("max_cas_per_proc", max_cas);
      object.emplace("ok", verdict.ok());
      bench_report.row(std::move(object));
    }
  }
  std::printf(
      "\nshape: every scheduler ends with one leader, valid and within the\n"
      "O(k) compare&swap-access bound — n_k >= (k-1)! holds operationally.\n");
}

void print_composition_table(bss::bench::BenchReport& bench_report) {
  std::printf(
      "\nT1c — multiple copies of the strong object (closed model; the\n"
      "paper's conclusions extension), witnessed live\n");
  std::printf("%3s %7s %14s %16s %10s %8s\n", "k", "copies",
              "burns=(k-1)^r", "ours=((k-1)!)^r", "n-run", "verdict");
  struct Config {
    int k;
    int copies;
    int n;  // processes actually run (full capacity where affordable)
  };
  const Config configs[] = {{3, 2, 4}, {3, 3, 8}, {4, 2, 36}, {5, 2, 64}};
  for (const auto& config : configs) {
    std::uint64_t burns = 1;
    for (int copy = 0; copy < config.copies; ++copy) {
      burns *= static_cast<std::uint64_t>(config.k - 1);
    }
    bss::sim::RandomScheduler scheduler(777);
    const auto report = bss::core::run_composed_election(
        config.k, config.copies, config.n, scheduler);
    std::printf("%3d %7d %14llu %16llu %10d %8s\n", config.k, config.copies,
                static_cast<unsigned long long>(burns),
                static_cast<unsigned long long>(
                    bss::core::composed_capacity(config.k, config.copies)),
                config.n,
                report.consistent && report.valid ? "OK" : "FAIL");
    bss::obs::json::Object object;
    object.emplace("kind", "composition");
    object.emplace("k", config.k);
    object.emplace("copies", config.copies);
    object.emplace("burns_capacity", burns);
    object.emplace("our_capacity",
                   bss::core::composed_capacity(config.k, config.copies));
    object.emplace("n_run", config.n);
    object.emplace("ok", report.consistent && report.valid);
    bench_report.row(std::move(object));
  }
  std::printf(
      "\nshape: factorial amplification per copy — (k-1)^r vs ((k-1)!)^r.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_capacity");
  print_bounds_table(report);
  print_witness_table(report);
  print_composition_table(report);
  report.finalize();
  return 0;
}
