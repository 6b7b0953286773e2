// T4 — the Burns-Cruz-Loui model: write-once k-valued RMW registers with no
// read/write helpers.
//
// Shape to reproduce: one register elects exactly k-1 (certified at k-1,
// refuted at k by the checker), several registers compose multiplicatively,
// and the whole model sits exponentially below the (k-1)! that the same
// object achieves WITH read/write registers — the paper's conclusion that
// read/write registers add power to bounded objects.
#include <cstdio>

#include "bench_flags.h"
#include "bench_report.h"
#include "burns/burns_election.h"
#include "checker/consensus_check.h"
#include "core/capacity.h"
#include "runtime/scheduler.h"

namespace {

std::vector<std::vector<int>> identity_inputs(int n) {
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) inputs[static_cast<std::size_t>(pid)] = pid;
  return {inputs};
}

void print_single(bss::bench::BenchReport& bench_report) {
  std::printf("T4a — one k-valued write-once RMW register, no R/W registers\n");
  std::printf("%3s %10s %12s %12s %16s\n", "k", "n=k-1", "elects?",
              "n=k", "checker-says");
  for (int k = 3; k <= 7; ++k) {
    bss::sim::RandomScheduler scheduler(static_cast<std::uint64_t>(k));
    const auto report =
        bss::burns::run_single_register_election(k, k - 1, scheduler);
    std::string refuted = "(skipped)";
    if (k <= 6) {
      bss::burns::BurnsProtocol overloaded(k, k);
      const auto check =
          bss::check::check_consensus(overloaded, identity_inputs(k));
      refuted = check.solves ? "UNEXPECTEDLY OK" : "agreement broken";
    }
    std::printf("%3d %10d %12s %12d %16s\n", k, k - 1,
                report.consistent ? "yes" : "NO", k, refuted.c_str());
    bss::obs::json::Object object;
    object.emplace("kind", "single");
    object.emplace("k", k);
    object.emplace("elects_at_k_minus_1", report.consistent);
    object.emplace("checker_at_k", refuted);
    bench_report.row(std::move(object));
  }
  std::printf("\n");
}

void print_product(bss::bench::BenchReport& bench_report) {
  std::printf("T4b — multiplicative composition (closed model)\n");
  std::printf("%-14s %10s %10s %10s\n", "sizes", "capacity", "n-run",
              "elects?");
  const std::vector<std::vector<int>> configurations{
      {3, 3}, {4, 3}, {4, 4}, {2, 2, 2}, {5, 4, 3}};
  for (const auto& sizes : configurations) {
    bss::burns::MultiState probe(sizes);
    const int n = static_cast<int>(probe.capacity());
    bss::sim::RandomScheduler scheduler(99);
    const auto report =
        bss::burns::run_multi_register_election(sizes, n, scheduler);
    std::string rendered;
    for (const int size : sizes) {
      if (!rendered.empty()) rendered += "x";
      rendered += std::to_string(size);
    }
    std::printf("%-14s %10llu %10d %10s\n", rendered.c_str(),
                static_cast<unsigned long long>(probe.capacity()), n,
                report.consistent ? "yes" : "NO");
    bss::obs::json::Object object;
    object.emplace("kind", "product");
    object.emplace("sizes", rendered);
    object.emplace("capacity", probe.capacity());
    object.emplace("n_run", n);
    object.emplace("elects", report.consistent);
    bench_report.row(std::move(object));
  }
  std::printf("\n");
}

void print_contrast(bss::bench::BenchReport& bench_report) {
  std::printf("T4c — the paper's contrast: same object, +/- R/W registers\n");
  std::printf("%3s %22s %26s %14s\n", "k", "write-once RMW alone",
              "c&s-(k) + R/W registers", "amplification");
  for (int k = 3; k <= 9; ++k) {
    const auto row = bss::core::capacity_row(k);
    std::printf("%3d %22s %26s %13.0fx\n", k, row.burns.to_decimal().c_str(),
                row.lower.to_decimal().c_str(), row.rw_amplification);
    bss::obs::json::Object object;
    object.emplace("kind", "contrast");
    object.emplace("k", k);
    object.emplace("burns", row.burns.to_decimal());
    object.emplace("with_rw", row.lower.to_decimal());
    object.emplace("amplification", row.rw_amplification);
    bench_report.row(std::move(object));
  }
  std::printf(
      "\nshape: k-1 vs (k-1)! — free read/write registers turn linear\n"
      "capacity into factorial capacity, and the paper proves the\n"
      "amplification stops at O(k^(k^2+3)).\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_burns");
  print_single(report);
  print_product(report);
  print_contrast(report);
  report.finalize();
  return 0;
}
