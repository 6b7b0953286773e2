// T3 — Herlihy's hierarchy, measured, plus the universal construction.
//
// Every consensus-number cell is recomputed by the exhaustive checker
// (certified protocols below the number, refuted natural attempts above),
// and the universal construction's throughput/helping behaviour is measured
// — the "strong objects are universal [10]" premise the paper refines.
#include <cstdio>

#include "bench_flags.h"
#include "bench_report.h"
#include "checker/bivalence.h"
#include "checker/consensus_check.h"
#include "checker/protocols.h"
#include "hierarchy/table.h"
#include "hierarchy/universal.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace {

void print_checker_costs(bss::bench::BenchReport& report) {
  std::printf("T3b — checker effort per protocol (full interleaving spaces)\n");
  std::printf("%-16s %6s %10s %14s\n", "protocol", "n", "solves?",
              "states-explored");
  const std::vector<int> binary{0, 1};
  const auto run = [&](const bss::check::Protocol& protocol) {
    const auto inputs =
        bss::check::all_input_vectors(protocol.process_count(), binary);
    const auto result = bss::check::check_consensus(protocol, inputs);
    std::printf("%-16s %6d %10s %14llu\n", protocol.name().c_str(),
                protocol.process_count(), result.solves ? "yes" : "no",
                static_cast<unsigned long long>(result.states_explored));
    bss::obs::json::Object object;
    object.emplace("kind", "checker");
    object.emplace("protocol", protocol.name());
    object.emplace("n", protocol.process_count());
    object.emplace("solves", result.solves);
    object.emplace("states_explored", result.states_explored);
    report.row(std::move(object));
  };
  bss::check::RwWriteReadConsensus rw;
  bss::check::RwSpinConsensus rw_spin;
  bss::check::TasConsensus2 tas2;
  bss::check::TasSpinConsensus3 tas3;
  bss::check::CasConsensusK cas34(3, 4);
  bss::check::CasConsensusK cas44(4, 4);
  bss::check::StickyConsensus sticky(3);
  run(rw);
  run(rw_spin);
  run(tas2);
  run(tas3);
  run(cas34);
  run(cas44);
  run(sticky);
  std::printf("\n");
}

void print_valency(bss::bench::BenchReport& report) {
  std::printf("T3c — valency anatomy (FLP's structure, counted)\n");
  bss::check::TasConsensus2 tas2;
  const auto mixed = bss::check::analyze_valency(tas2, {0, 1});
  const auto uniform = bss::check::analyze_valency(tas2, {1, 1});
  std::printf("tas-2, inputs {0,1}: %s\n", mixed.summary().c_str());
  std::printf("tas-2, inputs {1,1}: %s\n", uniform.summary().c_str());
  std::printf("\n");
  const auto add_row = [&](const char* inputs, const std::string& summary) {
    bss::obs::json::Object object;
    object.emplace("kind", "valency");
    object.emplace("protocol", "tas-2");
    object.emplace("inputs", inputs);
    object.emplace("summary", summary);
    report.row(std::move(object));
  };
  add_row("0,1", mixed.summary());
  add_row("1,1", uniform.summary());
}

void print_universal(bss::bench::BenchReport& bench_report) {
  std::printf("T3d — Herlihy universal construction (sticky-register cells)\n");
  constexpr int kProcs = 6;
  constexpr int kOpsEach = 10;
  bss::hierarchy::UniversalObject counter(
      "counter", bss::hierarchy::counter_spec(), kProcs, kProcs * kOpsEach);
  bss::sim::SimEnv env;
  for (int pid = 0; pid < kProcs; ++pid) {
    env.add_process([&](bss::sim::Ctx& ctx) {
      for (int i = 0; i < kOpsEach; ++i) (void)counter.invoke(ctx, 0);
    });
  }
  bss::sim::RandomScheduler scheduler(11);
  const auto report = env.run(scheduler);
  int max_distance = 0;
  for (int pid = 0; pid < kProcs; ++pid) {
    for (const int distance : counter.placement_distances(pid)) {
      if (distance > max_distance) max_distance = distance;
    }
  }
  std::printf(
      "processes=%d ops=%d log-cells=%d shared-steps=%llu "
      "max-placement-distance=%d (helping bound ~2n=%d)\n",
      kProcs, kProcs * kOpsEach, counter.log_length(),
      static_cast<unsigned long long>(report.total_steps), max_distance,
      2 * kProcs);
  bss::obs::json::Object object;
  object.emplace("kind", "universal");
  object.emplace("processes", kProcs);
  object.emplace("ops", kProcs * kOpsEach);
  object.emplace("log_cells", counter.log_length());
  object.emplace("shared_steps", report.total_steps);
  object.emplace("max_placement_distance", max_distance);
  bench_report.row(std::move(object));
  std::printf(
      "\nshape: consensus numbers 1 / 2 / k-1 / inf recompute exactly;\n"
      "universality holds but consumes one consensus cell per operation —\n"
      "an unbounded supply, which is precisely what a compare&swap-(k)\n"
      "does not have.  That contrast is the paper.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_hierarchy");
  const auto table = bss::hierarchy::build_hierarchy_table();
  std::printf("T3a — the hierarchy table (all cells recomputed)\n%s\n",
              bss::hierarchy::render_hierarchy_table(table).c_str());
  for (const auto& row : table) {
    bss::obs::json::Object object;
    object.emplace("kind", "hierarchy");
    object.emplace("object", row.object);
    object.emplace("consensus_number", row.consensus_number);
    object.emplace("certified", row.certified);
    object.emplace("refuted", row.refuted);
    report.row(std::move(object));
  }
  print_checker_costs(report);
  print_valency(report);
  print_universal(report);
  report.finalize();
  return 0;
}
