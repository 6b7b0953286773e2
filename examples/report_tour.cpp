// report_tour — the telemetry layer end to end (DESIGN.md §9).
//
// Explores a seeded election mutant with Telemetry attached — metrics and
// worker timelines — then walks through every artifact the run produced:
//
//   1. the bss-runreport v1 document (deterministic channel + quarantined
//      timing), re-parsed through the version gate,
//   2. the merged metrics snapshot and where its numbers come from,
//   3. the Chrome trace (load the printed file in Perfetto or
//      chrome://tracing to see one track per worker).
//
// The exploration itself is byte-identical with and without telemetry —
// the tour re-runs it bare and checks that on the spot, exiting 1 if not.
#include <cstdio>
#include <exception>
#include <string>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "obs/obs.h"

int main() try {
  const bss::explore::OneShotSystem system(
      4, 3, bss::core::OneShotMutant::kClaimAfterCas);

  bss::obs::Telemetry::Options telemetry_options;
  telemetry_options.timeline = true;
  telemetry_options.trace_path = "report_tour.trace.json";
  bss::obs::Telemetry telemetry(telemetry_options);

  bss::explore::ExploreOptions options;
  options.jobs = 4;
  options.telemetry = &telemetry;
  std::printf("== exploring %s on 4 workers, telemetry on ==\n%s\n",
              system.name().c_str(),
              bss::explore::explore(system, options).summary().c_str());

  // --- 1. the runreport, through the same gate CI uses -------------------
  const std::string& report_text = telemetry.last_report();
  std::string error;
  const auto report = bss::obs::RunReport::parse(report_text, &error);
  if (!report.has_value()) {
    std::fprintf(stderr, "runreport rejected: %s\n", error.c_str());
    return 1;
  }
  std::printf("\n== bss-runreport v1 (%zu bytes, schema-gated parse OK) ==\n",
              report_text.size());
  std::printf("kind=%s producer=%s system=%s schedules=%llu violations=%llu\n",
              report->kind().c_str(), report->producer().c_str(),
              report->system().c_str(),
              static_cast<unsigned long long>(report->stat("schedules")),
              static_cast<unsigned long long>(report->stat("violations")));
  // A consumer from the future is rejected, not misread:
  if (!bss::obs::RunReport::parse(
          R"({"schema": "bss-runreport v99", "kind": "explore"})", &error)) {
    std::printf("version gate works: %s\n", error.c_str());
  }

  // --- 2. merged metrics -------------------------------------------------
  const auto snapshot = telemetry.metrics_snapshot();
  std::printf("\n== metrics (merged across worker shards, name-sorted) ==\n");
  for (const auto& [name, value] : snapshot.counters) {
    std::printf("  counter %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::printf("  gauge   %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }

  // --- 3. the Perfetto trace ---------------------------------------------
  std::printf("\n== timeline: %zu spans -> %s ==\n",
              telemetry.timeline().spans().size(),
              telemetry_options.trace_path.c_str());
  std::printf("load it in https://ui.perfetto.dev — one track per worker.\n");

  // --- passivity spot-check ----------------------------------------------
  bss::explore::ExploreOptions bare = options;
  bare.telemetry = nullptr;
  const bool identical =
      bss::explore::explore(system, bare).stats.summary() ==
      bss::explore::explore(system, options).stats.summary();
  std::printf("\ntelemetry passive (bare rerun identical): %s\n",
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
} catch (const std::exception& error) {
  std::fprintf(stderr, "report_tour: error: %s\n", error.what());
  return 2;
}
