// report_tour — the telemetry layer end to end (DESIGN.md §9).
//
// Explores a seeded election mutant with a full Telemetry sink attached —
// metrics, structured events and worker timelines — then walks through
// every artifact the run produced:
//
//   1. the bss-runreport v1 document (deterministic channel + quarantined
//      timing), re-parsed through the version gate,
//   2. the merged metrics snapshot and where its numbers come from,
//   3. the structured event log as JSONL, split by channel,
//   4. the Chrome trace (load the printed file in Perfetto or
//      chrome://tracing to see one track per worker plus the merge).
//
// The exploration itself is byte-identical with and without the sink —
// the tour re-runs it bare and checks that on the spot.
#include <cstdio>
#include <string>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "obs/obs.h"

int main() {
  const bss::explore::OneShotSystem system(
      4, 3, bss::core::OneShotMutant::kClaimAfterCas);

  bss::obs::Telemetry::Options sink_options;
  sink_options.timeline = true;
  sink_options.trace_path = "report_tour.trace.json";
  bss::obs::Telemetry telemetry(sink_options);

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

  // --- 3. the event log, one JSON object per line ------------------------
  const auto& log = telemetry.event_log();
  std::printf("\n== events (%llu emitted, %llu dropped), first lines ==\n",
              static_cast<unsigned long long>(log.emitted()),
              static_cast<unsigned long long>(log.dropped()));
  const std::string jsonl = log.to_jsonl();
  std::size_t printed = 0;
  std::size_t begin = 0;
  while (printed < 6 && begin < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', begin);
    std::printf("  %s\n", jsonl.substr(begin, end - begin).c_str());
    begin = end + 1;
    ++printed;
  }
  std::printf("  ... (everything under \"timing\" is wall-clock and may\n"
              "       differ run to run; everything else must not)\n");

  // --- 4. the Perfetto trace ---------------------------------------------
  std::printf("\n== timeline: %zu spans -> %s ==\n",
              telemetry.timeline().spans().size(),
              sink_options.trace_path.c_str());
  std::printf("load it in https://ui.perfetto.dev — one track per worker,\n"
              "plus the merge coordinator track.\n");

  // --- passivity spot-check ----------------------------------------------
  bss::explore::ExploreOptions bare = options;
  bare.telemetry = nullptr;
  const bool identical =
      bss::explore::explore(system, bare).stats.summary() ==
      bss::explore::explore(system, options).stats.summary();
  std::printf("\ntelemetry passive (bare rerun identical): %s\n",
              identical ? "yes" : "NO — BUG");
  return identical ? 0 : 1;
}
