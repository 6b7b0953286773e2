// Telemetry layer tests (DESIGN.md §9): metric primitives and their
// deterministic merge, the bounded event log's two channels, the Chrome
// trace export's track structure, the bss-runreport v1 round-trip and its
// version/schema gates — and the passivity contract: attaching a Telemetry
// sink to explore() must leave every result byte-identical, at every worker
// count, across the whole mutant suite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/mutant_elections.h"
#include "core/recoverable_election.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "obs/obs.h"
#include "obs/status.h"
#include "util/checked.h"

namespace bss::obs {
namespace {

using core::OneShotMutant;
using core::RestartBehavior;
using explore::ExplorableSystem;
using explore::ExploreOptions;
using explore::ExploreResult;
using explore::LlScSystem;
using explore::OneShotSystem;
using explore::RecoverableFvtSystem;

// ------------------------------------------------------------- histograms

TEST(Histogram, BoundsAreInclusiveUpperEdges) {
  HistogramData hist({1, 2, 4});
  ASSERT_EQ(hist.counts.size(), 4u);  // 3 bounds + overflow
  hist.observe(0);  // <= 1
  hist.observe(1);  // <= 1 (boundary is inclusive)
  hist.observe(2);  // <= 2 (exact boundary)
  hist.observe(3);  // <= 4
  hist.observe(4);  // <= 4 (exact boundary)
  hist.observe(5);  // overflow bucket
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 1u);
  EXPECT_EQ(hist.counts[2], 2u);
  EXPECT_EQ(hist.counts[3], 1u);
  EXPECT_EQ(hist.count, 6u);
  EXPECT_EQ(hist.sum, 0u + 1 + 2 + 3 + 4 + 5);
}

TEST(Histogram, EmptyBoundsCollapseToOneOverflowBucket) {
  HistogramData hist;
  ASSERT_EQ(hist.counts.size(), 1u);
  hist.observe(0);
  hist.observe(1u << 30);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.count, 2u);
}

TEST(Histogram, MergeAddsBucketwise) {
  HistogramData a({1, 2});
  HistogramData b({1, 2});
  a.observe(1);
  a.observe(9);
  b.observe(1);
  b.observe(2);
  a.merge_from(b);
  EXPECT_EQ(a.counts[0], 2u);
  EXPECT_EQ(a.counts[1], 1u);
  EXPECT_EQ(a.counts[2], 1u);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 1u + 9 + 1 + 2);
}

TEST(Histogram, MergeRejectsMismatchedBounds) {
  HistogramData a({1, 2});
  HistogramData b({1, 4});
  EXPECT_THROW(a.merge_from(b), InvariantError);
}

TEST(Histogram, Pow2BoundsShape) {
  const auto bounds = pow2_bounds(4);
  EXPECT_EQ(bounds, (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

// --------------------------------------------------------------- registry

TEST(MetricsRegistry, SnapshotIsShardOrderIndependent) {
  // Two registries fed identical data through shards created and written in
  // opposite orders must produce byte-identical snapshots.
  const auto feed = [](MetricShard& shard, std::uint64_t base) {
    shard.counter("explore.schedules") += base;
    shard.gauge_max("explore.max_depth", 10 * base);
    shard.histogram("depth", {1, 2, 4}).observe(base);
  };
  MetricsRegistry forward;
  feed(forward.shard(0), 1);
  feed(forward.shard(1), 2);
  feed(forward.shard(Event::kCoordinator), 3);
  MetricsRegistry backward;
  feed(backward.shard(Event::kCoordinator), 3);
  feed(backward.shard(1), 2);
  feed(backward.shard(0), 1);

  const std::string lhs = forward.snapshot().to_json().dump(1);
  const std::string rhs = backward.snapshot().to_json().dump(1);
  EXPECT_EQ(lhs, rhs);

  const MetricsSnapshot merged = forward.snapshot();
  EXPECT_EQ(merged.counters.at("explore.schedules"), 6u);   // sums
  EXPECT_EQ(merged.gauges.at("explore.max_depth"), 30u);    // maxes
  EXPECT_EQ(merged.histograms.at("depth").count, 3u);       // bucket-adds
}

TEST(MetricsRegistry, CounterReferenceIsStableForHotLoops) {
  MetricsRegistry registry;
  std::uint64_t& cell = registry.shard(0).counter("hot");
  for (int i = 0; i < 100; ++i) ++cell;
  EXPECT_EQ(registry.snapshot().counters.at("hot"), 100u);
}

// -------------------------------------------------------------- event log

TEST(EventLog, CapacityBoundsDropsAreCountedNeverSilent) {
  EventLog log(/*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    Event event;
    event.kind = "test.tick";
    event.step = static_cast<std::uint64_t>(i);
    log.emit(std::move(event));
  }
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.emitted(), 5u);
  EXPECT_EQ(log.dropped(), 3u);
}

TEST(EventLog, JsonlSeparatesDeterministicAndTimingChannels) {
  EventLog log;
  Event event;
  event.kind = "violation.found";
  event.step = 0;
  event.fields.emplace_back("violation", "two leaders");
  log.emit(std::move(event));

  std::istringstream lines(log.to_jsonl());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  std::string error;
  const auto parsed = json::Value::parse(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& object = parsed->as_object();
  EXPECT_EQ(object.at("kind").as_string(), "violation.found");
  EXPECT_EQ(object.at("step").as_int(), 0);
  EXPECT_EQ(object.at("worker").as_int(), Event::kCoordinator);
  EXPECT_EQ(object.at("fields").as_object().at("violation").as_string(),
            "two leaders");
  // The wall clock lives only under "timing".
  const json::Value* timing = parsed->find("timing");
  ASSERT_NE(timing, nullptr);
  EXPECT_NE(timing->find("wall_ns"), nullptr);
  EXPECT_NE(timing->find("seq"), nullptr);
}

// ---------------------------------------------------------------- timeline

TEST(Timeline, ChromeTraceHasOneTrackPerWorkerPlusCoordinator) {
  Timeline timeline;
  const auto span = [&](const char* name, int track) {
    Span s;
    s.name = name;
    s.track = track;
    s.begin_ns = 1000;
    s.end_ns = 2000;
    timeline.record(std::move(s));
  };
  span("unit", 0);
  span("unit", 1);
  span("merge", Timeline::kCoordinatorTrack);

  std::string error;
  const auto parsed = json::Value::parse(timeline.to_chrome_trace(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& events = parsed->as_object().at("traceEvents").as_array();
  std::set<std::int64_t> named_tracks;
  int complete_events = 0;
  bool coordinator_named = false;
  for (const auto& entry : events) {
    const auto& object = entry.as_object();
    const std::string& phase = object.at("ph").as_string();
    if (phase == "M") {
      named_tracks.insert(object.at("tid").as_int());
      if (object.at("args").as_object().at("name").as_string() ==
          "merge") {
        coordinator_named = true;
      }
    } else if (phase == "X") {
      ++complete_events;
    }
  }
  EXPECT_EQ(named_tracks,
            (std::set<std::int64_t>{0, 1, Timeline::kCoordinatorTrack}));
  EXPECT_EQ(complete_events, 3);
  EXPECT_TRUE(coordinator_named);
}

// --------------------------------------------------------------- runreport

ReportBuilder sample_report() {
  ReportBuilder builder("explore", "test");
  builder.set_system("one_shot[k=4,n=2]");
  builder.environment("jobs", 4);
  builder.option("fault_bound", 1);
  builder.stat("schedules", 123);
  builder.coverage("exhausted", true);
  builder.events(7, 0);
  builder.timing("explore_wall_ns", 42);
  return builder;
}

TEST(RunReport, RoundTripsThroughParse) {
  const std::string text = sample_report().to_json();
  std::string error;
  const auto report = RunReport::parse(text, &error);
  ASSERT_TRUE(report.has_value()) << error;
  EXPECT_EQ(report->kind(), "explore");
  EXPECT_EQ(report->producer(), "test");
  EXPECT_EQ(report->system(), "one_shot[k=4,n=2]");
  EXPECT_EQ(report->stat("schedules"), 123u);
  EXPECT_EQ(report->stat("absent", 9), 9u);
  // dump(parse(text)) is a fixed point — canonical output.
  EXPECT_EQ(report->root.dump(1) + "\n", text);
}

TEST(RunReport, RejectsUnknownSchemaVersion) {
  std::string error;
  EXPECT_FALSE(RunReport::parse(
                   R"({"schema": "bss-runreport v9", "kind": "bench"})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown schema version"), std::string::npos) << error;
}

TEST(RunReport, RejectsMissingSchemaKey) {
  std::string error;
  EXPECT_FALSE(
      RunReport::parse(R"({"kind": "bench", "producer": "x"})", &error)
          .has_value());
}

TEST(RunReport, ValidatorAcceptsBuilderOutput) {
  EXPECT_TRUE(validate_runreport(sample_report().to_json()).empty());
}

TEST(RunReport, ValidatorRejectsUnknownTopLevelKey) {
  auto root = json::Value::parse(sample_report().to_json())->as_object();
  root.emplace("surprise", 1);
  const auto errors = validate_runreport(json::Value(root).dump(1));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown top-level key \"surprise\""),
            std::string::npos)
      << errors[0];
}

TEST(RunReport, ValidatorRejectsNonIntegerStats) {
  auto root = json::Value::parse(sample_report().to_json())->as_object();
  root["stats"].as_object()["schedules"] = json::Value("lots");
  EXPECT_FALSE(validate_runreport(json::Value(root).dump(1)).empty());
}

TEST(RunReport, ValidatorAcceptsServiceStatFamily) {
  auto root = json::Value::parse(sample_report().to_json())->as_object();
  auto& stats = root["stats"].as_object();
  stats["service.leases_acquired"] = json::Value(std::uint64_t{5});
  stats["service.retries"] = json::Value(std::uint64_t{2});
  stats["service.step_downs"] = json::Value(std::uint64_t{4});
  stats["service.takeovers"] = json::Value(std::uint64_t{1});
  stats["service.actions"] = json::Value(std::uint64_t{9});
  const auto errors = validate_runreport(json::Value(root).dump(1));
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
}

TEST(RunReport, ValidatorRejectsUnknownServiceStat) {
  auto root = json::Value::parse(sample_report().to_json())->as_object();
  auto& stats = root["stats"].as_object();
  stats["service.leases_acquired"] = json::Value(std::uint64_t{1});
  stats["service.retries"] = json::Value(std::uint64_t{0});
  stats["service.step_downs"] = json::Value(std::uint64_t{1});
  stats["service.lease_acquired"] = json::Value(std::uint64_t{1});  // typo
  const auto errors = validate_runreport(json::Value(root).dump(1));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown service stat \"service.lease_acquired\""),
            std::string::npos)
      << errors[0];
}

TEST(RunReport, ValidatorRequiresServiceTrioWhenFamilyPresent) {
  auto root = json::Value::parse(sample_report().to_json())->as_object();
  root["stats"].as_object()["service.renewals"] = json::Value(std::uint64_t{3});
  const auto errors = validate_runreport(json::Value(root).dump(1));
  ASSERT_EQ(errors.size(), 3u);
  for (const char* required :
       {"service.leases_acquired", "service.retries", "service.step_downs"}) {
    bool mentioned = false;
    for (const std::string& error : errors) {
      mentioned |= error.find(required) != std::string::npos;
    }
    EXPECT_TRUE(mentioned) << "no error mentions " << required;
  }
}

// ------------------------------------------------------ explore passivity

/// Byte-level equality of two ExploreResults, the same contract the
/// parallel-determinism suite asserts across worker counts.
void expect_identical(const ExploreResult& reference,
                      const ExploreResult& candidate,
                      const std::string& label) {
  EXPECT_EQ(reference.stats.summary(), candidate.stats.summary()) << label;
  EXPECT_EQ(reference.exhausted, candidate.exhausted) << label;
  ASSERT_EQ(reference.violations.size(), candidate.violations.size()) << label;
  for (std::size_t i = 0; i < reference.violations.size(); ++i) {
    EXPECT_EQ(reference.violations[i].to_artifact(),
              candidate.violations[i].to_artifact())
        << label << " violation " << i;
  }
}

/// Explores `system` without telemetry, then with metrics-only and with the
/// full sink, serial and at jobs=4 — six runs whose results must all be
/// byte-identical to the reference.
void expect_telemetry_passive(const ExplorableSystem& system,
                              ExploreOptions options) {
  options.jobs = 1;
  options.telemetry = nullptr;
  const ExploreResult reference = explore::explore(system, options);
  for (const int jobs : {1, 4}) {
    for (const bool events : {false, true}) {
      Telemetry::Options sink_options;
      sink_options.metrics = true;
      sink_options.events = events;
      sink_options.timeline = events;
      Telemetry telemetry(sink_options);
      ExploreOptions instrumented = options;
      instrumented.jobs = jobs;
      instrumented.telemetry = &telemetry;
      expect_identical(reference, explore::explore(system, instrumented),
                       system.name() + " jobs=" + std::to_string(jobs) +
                           (events ? " metrics+events" : " metrics"));
    }
  }
}

TEST(ObsPassivity, CleanOneShotExhaustiveSweep) {
  expect_telemetry_passive(OneShotSystem(4, 2), {});
}

TEST(ObsPassivity, ClaimAfterCasMutant) {
  expect_telemetry_passive(OneShotSystem(4, 3, OneShotMutant::kClaimAfterCas),
                           {});
}

TEST(ObsPassivity, SplitCasMutant) {
  expect_telemetry_passive(OneShotSystem(4, 2, OneShotMutant::kSplitCas), {});
}

TEST(ObsPassivity, ScBlindLlScMutant) {
  expect_telemetry_passive(LlScSystem(3, 2, /*sc_blind=*/true), {});
}

TEST(ObsPassivity, FaultSweepWithCoverage) {
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  expect_telemetry_passive(system, options);
}

TEST(ObsPassivity, FreshClaimFaultRefutation) {
  RecoverableFvtSystem system(3, 2, RestartBehavior::kFreshClaim);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;
  expect_telemetry_passive(system, options);
}

// -------------------------------------- passivity under work-stealing

/// The stealing engine's extra instrumentation (worker.steal and
/// worker.checkpoint events, the explore.steals / explore.checkpoints
/// counters) must be as passive as the rest of the sink: at jobs = 4 the
/// results stay byte-identical to the uninstrumented serial run across
/// steal granularities.
TEST(ObsPassivity, WorkStealingEngineAtFourJobs) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions serial;
  serial.jobs = 1;
  const ExploreResult reference = explore::explore(system, serial);
  for (const int depth : {0, 2}) {
    Telemetry::Options sink_options;
    sink_options.metrics = true;
    sink_options.events = true;
    sink_options.timeline = true;
    Telemetry telemetry(sink_options);
    ExploreOptions options;
    options.jobs = 4;
    options.steal_depth = depth;
    options.telemetry = &telemetry;
    expect_identical(reference, explore::explore(system, options),
                     "stealing steal_depth=" + std::to_string(depth));
  }
}

// ------------------------------------------------- event stream contents

/// The deterministic channel of the merge-time and coordinator events:
/// everything except worker lifecycle (whose fields are legitimately
/// scheduling-dependent), ddmin progress (stamped per speculative
/// minimization, so present in workers' discovery order), and explore.start
/// (which records the jobs/steal_depth configuration under comparison).
std::string deterministic_event_trace(const Telemetry& telemetry) {
  std::string out;
  for (const auto& stamped : telemetry.event_log().events()) {
    const std::string& kind = stamped.event.kind;
    if (kind.rfind("worker.", 0) == 0 || kind.rfind("ddmin.", 0) == 0 ||
        kind.rfind("shrink.", 0) == 0 || kind == "explore.start") {
      continue;
    }
    out += kind + "#" + std::to_string(stamped.event.step);
    for (const auto& [key, value] : stamped.event.fields) {
      out += " " + key + "=" + value;
    }
    out += "\n";
  }
  return out;
}

TEST(ObsEvents, MergeTimeEventStreamIsWorkerCountInvariant) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  const auto trace_at = [&](int jobs) {
    Telemetry::Options sink_options;
    sink_options.timeline = true;
    Telemetry telemetry(sink_options);
    ExploreOptions options;
    options.jobs = jobs;
    options.telemetry = &telemetry;
    (void)explore::explore(system, options);
    return deterministic_event_trace(telemetry);
  };
  const std::string serial = trace_at(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("violation.found#0"), std::string::npos);
  EXPECT_NE(serial.find("explore.done"), std::string::npos);
  EXPECT_EQ(serial, trace_at(4));
}

TEST(ObsEvents, FaultPointCoverageEventsMatchCoverageCount) {
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  Telemetry telemetry;
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.telemetry = &telemetry;
  const ExploreResult result = explore::explore(system, options);
  std::uint64_t coverage_events = 0;
  for (const auto& stamped : telemetry.event_log().events()) {
    if (stamped.event.kind == "coverage.fault_point") ++coverage_events;
  }
  EXPECT_EQ(coverage_events, result.stats.fault_points);
}

TEST(ObsEvents, DdminEventsTraceEachMinimization) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  Telemetry telemetry;
  ExploreOptions options;
  options.telemetry = &telemetry;
  const ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.violations.empty());
  std::uint64_t starts = 0;
  std::uint64_t ends = 0;
  for (const auto& stamped : telemetry.event_log().events()) {
    if (stamped.event.kind == "ddmin.start") ++starts;
    if (stamped.event.kind == "ddmin.done" ||
        stamped.event.kind == "ddmin.budget_hit") {
      ++ends;
    }
  }
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, ends);
}

TEST(ObsEvents, ReplayAttachesSimEnvFaultEvents) {
  RecoverableFvtSystem system(3, 2, RestartBehavior::kFreshClaim);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  options.explore_crashes = false;
  const ExploreResult result = explore::explore(system, options);
  ASSERT_FALSE(result.violations.empty());
  ASSERT_GT(result.violations[0].fault_count(), 0u);

  Telemetry telemetry;
  ExploreOptions replay_options = options;
  replay_options.telemetry = &telemetry;
  const auto outcome =
      replay_counterexample(system, result.violations[0], replay_options);
  EXPECT_TRUE(outcome.violated);
  std::uint64_t sim_events = 0;
  for (const auto& stamped : telemetry.event_log().events()) {
    if (stamped.event.kind.rfind("sim.", 0) == 0) ++sim_events;
  }
  EXPECT_EQ(sim_events, result.violations[0].fault_count());
}

// ---------------------------------------------------- explore() runreport

TEST(ObsReport, ExploreEmitsValidRunReport) {
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  Telemetry telemetry;
  ExploreOptions options;
  options.telemetry = &telemetry;
  const ExploreResult result = explore::explore(system, options);

  ASSERT_FALSE(telemetry.last_report().empty());
  EXPECT_TRUE(validate_runreport(telemetry.last_report()).empty());
  const auto report = RunReport::parse(telemetry.last_report());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind(), "explore");
  EXPECT_EQ(report->producer(), "explore()");
  EXPECT_EQ(report->system(), system.name());
  EXPECT_EQ(report->stat("schedules"), result.stats.schedules);
  EXPECT_EQ(report->stat("violations"), result.violations.size());
}

// ---------------------------------------------------------------------------
// Fuzz-corpus regressions.  tools/fuzz/corpus/runreport holds the seed and
// harvested inputs for fuzz_runreport; replaying them here keeps each
// malformed shape as a named, debuggable regression even without the fuzz
// driver.  BSS_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt.

std::string read_corpus_file(const std::string& name) {
  const std::string path =
      std::string(BSS_FUZZ_CORPUS_DIR) + "/runreport/" + name;
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(stream.is_open()) << "missing corpus file: " << path;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

TEST(RunReportCorpus, MinimalSeedStaysValid) {
  const std::string text = read_corpus_file("minimal.json");
  EXPECT_TRUE(validate_runreport(text).empty());
  ASSERT_TRUE(RunReport::parse(text).has_value());
}

TEST(RunReportCorpus, TruncatedDocumentIsRejectedNotCrashed) {
  const std::string text = read_corpus_file("truncated.json");
  EXPECT_FALSE(RunReport::parse(text).has_value());
  EXPECT_FALSE(validate_runreport(text).empty());
}

TEST(RunReportCorpus, DuplicateKeyIsRejected) {
  const std::string text = read_corpus_file("duplicate_key.json");
  std::string error;
  EXPECT_FALSE(json::Value::parse(text, &error).has_value());
  EXPECT_FALSE(RunReport::parse(text).has_value());
}

TEST(RunReportCorpus, NonFiniteNumberIsRejected) {
  const std::string text = read_corpus_file("huge_number.json");
  std::string error;
  EXPECT_FALSE(json::Value::parse(text, &error).has_value());
  EXPECT_FALSE(RunReport::parse(text).has_value());
}

TEST(RunReportCorpus, EveryCorpusFileParsesOrRejectsWithoutCrashing) {
  const std::string dir = std::string(BSS_FUZZ_CORPUS_DIR) + "/runreport";
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seen;
    std::ifstream stream(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string text = buffer.str();
    // The full-validator / parse consistency oracle from fuzz_runreport:
    // a validator-clean artifact must parse.
    const auto report = RunReport::parse(text);
    if (validate_runreport(text).empty()) {
      EXPECT_TRUE(report.has_value()) << entry.path();
    }
    // And the canonical-JSON fixed point, when the text is JSON at all.
    const auto value = json::Value::parse(text);
    if (value.has_value()) {
      const auto again = json::Value::parse(value->dump());
      ASSERT_TRUE(again.has_value()) << entry.path();
      EXPECT_TRUE(*again == *value) << entry.path();
    }
  }
  EXPECT_GE(seen, 4u) << "corpus dir unexpectedly empty: " << dir;
}

// ------------------------------------------------------------ bss-status v1

Status sample_status() {
  Status status;
  status.producer = "test";
  status.system = "one_shot[k=4,n=2]";
  status.seq = 7;
  status.state = "running";
  status.schedules = 1000;
  status.violations = 1;
  status.frontier = 12;
  status.fingerprint_prunes = 250;
  status.fingerprint_hit_rate_ppm = 200'000;
  status.checkpoints = 2;
  status.max_schedules = 5000;
  status.passes = 1;
  status.jobs = 4;
  WorkerStatus worker;
  worker.worker = 0;
  worker.state = "stealing";
  worker.steals = 3;
  worker.schedules = 500;
  status.workers.push_back(worker);
  return status;
}

TEST(StatusArtifact, TypedRoundTripIsAByteFixedPoint) {
  const std::string text = sample_status().to_json();
  EXPECT_TRUE(validate_status(text).empty());
  std::string error;
  const auto parsed = Status::from_artifact(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_json(), text);
  EXPECT_EQ(parsed->seq, 7u);
  EXPECT_EQ(parsed->fingerprint_hit_rate_ppm, 200'000u);
  ASSERT_EQ(parsed->workers.size(), 1u);
  EXPECT_EQ(parsed->workers[0].state, "stealing");
  EXPECT_EQ(parsed->workers[0].steals, 3u);
}

TEST(StatusArtifact, EmptySectionsAreOmittedNotEmitted) {
  // Absent ⟺ empty: an empty system / workers / profile / timing section
  // never appears in the document, so the round trip stays a fixed point.
  Status status = sample_status();
  status.system.clear();
  status.workers.clear();
  const std::string text = status.to_json();
  EXPECT_EQ(text.find("\"system\""), std::string::npos);
  EXPECT_EQ(text.find("\"workers\""), std::string::npos);
  EXPECT_TRUE(validate_status(text).empty());
  // And the validator enforces the other direction: present-but-empty
  // sections are schema findings, not style.
  auto root = json::Value::parse(sample_status().to_json())->as_object();
  root["workers"] = json::Value(json::Array{});
  root["profile"] = json::Value(json::Object{});
  const auto errors = validate_status(json::Value(root).dump(1));
  EXPECT_EQ(errors.size(), 2u);
}

TEST(StatusArtifact, ValidatorRejectsBadStates) {
  auto root = json::Value::parse(sample_status().to_json())->as_object();
  root["state"] = json::Value("paused");
  EXPECT_FALSE(validate_status(json::Value(root).dump(1)).empty());
  root = json::Value::parse(sample_status().to_json())->as_object();
  root["workers"].as_array()[0].as_object()["state"] =
      json::Value("moonlighting");
  EXPECT_FALSE(validate_status(json::Value(root).dump(1)).empty());
}

TEST(StatusArtifact, ValidatorRejectsUnknownKeys) {
  auto root = json::Value::parse(sample_status().to_json())->as_object();
  root.emplace("surprise", 1);
  auto errors = validate_status(json::Value(root).dump(1));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown"), std::string::npos) << errors[0];
  root = json::Value::parse(sample_status().to_json())->as_object();
  root["progress"].as_object().emplace("futures", 7);
  EXPECT_FALSE(validate_status(json::Value(root).dump(1)).empty());
}

TEST(StatusArtifact, ValidatorRejectsHitRateAboveOneMillion) {
  auto root = json::Value::parse(sample_status().to_json())->as_object();
  root["progress"].as_object()["fingerprint_hit_rate_ppm"] =
      json::Value(std::uint64_t{1'000'001});
  EXPECT_FALSE(validate_status(json::Value(root).dump(1)).empty());
}

TEST(StatusArtifact, ValidatorRejectsNegativeTimingFields) {
  auto root = json::Value::parse(sample_status().to_json())->as_object();
  json::Object timing;
  timing.emplace("checkpoint_age_ms", -250);
  timing.emplace("schedules_per_second", -42.5);
  root.emplace("timing", json::Value(std::move(timing)));
  EXPECT_EQ(validate_status(json::Value(root).dump(1)).size(), 2u);
}

// ---------------------------------------------------------- status writer

/// A per-process path: ctest runs each case as its own process, and cases
/// that share a file name (every expect_status_passive caller) must not
/// delete or rewrite one another's heartbeat under `ctest -j`.
std::string temp_status_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

TEST(StatusWriterTest, DisabledWriterIsANoOp) {
  // No path anywhere (ctest runs with BSS_STATUS unset): every method is
  // inert, so the explore() call sites need no enabled() guards.
  StatusWriter writer;
  EXPECT_FALSE(writer.enabled());
  EXPECT_FALSE(writer.due());
  EXPECT_FALSE(writer.write(sample_status()));
}

TEST(StatusWriterTest, PublishesSequencedValidatedSnapshots) {
  const std::string path = temp_status_path("bss_status_writer_test.json");
  StatusWriter writer(path, /*every_ms=*/1);
  writer.note_checkpoint();
  ASSERT_TRUE(writer.write(sample_status()));
  Status final_status = sample_status();
  final_status.state = "complete";
  final_status.schedules = final_status.max_schedules / 2;
  ASSERT_TRUE(writer.write(std::move(final_status)));

  std::ifstream stream(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  const std::string text = buffer.str();
  EXPECT_TRUE(validate_status(text).empty());
  const auto parsed = Status::from_artifact(text);
  ASSERT_TRUE(parsed.has_value());
  // The writer owns seq: caller-supplied values are overwritten 0, 1, …
  EXPECT_EQ(parsed->seq, 1u);
  EXPECT_EQ(parsed->state, "complete");
  // A complete campaign that stopped below max_schedules must not
  // advertise an ETA to a cap it never hit.
  EXPECT_EQ(parsed->timing.find("eta_seconds"), parsed->timing.end());
  EXPECT_NE(parsed->timing.find("elapsed_ms"), parsed->timing.end());
  EXPECT_NE(parsed->timing.find("checkpoint_age_ms"), parsed->timing.end());
  std::filesystem::remove(path);
}

TEST(StatusWriterTest, ResolvesPathAndCadenceFromEnvironment) {
  const std::string path = temp_status_path("bss_status_env_test.json");
  ASSERT_EQ(setenv("BSS_STATUS", path.c_str(), 1), 0);
  ASSERT_EQ(setenv("BSS_STATUS_EVERY_MS", "250", 1), 0);
  const StatusWriter from_env(std::string(), 0);
  EXPECT_TRUE(from_env.enabled());
  EXPECT_EQ(from_env.path(), path);
  EXPECT_EQ(from_env.every_ms(), 250u);
  // Explicit arguments beat the environment.
  const StatusWriter explicit_writer("elsewhere.json", 50);
  EXPECT_EQ(explicit_writer.path(), "elsewhere.json");
  EXPECT_EQ(explicit_writer.every_ms(), 50u);
  ASSERT_EQ(unsetenv("BSS_STATUS"), 0);
  ASSERT_EQ(unsetenv("BSS_STATUS_EVERY_MS"), 0);
  const StatusWriter disabled(std::string(), 0);
  EXPECT_FALSE(disabled.enabled());
}

// ---------------------------------------------------------- phase profiler

TEST(PhaseProfilerTest, InertWithoutASink) {
  // The passivity contract's cheap half: a null profiler means ScopedPhase
  // is two pointer writes and zero clock reads, and the default Telemetry
  // sink hands explore() exactly that null.
  const ScopedPhase inert(nullptr, Phase::kStep);
  Telemetry telemetry;
  EXPECT_EQ(telemetry.profiler(), nullptr);
  Telemetry::Options options;
  options.profile = true;
  Telemetry profiling(options);
  EXPECT_NE(profiling.profiler(), nullptr);
}

TEST(PhaseProfilerTest, AccumulatesPerPhaseCallsAndTime) {
  PhaseProfiler profiler;
  EXPECT_FALSE(profiler.has_data());
  { const ScopedPhase scope(&profiler, Phase::kMerge); }
  { const ScopedPhase scope(&profiler, Phase::kMerge); }
  { const ScopedPhase scope(&profiler, Phase::kStep); }
  EXPECT_TRUE(profiler.has_data());
  EXPECT_EQ(profiler.calls(Phase::kMerge), 2u);
  EXPECT_EQ(profiler.calls(Phase::kStep), 1u);
  EXPECT_EQ(profiler.calls(Phase::kDdmin), 0u);
  const json::Object table = profiler.to_json();
  ASSERT_EQ(table.size(), 2u);  // only phases with calls > 0
  for (const auto& [name, cell] : table) {
    EXPECT_TRUE(is_phase_name(name)) << name;
    EXPECT_GE(cell.as_object().at("calls").as_int(), 1);
  }
}

TEST(ObsReport, ProfileSectionValidatesWhenEnabled) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  Telemetry::Options sink_options;
  sink_options.profile = true;
  Telemetry telemetry(sink_options);
  ExploreOptions options;
  options.telemetry = &telemetry;
  (void)explore::explore(system, options);
  ASSERT_FALSE(telemetry.last_report().empty());
  const auto errors = validate_runreport(telemetry.last_report());
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0]);
  const auto root = json::Value::parse(telemetry.last_report());
  ASSERT_TRUE(root.has_value());
  const json::Value* profile = root->find("profile");
  ASSERT_NE(profile, nullptr);
  // This run steps schedules and minimizes a counterexample, so both
  // phases must have accumulated intervals.
  EXPECT_NE(profile->find("step"), nullptr);
  EXPECT_NE(profile->find("ddmin"), nullptr);
}

// ------------------------------------------------------- status passivity

/// Explores `system` with the heartbeat off (reference), then with a
/// 0 ms-cadence heartbeat (every pass boundary writes) serial and at
/// jobs=4 under the stealing engine — results must stay byte-identical,
/// and every published snapshot must be schema-clean.
void expect_status_passive(const ExplorableSystem& system,
                           ExploreOptions options) {
  options.jobs = 1;
  const ExploreResult reference = explore::explore(system, options);
  const std::string path = temp_status_path("bss_status_passivity.json");
  for (const int jobs : {1, 4}) {
    ExploreOptions instrumented = options;
    instrumented.jobs = jobs;
    instrumented.status_path = path;
    instrumented.status_every_ms = 1;
    expect_identical(reference, explore::explore(system, instrumented),
                     system.name() + " status jobs=" + std::to_string(jobs));
    std::ifstream stream(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const auto errors = validate_status(buffer.str());
    EXPECT_TRUE(errors.empty())
        << system.name() << " jobs=" << jobs << ": "
        << (errors.empty() ? "" : errors[0]);
    const auto parsed = Status::from_artifact(buffer.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->state, "complete");
    EXPECT_EQ(parsed->schedules, reference.stats.schedules);
    EXPECT_EQ(parsed->violations, reference.violations.size());
    EXPECT_EQ(parsed->jobs, static_cast<std::uint64_t>(jobs));
    std::filesystem::remove(path);
  }
}

TEST(StatusPassivity, CleanOneShotExhaustiveSweep) {
  expect_status_passive(OneShotSystem(4, 2), {});
}

TEST(StatusPassivity, ClaimAfterCasMutant) {
  expect_status_passive(OneShotSystem(4, 3, OneShotMutant::kClaimAfterCas),
                        {});
}

TEST(StatusPassivity, SplitCasMutantWithFingerprintPrune) {
  // Fingerprint pruning feeds the hit-rate field; status must not perturb
  // the prune sequence either.
  ExploreOptions options;
  options.fingerprint_prune = true;
  expect_status_passive(OneShotSystem(4, 2, OneShotMutant::kSplitCas),
                        options);
}

TEST(StatusPassivity, ScBlindLlScMutantWithFingerprintPrune) {
  ExploreOptions options;
  options.fingerprint_prune = true;
  expect_status_passive(LlScSystem(3, 2, /*sc_blind=*/true), options);
}

TEST(StatusPassivity, FaultSweepWithStatusAndProfiler) {
  // The full observer stack at once: heartbeat + profiling telemetry over
  // a crash-restart fault sweep.
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  const ExploreResult reference = explore::explore(system, options);
  const std::string path = temp_status_path("bss_status_profiled.json");
  Telemetry::Options sink_options;
  sink_options.profile = true;
  Telemetry telemetry(sink_options);
  ExploreOptions instrumented = options;
  instrumented.jobs = 4;
  instrumented.telemetry = &telemetry;
  instrumented.status_path = path;
  instrumented.status_every_ms = 1;
  expect_identical(reference, explore::explore(system, instrumented),
                   "status+profile fault sweep");
  std::ifstream stream(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  EXPECT_TRUE(validate_status(buffer.str()).empty());
  const auto parsed = Status::from_artifact(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  // The profiler table is mirrored into the heartbeat's profile section.
  EXPECT_FALSE(parsed->profile.empty());
  std::filesystem::remove(path);
}

// ------------------------------------------------- status fuzz corpus

TEST(StatusCorpus, EveryCorpusFileHoldsTheFuzzOracles) {
  const std::string dir = std::string(BSS_FUZZ_CORPUS_DIR) + "/status";
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seen;
    std::ifstream stream(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string text = buffer.str();
    // Validator/parse agreement, both directions (the fuzz_status oracle).
    const auto status = Status::from_artifact(text);
    EXPECT_EQ(validate_status(text).empty(), status.has_value())
        << entry.path();
    // Canonical-JSON fixed point when the text is JSON at all.
    if (const auto value = json::Value::parse(text); value.has_value()) {
      const auto again = json::Value::parse(value->dump());
      ASSERT_TRUE(again.has_value()) << entry.path();
      EXPECT_TRUE(*again == *value) << entry.path();
    }
  }
  EXPECT_GE(seen, 8u) << "corpus dir unexpectedly thin: " << dir;
}

}  // namespace
}  // namespace bss::obs
