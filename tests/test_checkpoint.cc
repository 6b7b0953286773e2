// The kill-and-resume battery for `bss-checkpoint v1`.
//
// The durability contract under test: a campaign that is killed after any
// periodic checkpoint and resumed from the artifact must end byte-identical
// to an uninterrupted serial run — same stats summary, same exhausted
// verdict, same violations with the same minimized tapes.  The kill is the
// deterministic halt_after_checkpoints valve (the engine stops dead right
// after a periodic write, exactly what a SIGKILL leaves behind); CI
// additionally delivers a real SIGKILL through bench_explore.  On top of
// the resume loops: artifact round-trip byte-equality, and strict rejection
// of malformed inputs (unknown schema, truncation, missing keys,
// out-of-range pid tokens, structural lies).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/mutant_elections.h"
#include "explore/checkpoint.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/skewed_system.h"
#include "obs/json.h"
#include "util/checked.h"

namespace bss::explore {
namespace {

using core::OneShotMutant;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_identical(const ExploreResult& serial, const ExploreResult& other,
                      const std::string& label) {
  EXPECT_EQ(serial.stats.summary(), other.stats.summary()) << label;
  EXPECT_EQ(serial.exhausted, other.exhausted) << label;
  ASSERT_EQ(serial.violations.size(), other.violations.size()) << label;
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(serial.violations[i].to_artifact(),
              other.violations[i].to_artifact())
        << label << " violation " << i;
  }
}

/// Runs the campaign to completion through repeated kill-and-resume cycles:
/// every cycle halts right after ONE periodic checkpoint (dropping the
/// engine and all in-memory state on the floor, like a SIGKILL would), then
/// the next cycle resumes from the artifact.  Returns the final,
/// non-halted result.
ExploreResult run_killed_campaign(const ExplorableSystem& system,
                                  ExploreOptions options,
                                  const std::string& path,
                                  std::uint64_t checkpoint_every,
                                  int* cycles_out = nullptr) {
  options.checkpoint_path = path;
  options.checkpoint_every = checkpoint_every;
  options.halt_after_checkpoints = 1;
  int cycles = 0;
  for (; cycles < 1000; ++cycles) {
    ExploreOptions attempt = options;
    attempt.resume_path = cycles == 0 ? "" : path;
    const ExploreResult result = explore(system, attempt);
    if (!result.halted) {
      if (cycles_out != nullptr) *cycles_out = cycles;
      return result;
    }
    EXPECT_EQ(result.checkpoints_written, 1u)
        << "a halted cycle writes exactly the one periodic checkpoint";
  }
  ADD_FAILURE() << "campaign did not converge within 1000 resume cycles";
  if (cycles_out != nullptr) *cycles_out = cycles;
  return ExploreResult{};
}

// ------------------------------------------------------ artifact round-trip

TEST(Checkpoint, CompleteArtifactRoundTripsByteIdentical) {
  const std::string path = temp_path("cp_roundtrip.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.checkpoint_path = path;
  const ExploreResult result = explore(system, options);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.checkpoints_written, 1u);  // just the final artifact

  const std::string text = read_file(path);
  EXPECT_TRUE(validate_checkpoint(text).empty());
  const auto cp = Checkpoint::from_artifact(text);
  ASSERT_TRUE(cp.has_value());
  EXPECT_TRUE(cp->complete);
  EXPECT_TRUE(cp->frontier.empty());
  EXPECT_EQ(cp->system, system.name());
  EXPECT_EQ(cp->stats.schedules, result.stats.schedules);
  EXPECT_EQ(cp->to_artifact(), text);  // byte-identical round trip
}

TEST(Checkpoint, HaltedArtifactWithFrontierRoundTripsByteIdentical) {
  const std::string path = temp_path("cp_frontier.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.use_por = false;  // 1680 schedules: the halt valve actually fires
  options.checkpoint_path = path;
  options.checkpoint_every = 30;
  options.halt_after_checkpoints = 1;
  const ExploreResult result = explore(system, options);
  ASSERT_TRUE(result.halted);

  const std::string text = read_file(path);
  EXPECT_TRUE(validate_checkpoint(text).empty());
  const auto cp = Checkpoint::from_artifact(text);
  ASSERT_TRUE(cp.has_value());
  EXPECT_FALSE(cp->complete);
  ASSERT_FALSE(cp->frontier.empty());
  EXPECT_EQ(cp->to_artifact(), text);
}

// ------------------------------------------------------ kill-and-resume

TEST(Checkpoint, KillAndResumeCleanCampaignByteIdentical) {
  // The skewed workload defeats POR entirely (504 schedules), so the
  // campaign is killed and resumed many times before it completes.
  SkewedWriterSystem system(4, 6, 1);
  const ExploreResult uninterrupted = explore(system, {});
  int cycles = 0;
  const ExploreResult resumed = run_killed_campaign(
      system, {}, temp_path("cp_clean.json"), 40, &cycles);
  EXPECT_GE(cycles, 2) << "the campaign must actually be killed mid-flight";
  expect_identical(uninterrupted, resumed, "clean kill-and-resume");
}

TEST(Checkpoint, KillAndResumeCollectAllMutantCampaignByteIdentical) {
  OneShotSystem system(4, 2, OneShotMutant::kSplitCas);
  ExploreOptions options;
  options.use_por = false;  // enough schedules for several kill cycles
  options.stop_at_first_violation = false;
  options.max_violations = 8;
  const ExploreResult uninterrupted = explore(system, options);
  ASSERT_FALSE(uninterrupted.ok());
  int cycles = 0;
  const ExploreResult resumed = run_killed_campaign(
      system, options, temp_path("cp_mutant.json"), 5, &cycles);
  EXPECT_GE(cycles, 1);
  expect_identical(uninterrupted, resumed, "collect-all kill-and-resume");
}

TEST(Checkpoint, KillAndResumeCrashRestartCampaignByteIdentical) {
  OneShotSystem system(4, 2, OneShotMutant::kNone, /*restartable=*/true);
  ExploreOptions options;
  options.fault_bound = 1;
  options.iterative = true;
  const ExploreResult uninterrupted = explore(system, options);
  int cycles = 0;
  const ExploreResult resumed = run_killed_campaign(
      system, options, temp_path("cp_faults.json"), 25, &cycles);
  EXPECT_GE(cycles, 2);
  expect_identical(uninterrupted, resumed, "crash-restart kill-and-resume");
}

TEST(Checkpoint, KillAndResumeWithFourWorkersByteIdentical) {
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.use_por = false;  // 1680 schedules
  const ExploreResult uninterrupted = explore(system, options);  // serial
  options.jobs = 4;
  const ExploreResult resumed = run_killed_campaign(
      system, options, temp_path("cp_jobs4.json"), 80);
  expect_identical(uninterrupted, resumed, "jobs=4 kill-and-resume");
}

TEST(Checkpoint, ResumeFromCompleteArtifactReproducesTheResult) {
  const std::string path = temp_path("cp_complete.json");
  OneShotSystem system(4, 3, OneShotMutant::kClaimAfterCas);
  ExploreOptions options;
  options.checkpoint_path = path;
  const ExploreResult first = explore(system, options);
  ASSERT_FALSE(first.ok());

  ExploreOptions again = options;
  again.resume_path = path;
  const ExploreResult second = explore(system, again);
  EXPECT_FALSE(second.halted);
  expect_identical(first, second, "resume from complete artifact");
}

// ------------------------------------------------------ resume validation

TEST(Checkpoint, ResumeRejectsDifferentSystem) {
  const std::string path = temp_path("cp_wrong_system.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.checkpoint_path = path;
  explore(system, options);

  OneShotSystem other(4, 2);
  ExploreOptions resume;
  resume.resume_path = path;
  resume.checkpoint_path = path;
  EXPECT_THROW(explore(other, resume), InvariantError);
}

TEST(Checkpoint, ResumeRejectsDifferentResultAffectingOptions) {
  const std::string path = temp_path("cp_wrong_options.json");
  OneShotSystem system(4, 3);
  ExploreOptions options;
  options.checkpoint_path = path;
  explore(system, options);

  ExploreOptions resume = options;
  resume.resume_path = path;
  resume.use_por = false;  // result-affecting: must be rejected
  EXPECT_THROW(explore(system, resume), InvariantError);

  ExploreOptions benign = options;
  benign.resume_path = path;
  benign.jobs = 4;        // scheduling knob: excluded from the fingerprint
  benign.steal_depth = 2;
  EXPECT_FALSE(explore(system, benign).halted);
}

// --------------------------------------------------- malformed artifacts

/// A real halted artifact (non-empty frontier) to corrupt.  ctest runs
/// every case in its own process, so each process writes its own donor.
const std::string& frontier_artifact() {
  static const std::string text = [] {
    const std::string path =
        temp_path("cp_donor." + std::to_string(getpid()) + ".json");
    OneShotSystem system(4, 3);
    ExploreOptions options;
    options.use_por = false;  // big enough that the halt valve fires
    options.checkpoint_path = path;
    options.checkpoint_every = 30;
    options.halt_after_checkpoints = 1;
    const ExploreResult result = explore(system, options);
    expects(result.halted, "donor campaign must halt mid-flight");
    std::string donor = read_file(path);
    std::remove(path.c_str());
    return donor;
  }();
  return text;
}

/// Parses the donor artifact, applies `mutate` to the root object, and
/// returns the re-dumped document.
template <class Fn>
std::string mutated_artifact(Fn mutate) {
  auto value = obs::json::Value::parse(frontier_artifact());
  expects(value.has_value(), "donor artifact must parse");
  mutate(value->as_object());
  return value->dump(2) + "\n";
}

void expect_rejected(const std::string& text, const std::string& label) {
  std::string error;
  EXPECT_FALSE(Checkpoint::from_artifact(text, &error).has_value()) << label;
  EXPECT_FALSE(error.empty()) << label;
  EXPECT_FALSE(validate_checkpoint(text).empty()) << label;
}

TEST(Checkpoint, RejectsUnknownSchemaVersion) {
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root["schema"] = obs::json::Value("bss-checkpoint v2");
                  }),
                  "unknown version");
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root.erase("schema");
                  }),
                  "missing schema");
}

TEST(Checkpoint, RejectsTruncatedDocument) {
  const std::string& text = frontier_artifact();
  expect_rejected(text.substr(0, text.size() / 2), "truncated JSON");
  expect_rejected("", "empty document");
  expect_rejected("not json at all\n", "garbage");
}

TEST(Checkpoint, RejectsMissingAndUnknownKeys) {
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root.erase("frontier");
                  }),
                  "missing frontier");
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root.erase("stats");
                  }),
                  "missing stats");
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root["extra"] = obs::json::Value(1);
                  }),
                  "unknown key");
}

TEST(Checkpoint, RejectsOutOfRangePidTokens) {
  const auto poison_first_chosen = [](const char* token) {
    return [token](obs::json::Object& root) {
      auto& frontier = root.at("frontier").as_array();
      for (auto& unit : frontier) {
        auto& frames = unit.as_object().at("frames").as_array();
        if (frames.empty()) continue;
        frames.front().as_object()["chosen"] = obs::json::Value(token);
        return;
      }
      expects(false, "donor frontier has no frames to poison");
    };
  };
  // pid >= the artifact's own process count
  expect_rejected(mutated_artifact(poison_first_chosen("7")),
                  "pid past process count");
  // pid past the dense-encoding ceiling
  expect_rejected(mutated_artifact(poison_first_chosen("c999999999999")),
                  "pid past encoding ceiling");
  expect_rejected(mutated_artifact(poison_first_chosen("x1")),
                  "unknown action prefix");
}

TEST(Checkpoint, RejectsStructuralLies) {
  // complete campaign with a non-empty frontier
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    root["complete"] = obs::json::Value(true);
                  }),
                  "complete with outstanding frontier");
  // floor past the frame stack
  expect_rejected(mutated_artifact([](obs::json::Object& root) {
                    auto& frontier = root.at("frontier").as_array();
                    for (auto& unit : frontier) {
                      auto& obj = unit.as_object();
                      const auto frames =
                          obj.at("frames").as_array().size();
                      obj["floor"] = obs::json::Value(
                          static_cast<std::uint64_t>(frames + 1));
                      return;
                    }
                  }),
                  "floor past frame stack");
}

TEST(Checkpoint, WriteIsAtomicReplacement) {
  const std::string path = temp_path("cp_atomic.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "previous contents";
  }
  ASSERT_TRUE(write_checkpoint_file(path, "new contents\n"));
  EXPECT_EQ(read_file(path), "new contents\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good())
      << "the temp file must not survive the rename";
}

// ---------------------------------------------------------------------------
// Fuzz-corpus regressions.  tools/fuzz/corpus/checkpoint holds the seed and
// harvested inputs for fuzz_checkpoint; replaying them here keeps every
// malformed shape a named, debuggable regression even without the fuzz
// driver.  BSS_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt.

std::string read_corpus_file(const std::string& name) {
  const std::string path =
      std::string(BSS_FUZZ_CORPUS_DIR) + "/checkpoint/" + name;
  std::ifstream stream(path, std::ios::binary);
  EXPECT_TRUE(stream.is_open()) << "missing corpus file: " << path;
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

TEST(CheckpointCorpus, RealCampaignSeedRoundTripsByteIdentical) {
  const std::string text = read_corpus_file("campaign.json");
  std::string error;
  const auto parsed = Checkpoint::from_artifact(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->to_artifact(), text)
      << "a bench_explore-written checkpoint must already be canonical";
}

TEST(CheckpointCorpus, TruncatedRealArtifactIsRejectedWithReason) {
  const std::string text = read_corpus_file("truncated.json");
  std::string error;
  EXPECT_FALSE(Checkpoint::from_artifact(text, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCorpus, SchemaOnlyDocumentIsRejectedWithReason) {
  const std::string text = read_corpus_file("schema_only.json");
  std::string error;
  EXPECT_FALSE(Checkpoint::from_artifact(text, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointCorpus, EveryCorpusFileParsesOrRejectsWithoutCrashing) {
  const std::string dir = std::string(BSS_FUZZ_CORPUS_DIR) + "/checkpoint";
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seen;
    std::ifstream stream(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    const std::string text = buffer.str();
    std::string error;
    const auto parsed = Checkpoint::from_artifact(text, &error);
    // The fuzz_checkpoint oracles: gate/parse agreement, reasons on
    // rejection, to_artifact a fixed point on acceptance.
    EXPECT_EQ(parsed.has_value(), validate_checkpoint(text).empty())
        << entry.path();
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty()) << entry.path();
      continue;
    }
    const std::string round = parsed->to_artifact();
    const auto reparsed = Checkpoint::from_artifact(round, &error);
    ASSERT_TRUE(reparsed.has_value()) << entry.path() << ": " << error;
    EXPECT_EQ(reparsed->to_artifact(), round) << entry.path();
  }
  EXPECT_GE(seen, 3u) << "corpus dir unexpectedly empty: " << dir;
}

}  // namespace
}  // namespace bss::explore
