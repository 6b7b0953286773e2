// The exploration fast-path battery: fingerprint-prune determinism and
// soundness, plus the schedules/second runreport channel.
//
// The contract under test: `ExploreOptions::fingerprint_prune` may skip
// subtrees only when a previous iterative pass covered them completely (no
// budget cut, no truncation, no violation anywhere below), so a pruned
// campaign finds the IDENTICAL violation tapes and the identical exhausted
// verdict as a full one — and, like every other explorer feature, its
// results (including the new fingerprint_prunes counter) are byte-identical
// at every worker count and steal granularity, and survive checkpoint
// kill-and-resume unchanged.  Systems with the empty default
// fingerprint must fall back to full exploration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/mutant_elections.h"
#include "explore/checkpoint.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "explore/skewed_system.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/runreport.h"
#include "registers/mwmr_register.h"
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

/// The iterative workload the cache bites on: naive DFS (POR prunes nothing
/// here anyway) swept across preemption budgets, so later passes revisit
/// subtrees earlier passes covered cleanly.
ExploreOptions iterative_options(bool prune) {
  ExploreOptions options;
  options.use_por = false;
  options.iterative = true;
  options.preemption_bound = 2;
  options.fingerprint_prune = prune;
  return options;
}

void expect_identical(const ExploreResult& expected,
                      const ExploreResult& actual, const std::string& label) {
  EXPECT_EQ(expected.stats.summary(), actual.stats.summary()) << label;
  EXPECT_EQ(expected.stats.fingerprint_prunes,
            actual.stats.fingerprint_prunes)
      << label;
  EXPECT_EQ(expected.exhausted, actual.exhausted) << label;
  ASSERT_EQ(expected.violations.size(), actual.violations.size()) << label;
  for (std::size_t i = 0; i < expected.violations.size(); ++i) {
    EXPECT_EQ(expected.violations[i].decisions, actual.violations[i].decisions)
        << label << " violation " << i;
  }
}

/// Coverage parity between a pruned and a full campaign: same exhausted
/// verdict and the identical violation tapes (schedule counts legitimately
/// differ — that is the point of the cache).
void expect_coverage_parity(const ExploreResult& full,
                            const ExploreResult& pruned,
                            const std::string& label) {
  EXPECT_EQ(full.exhausted, pruned.exhausted) << label;
  ASSERT_EQ(full.violations.size(), pruned.violations.size()) << label;
  for (std::size_t i = 0; i < full.violations.size(); ++i) {
    EXPECT_EQ(full.violations[i].decisions, pruned.violations[i].decisions)
        << label << " violation " << i;
  }
}

// --------------------------------------------------- determinism invariance

TEST(Fastpath, PruneResultsInvariantAcrossJobsAndStealDepth) {
  SkewedWriterSystem system(3, 4, 1);
  const ExploreResult serial = explore(system, iterative_options(true));
  EXPECT_GT(serial.stats.fingerprint_prunes, 0u);

  for (const int jobs : {1, 2, 4}) {
    for (const int steal_depth : {0, 1, 3}) {
      ExploreOptions options = iterative_options(true);
      options.jobs = jobs;
      options.steal_depth = steal_depth;
      const ExploreResult result = explore(system, options);
      expect_identical(serial, result,
                       "jobs=" + std::to_string(jobs) +
                           " steal_depth=" + std::to_string(steal_depth));
    }
  }
}

// Audit and telemetry stay passive with the cache engaged: a fully observed
// prune-on run (every schedule commute-checked, metrics and events on)
// prunes the same subtrees and ends byte-identical to the plain one.
TEST(Fastpath, AuditAndTelemetryPassiveUnderPruning) {
  SkewedWriterSystem system(4, 6, 1);
  ExploreOptions options = iterative_options(true);
  options.preemption_bound = 4;
  const ExploreResult plain = explore(system, options);
  EXPECT_GT(plain.stats.fingerprint_prunes, 0u);

  obs::Telemetry::Options obs_options;
  obs_options.metrics = true;
  obs_options.events = true;
  obs::Telemetry telemetry(obs_options);
  options.audit = true;
  options.audit_commute_sample = 1;
  options.telemetry = &telemetry;
  expect_identical(plain, explore(system, options), "audited + telemetry");
}

// ------------------------------------------------------- coverage soundness

TEST(Fastpath, PrunedCleanCampaignKeepsCoverageAndVerdict) {
  SkewedWriterSystem system(3, 4, 1);
  const ExploreResult full = explore(system, iterative_options(false));
  const ExploreResult pruned = explore(system, iterative_options(true));
  EXPECT_GT(pruned.stats.fingerprint_prunes, 0u);
  EXPECT_LT(pruned.stats.schedules, full.stats.schedules);
  EXPECT_LT(pruned.stats.transitions, full.stats.transitions);
  expect_coverage_parity(full, pruned, "clean skewed campaign");
}

TEST(Fastpath, MutantSweepLosesNoRefutationsUnderPruning) {
  for (const OneShotMutant mutant :
       {OneShotMutant::kClaimAfterCas, OneShotMutant::kSplitCas}) {
    OneShotSystem system(4, 3, mutant);
    ExploreOptions base = iterative_options(false);
    base.preemption_bound = 1;
    base.stop_at_first_violation = false;
    base.max_violations = std::size_t{1} << 20;
    base.minimize = false;
    const ExploreResult full = explore(system, base);
    ASSERT_FALSE(full.violations.empty());

    ExploreOptions pruned_options = base;
    pruned_options.fingerprint_prune = true;
    const ExploreResult pruned = explore(system, pruned_options);
    expect_coverage_parity(full, pruned, "mutant sweep");
  }
}

// --------------------------------------------- fingerprint opt-in semantics

/// Three processes, two writes each to private registers — states converge
/// across interleavings, so a fingerprint makes the cache bite.
class PrivateRegisterState {
 public:
  PrivateRegisterState() {
    for (int pid = 0; pid < 3; ++pid) {
      regs_.emplace_back("r" + std::to_string(pid), 0);
    }
  }
  sim::MwmrRegister<int>& reg(int pid) {
    return regs_[static_cast<std::size_t>(pid)];
  }

 private:
  std::vector<sim::MwmrRegister<int>> regs_;
};

FactorySystem private_register_system(bool with_fingerprint) {
  return FactorySystem("private-regs", 3, [with_fingerprint] {
    StatefulInstance<PrivateRegisterState>::Fingerprint fingerprint;
    if (with_fingerprint) {
      fingerprint = [](PrivateRegisterState& state, const sim::SimEnv&) {
        std::string out;
        for (int pid = 0; pid < 3; ++pid) {
          out += std::to_string(state.reg(pid).peek()) + ";";
        }
        return out;
      };
    }
    return std::make_unique<StatefulInstance<PrivateRegisterState>>(
        std::make_unique<PrivateRegisterState>(),
        [](PrivateRegisterState& state, sim::SimEnv& env) {
          for (int pid = 0; pid < 3; ++pid) {
            env.add_process([&state, pid](sim::Ctx& ctx) {
              state.reg(pid).write(ctx, 1);
              state.reg(pid).write(ctx, 2);
            });
          }
        },
        [](PrivateRegisterState&, const sim::SimEnv&,
           const sim::RunReport& report) -> std::optional<std::string> {
          if (!report.clean()) return "run not clean";
          return std::nullopt;
        },
        std::move(fingerprint));
  });
}

TEST(Fastpath, EmptyDefaultFingerprintFallsBackToFullExploration) {
  const FactorySystem system = private_register_system(false);
  const ExploreResult full = explore(system, iterative_options(false));
  const ExploreResult pruned = explore(system, iterative_options(true));
  EXPECT_EQ(pruned.stats.fingerprint_prunes, 0u);
  expect_identical(full, pruned, "empty-fingerprint fallback");
}

TEST(Fastpath, StatefulInstanceFingerprintEnablesPruning) {
  const FactorySystem system = private_register_system(true);
  const ExploreResult full = explore(system, iterative_options(false));
  const ExploreResult pruned = explore(system, iterative_options(true));
  EXPECT_GT(pruned.stats.fingerprint_prunes, 0u);
  expect_coverage_parity(full, pruned, "StatefulInstance fingerprint");
}

TEST(Fastpath, EnvVarForcesPruningOn) {
  ASSERT_EQ(setenv("BSS_EXPLORE_FP", "1", 1), 0);
  SkewedWriterSystem system(3, 4, 1);
  const ExploreResult forced = explore(system, iterative_options(false));
  ASSERT_EQ(unsetenv("BSS_EXPLORE_FP"), 0);
  const ExploreResult pruned = explore(system, iterative_options(true));
  expect_identical(pruned, forced, "BSS_EXPLORE_FP force-on");
  EXPECT_GT(forced.stats.fingerprint_prunes, 0u);
}

// ------------------------------------------------------- checkpoint/resume

TEST(Fastpath, PruneCounterAndCacheSurviveKillAndResume) {
  SkewedWriterSystem system(3, 4, 1);
  const ExploreResult uninterrupted = explore(system, iterative_options(true));

  const std::string path = temp_path("fp_resume.json");
  ExploreOptions options = iterative_options(true);
  options.checkpoint_path = path;
  options.checkpoint_every = 5;
  options.halt_after_checkpoints = 1;
  bool saw_mid_artifact = false;
  int cycles = 0;
  ExploreResult final_result;
  for (; cycles < 1000; ++cycles) {
    ExploreOptions attempt = options;
    attempt.resume_path = cycles == 0 ? "" : path;
    final_result = explore(system, attempt);
    if (!final_result.halted) break;
    // Every artifact left behind by a kill must validate, round-trip
    // byte-identically with its fingerprint fields, and carry the prune
    // option in the resume fingerprint.
    if (!saw_mid_artifact) {
      const std::string text = read_file(path);
      EXPECT_TRUE(validate_checkpoint(text).empty());
      const auto cp = Checkpoint::from_artifact(text);
      ASSERT_TRUE(cp.has_value());
      EXPECT_TRUE(cp->options.fingerprint_prune);
      EXPECT_EQ(cp->to_artifact(), text);
      saw_mid_artifact = true;
    }
  }
  ASSERT_LT(cycles, 1000) << "campaign did not converge";
  EXPECT_TRUE(saw_mid_artifact);
  expect_identical(uninterrupted, final_result, "kill-and-resume");
  EXPECT_GT(final_result.stats.fingerprint_prunes, 0u);
}

// At jobs > 1 a periodic checkpoint can fall due on a pass's last runs,
// after which every unit drains without another run boundary.  The worker
// that completes its unit must write it, or the pass ends without one.
TEST(Fastpath, CheckpointDueAsUnitsDrainIsStillWritten) {
  SkewedWriterSystem system(3, 4, 1);
  ExploreOptions options = iterative_options(true);
  options.jobs = 4;
  options.checkpoint_path = temp_path("fp_due.json");
  options.checkpoint_every = 5;
  options.halt_after_checkpoints = 1;
  const ExploreResult result = explore(system, options);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.checkpoints_written, 1u);
}

TEST(Fastpath, ResumeRejectsFingerprintPruneFlip) {
  const std::string path = temp_path("fp_flip.json");
  SkewedWriterSystem system(3, 4, 1);
  ExploreOptions options = iterative_options(false);
  options.checkpoint_path = path;
  explore(system, options);

  ExploreOptions resume = iterative_options(true);  // flip: result-affecting
  resume.resume_path = path;
  resume.checkpoint_path = path;
  EXPECT_THROW(explore(system, resume), InvariantError);
}

// ----------------------------------------------- runreport timing channel

TEST(Fastpath, ExploreReportCarriesSchedulesPerSecondAndPruneStat) {
  SkewedWriterSystem system(3, 4, 1);
  obs::Telemetry telemetry;
  ExploreOptions options = iterative_options(true);
  options.telemetry = &telemetry;
  const ExploreResult result = explore(system, options);

  ASSERT_FALSE(telemetry.last_report().empty());
  EXPECT_TRUE(obs::validate_runreport(telemetry.last_report()).empty());
  const auto report = obs::RunReport::parse(telemetry.last_report());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->stat("fingerprint_prunes"),
            result.stats.fingerprint_prunes);
  const obs::json::Value* timing = report->root.find("timing");
  ASSERT_NE(timing, nullptr);
  const obs::json::Value* rate = timing->find("schedules_per_second");
  ASSERT_NE(rate, nullptr);
  EXPECT_TRUE(rate->is_number());
  EXPECT_GE(rate->as_double(), 0.0);
}

TEST(Fastpath, ValidatorRejectsBadSchedulesPerSecond) {
  obs::ReportBuilder builder("bench", "test");
  builder.timing("schedules_per_second", obs::json::Value(123.5));
  EXPECT_TRUE(obs::validate_runreport(builder.to_json()).empty());

  auto root = obs::json::Value::parse(builder.to_json())->as_object();
  root["timing"].as_object()["schedules_per_second"] =
      obs::json::Value(-1.0);
  auto errors = obs::validate_runreport(obs::json::Value(root).dump(1));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("schedules_per_second"), std::string::npos);

  root["timing"].as_object()["schedules_per_second"] =
      obs::json::Value("fast");
  errors = obs::validate_runreport(obs::json::Value(root).dump(1));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("not a number"), std::string::npos);
}

}  // namespace
}  // namespace bss::explore
