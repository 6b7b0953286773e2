// Error-path coverage for tools/report_check, the CI artifact gate.  The
// gate runs as a child process (exactly how CI invokes it), so these tests
// pin the exit-code contract: 0 only when every named artifact validates,
// 1 on any schema finding, 2 on usage errors.  The binary path comes from
// tests/CMakeLists.txt via BSS_REPORT_CHECK_BIN ($<TARGET_FILE:...>), the
// well-formed inputs from the checked-in fuzz corpus.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

/// Per-process, so concurrent copies of this binary never share inputs;
/// removed when the process exits.
std::filesystem::path temp_dir() {
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("bss_report_check_test." + std::to_string(getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.path;
}

std::string write_artifact(const std::string& name, const std::string& text) {
  const auto path = temp_dir() / name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path.string();
}

// Runs report_check on the given arguments and returns its exit status
// (-1 when the child did not exit normally).  Output is discarded — the
// exit code is the CI contract under test.
int run_report_check(const std::string& arguments) {
  const std::string command = std::string(BSS_REPORT_CHECK_BIN) + " " +
                              arguments + " >/dev/null 2>&1";
  const int raw = std::system(command.c_str());
  if (raw == -1) return -1;
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string corpus(const std::string& relative) {
  return std::string(BSS_FUZZ_CORPUS_DIR) + "/" + relative;
}

TEST(ReportCheck, NoArgumentsIsAUsageError) {
  EXPECT_EQ(run_report_check(""), 2);
}

TEST(ReportCheck, MissingFileFails) {
  EXPECT_EQ(run_report_check(temp_dir().string() + "/no_such_file.json"), 1);
}

TEST(ReportCheck, ValidRunreportAndCheckpointPass) {
  EXPECT_EQ(run_report_check(corpus("runreport/minimal.json")), 0);
  EXPECT_EQ(run_report_check(corpus("runreport/faults.json")), 0);
  EXPECT_EQ(run_report_check(corpus("checkpoint/campaign.json")), 0);
  // Dispatch is per file: both schemas in one invocation.
  EXPECT_EQ(run_report_check(corpus("runreport/minimal.json") + " " +
                             corpus("checkpoint/campaign.json")),
            0);
}

TEST(ReportCheck, TruncatedJsonFails) {
  EXPECT_EQ(run_report_check(corpus("runreport/truncated.json")), 1);
  EXPECT_EQ(run_report_check(corpus("checkpoint/truncated.json")), 1);
}

TEST(ReportCheck, DuplicateKeysFail) {
  // The canonical-JSON parser refuses duplicate keys outright, so the gate
  // reports a parse failure rather than silently keeping either value.
  EXPECT_EQ(run_report_check(corpus("runreport/duplicate_key.json")), 1);
}

TEST(ReportCheck, NonFiniteScheduleRateFails) {
  // 1e999 overflows double: the parser rejects the document, so an
  // infinite schedules/s can never sneak into a dashboard.
  EXPECT_EQ(run_report_check(corpus("runreport/huge_number.json")), 1);
  // NaN spelled as a bare token is not JSON at all.
  const std::string nan_path = write_artifact(
      "nan_rate.json",
      "{\"schema\": \"bss-runreport v1\", "
      "\"timing\": {\"schedules_per_second\": NaN}}");
  EXPECT_EQ(run_report_check(nan_path), 1);
  // A stringly-typed or negative rate parses as JSON but fails the
  // runreport validator's timing checks.
  const std::string typed_path = write_artifact(
      "string_rate.json",
      "{\"schema\": \"bss-runreport v1\", "
      "\"timing\": {\"schedules_per_second\": \"fast\"}}");
  EXPECT_EQ(run_report_check(typed_path), 1);
  const std::string negative_path = write_artifact(
      "negative_rate.json",
      "{\"schema\": \"bss-runreport v1\", "
      "\"timing\": {\"schedules_per_second\": -1.0}}");
  EXPECT_EQ(run_report_check(negative_path), 1);
}

TEST(ReportCheck, UnknownArtifactSniffsFail) {
  // Unknown schema string: dispatched to the runreport validator, which
  // rejects the version rather than guessing.
  const std::string future = write_artifact(
      "future_schema.json", "{\"schema\": \"bss-runreport v99\"}");
  EXPECT_EQ(run_report_check(future), 1);
  // Missing schema key entirely.
  const std::string missing =
      write_artifact("missing_schema.json", "{\"rows\": []}");
  EXPECT_EQ(run_report_check(missing), 1);
  // Not JSON at all.
  const std::string garbage =
      write_artifact("garbage.json", "bss-counterexample v1\n");
  EXPECT_EQ(run_report_check(garbage), 1);
}

TEST(ReportCheck, ValidStatusHeartbeatsPass) {
  EXPECT_EQ(run_report_check(corpus("status/minimal.json")), 0);
  // Real snapshots captured from a jobs=4 campaign and a soak run: workers,
  // profile, and timing sections all populated.
  EXPECT_EQ(run_report_check(corpus("status/explore_midrun.json")), 0);
  EXPECT_EQ(run_report_check(corpus("status/soak_complete.json")), 0);
  // Dispatch is per file: a heartbeat and a runreport in one invocation.
  EXPECT_EQ(run_report_check(corpus("status/minimal.json") + " " +
                             corpus("runreport/minimal.json")),
            0);
}

TEST(ReportCheck, TruncatedStatusFails) {
  EXPECT_EQ(run_report_check(corpus("status/truncated.json")), 1);
}

TEST(ReportCheck, NegativeStatusRateFails) {
  // schedules/s below zero is a producer bug, not noise — bss_top would
  // render it as a countdown.
  EXPECT_EQ(run_report_check(corpus("status/negative_rate.json")), 1);
}

TEST(ReportCheck, UnknownStatusKeysFail) {
  // Extra top-level and progress keys both trip the closed-schema check.
  EXPECT_EQ(run_report_check(corpus("status/unknown_key.json")), 1);
  // States outside running/complete (and worker states outside
  // running/stealing/idle) are rejected rather than rendered verbatim.
  EXPECT_EQ(run_report_check(corpus("status/bad_state.json")), 1);
}

TEST(ReportCheck, StaleStatusAgeLieFails) {
  // A negative checkpoint_age_ms claims the checkpoint is from the future.
  EXPECT_EQ(run_report_check(corpus("status/stale_age.json")), 1);
}

TEST(ReportCheck, OneBadFileFailsTheWholeInvocation) {
  EXPECT_EQ(run_report_check(corpus("runreport/minimal.json") + " " +
                             corpus("runreport/truncated.json")),
            1);
}

}  // namespace
