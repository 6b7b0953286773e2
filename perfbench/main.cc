// explorer_bench — the repository's benchmark over the public explore() API.
//
//   explorer_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--unpinned] [--smoke] [--inject-miscount]
//   explorer_bench --describe --workload <name> --seed <n>
//   explorer_bench --record <name>
//
// A set-up is seeded generation, system construction, recorded counters and
// one checked warm-up pass, timed from process start.  A --trace 0 run sets
// the workload up in four fresh child processes (--setup-only) and then in
// its own, and reports the medians of the five set-up times and peak
// resident sets as setup_s and peak_rss_mb.  It then runs closed-loop passes
// for --seconds (on refute, until at least 1,000 refutations): one
// exploration at a time, the next starting when the previous returns.  Every
// pass is checked against the counters recorded for (workload, seed); a pass
// that departs counts as failed and contributes no rate.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced passes, checks that tracing changes no result, probes SimEnv's
// incremental API, writes the spans to <out-dir>/<workload>.spans.tsv and
// prints the per-layer metrics.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Lines before it start with '#' and record the build, host and samples.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "workloads.h"

#ifndef BSS_BENCH_BUILD_TYPE
#define BSS_BENCH_BUILD_TYPE "unknown"
#endif

// Defined only when a sanitizer runtime is linked into the binary.
extern "C" {
__attribute__((weak)) void __asan_init();
__attribute__((weak)) void __tsan_init();
__attribute__((weak)) void __ubsan_handle_add_overflow();
}

extern char** environ;

namespace perfbench {
namespace {

constexpr int kMaxJobs = 4;
/// Set-ups per --trace 0 run: this process's and those of four children.
constexpr int kSetups = 5;
/// A refute run lasts until it has this many refutations, so that
/// latency_ms.p99 has at least ten samples beyond it.
constexpr std::size_t kMinRefutations = 1000;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench/out";
  bool unpinned = false;
  bool smoke = false;
  bool inject_miscount = false;
  bool describe = false;
  bool setup_only = false;
  std::string record;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "explorer_bench: %s\n"
               "usage: explorer_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--unpinned] "
               "[--smoke] [--inject-miscount]\n"
               "       explorer_bench --describe --workload <name> --seed <n>\n"
               "       explorer_bench --record <name>\n",
               error.c_str());
  std::exit(2);
}

template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage("bad value for " + flag);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = parse_number<std::uint64_t>(flag, value());
    } else if (flag == "--seconds") {
      args.seconds = parse_number<double>(flag, value());
      if (!(args.seconds >= 0)) usage("--seconds must be >= 0");
    } else if (flag == "--trace") {
      args.trace = parse_number<int>(flag, value());
      if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--unpinned") {
      args.unpinned = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--inject-miscount") {
      args.inject_miscount = true;
    } else if (flag == "--describe") {
      args.describe = true;
    } else if (flag == "--record") {
      args.record = value();
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (args.record.empty() && args.workload.empty()) usage("--workload missing");
  return args;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
};

Usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return Usage{secs(ru.ru_utime), secs(ru.ru_stime)};
}

/// The process's peak resident set in MiB: VmHWM, which starts afresh at
/// exec (getrusage's ru_maxrss carries over the launching process's peak).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

bool optimized_build() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

bool sanitized_build() {
  return __asan_init != nullptr || __tsan_init != nullptr ||
         __ubsan_handle_add_overflow != nullptr;
}

// ------------------------------------------------------------------ passes

/// Failure accounting for one pass, in the workload's units of work: one
/// refutation on refute, one pass elsewhere.
struct Verdict {
  std::size_t units = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

Verdict judge(const Workload& w,
              const std::vector<std::vector<std::string>>& per_job) {
  const bool per_refutation = w.name == "refute";
  Verdict verdict;
  verdict.units = per_refutation ? w.work.size() : 1;
  for (const auto& failures : per_job) {
    if (!failures.empty() && per_refutation) ++verdict.failed;
    verdict.failures.insert(verdict.failures.end(), failures.begin(),
                            failures.end());
  }
  if (!per_refutation && !verdict.failures.empty()) verdict.failed = 1;
  return verdict;
}

struct Pass {
  double wall_s = 0;
  double cpu_s = 0;
  double sys_s = 0;
  std::vector<JobOutcome> jobs;
  Verdict verdict;
};

Pass run_pass(const Workload& w) {
  Pass pass;
  const Usage before = process_usage();
  const auto start = std::chrono::steady_clock::now();
  for (const Job& job : w.work) {
    if (w.rotate_cpus) pin_to_next_cpu();
    pass.jobs.push_back(run_job(job));
  }
  pass.wall_s = seconds_between(start, std::chrono::steady_clock::now());
  const Usage after = process_usage();
  pass.cpu_s = (after.user_s + after.sys_s) - (before.user_s + before.sys_s);
  pass.sys_s = after.sys_s - before.sys_s;
  std::vector<std::vector<std::string>> per_job;
  for (std::size_t i = 0; i < w.work.size(); ++i) {
    per_job.push_back(check_job(w.work[i], pass.jobs[i]));
  }
  pass.verdict = judge(w, per_job);
  return pass;
}

struct TracedPass {
  double wall_s = 0;
  std::vector<TracedOutcome> jobs;
  Verdict verdict;
  bool passive = true;  ///< every job matched the untraced reference
};

TracedPass run_traced_pass(const Workload& w, const Pass& reference,
                           Tracer& tracer) {
  TracedPass pass;
  const std::uint64_t trace = tracer.next_id();
  const std::int64_t start = now_ns();
  {
    const ScopedSpan root(tracer, SpanName::kPass, 0, trace);
    for (const Job& job : w.work) {
      if (w.rotate_cpus) pin_to_next_cpu();
      pass.jobs.push_back(run_job_traced(job, tracer, root.id(), trace));
    }
  }
  pass.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  std::vector<std::vector<std::string>> per_job;
  for (std::size_t i = 0; i < w.work.size(); ++i) {
    const std::string who = w.work[i].system->name();
    std::vector<std::string> failures = check_job(w.work[i], pass.jobs[i].job);
    for (const std::string& diff :
         passivity_diff(reference.jobs[i], pass.jobs[i].job)) {
      pass.passive = false;
      failures.push_back("passivity: " + who + ": " + diff);
    }
    if (!pass.jobs[i].checkpoint_round_trip_ok) {
      failures.push_back(who + ": checkpoint does not round-trip");
    }
    per_job.push_back(std::move(failures));
  }
  pass.verdict = judge(w, per_job);
  return pass;
}

// ------------------------------------------------------------------ output

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool passive = true;
  std::vector<Metric> metrics;
};

void tally(Result& result, const Verdict& verdict) {
  result.attempted += verdict.units;
  result.failed += verdict.failed;
  for (const std::string& failure : verdict.failures) {
    std::printf("# FAILED %s\n", failure.c_str());
  }
}

int emit(const Result& result) {
  const bool correct = result.failed == 0 && result.passive &&
                       result.attempted > 0;
  std::printf("# failed_share %s (%zu of %zu attempted)\n",
              number(result.attempted == 0
                         ? 1.0
                         : static_cast<double>(result.failed) /
                               static_cast<double>(result.attempted))
                  .c_str(),
              result.failed, result.attempted);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::string system_names(const Workload& w) {
  std::string names;
  for (const Job& job : w.work) {
    if (!names.empty()) names += ",";
    names += "\"" + job.system->name() + "\"";
  }
  return "[" + names + "]";
}

int describe(const Args& args, int jobs) {
  const Workload w = make_workload(args.workload, args.seed, jobs, "");
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"member\": %d, \"jobs\": %d, "
      "\"covered\": %llu, \"systems\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(w.seed), w.member,
      w.jobs, static_cast<unsigned long long>(w.covered),
      system_names(w).c_str());
  return 0;
}

// ------------------------------------------------------------------ set-up

/// One set-up: the workload built for the run and its checked warm-up pass.
struct SetUp {
  Workload w;
  Pass reference;
  double seconds = 0;  ///< from process start to the end of the warm-up
  double peak_rss_mb = 0;
};

SetUp set_up(const Args& args, int jobs,
             std::chrono::steady_clock::time_point process_start) {
  SetUp s;
  s.w = make_workload(args.workload, args.seed, jobs, args.out_dir,
                      !args.unpinned);
  if (args.inject_miscount) s.w.work.front().expected.schedules += 1;
  s.reference = run_pass(s.w);
  s.seconds = seconds_between(process_start, std::chrono::steady_clock::now());
  s.peak_rss_mb = peak_rss_mb();
  return s;
}

/// --setup-only: sets up once and prints "setup <s> <MiB> <attempted>
/// <failed>" after the warm-up pass's '#' lines.
int setup_only(const Args& args, int jobs,
               std::chrono::steady_clock::time_point process_start) {
  const SetUp s = set_up(args, jobs, process_start);
  Result result;
  tally(result, s.reference.verdict);
  std::printf("setup %s %s %zu %zu\n", number(s.seconds).c_str(),
              number(s.peak_rss_mb).c_str(), result.attempted, result.failed);
  return 0;
}

/// Runs this binary with `args` in a child process, waits for it, and
/// returns its standard output.
std::string run_self(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> owned = {"explorer_bench"};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (spawned != 0) throw std::runtime_error("cannot start a set-up process");
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a set-up process failed");
  }
  return out;
}

/// Sets the workload up in a fresh process; appends its time and peak
/// resident set, tallies its warm-up pass and echoes its '#' lines.
void set_up_in_child(const Args& args, Result& result,
                     std::vector<double>& setup_s,
                     std::vector<double>& rss_mb) {
  std::vector<std::string> child = {
      "--setup-only", "--workload", args.workload, "--seed",
      std::to_string(args.seed), "--out-dir", args.out_dir};
  if (args.unpinned) child.push_back("--unpinned");
  if (args.inject_miscount) child.push_back("--inject-miscount");
  std::istringstream out(run_self(child));
  bool reported = false;
  for (std::string line; std::getline(out, line);) {
    if (line.rfind("setup ", 0) != 0) {
      std::printf("%s\n", line.c_str());
      continue;
    }
    std::istringstream fields(line.substr(6));
    double seconds = 0, mb = 0;
    std::size_t attempted = 0, failed = 0;
    if (!(fields >> seconds >> mb >> attempted >> failed)) break;
    setup_s.push_back(seconds);
    rss_mb.push_back(mb);
    result.attempted += attempted;
    result.failed += failed;
    reported = true;
  }
  if (!reported) throw std::runtime_error("a set-up process gave no result");
}

int run(const Args& args, int jobs,
        std::chrono::steady_clock::time_point process_start) {
  std::filesystem::create_directories(args.out_dir);
  Result result;

  // The children start before this process pins any thread: a spawned
  // process inherits its parent thread's CPU affinity.  Their time is left
  // out of this process's own set-up time.
  std::vector<double> setup_s, rss_mb;
  const auto children_start = std::chrono::steady_clock::now();
  if (args.trace == 0 && !args.smoke) {
    for (int i = 1; i < kSetups; ++i) {
      set_up_in_child(args, result, setup_s, rss_mb);
    }
  }
  const double children_s =
      seconds_between(children_start, std::chrono::steady_clock::now());
  const SetUp own = set_up(args, jobs, process_start);
  const Workload& w = own.w;
  const Pass& reference = own.reference;
  tally(result, reference.verdict);
  setup_s.push_back(own.seconds - children_s);
  rss_mb.push_back(own.peak_rss_mb);

  std::printf("# workload=%s seed=%llu member=%d systems=%s\n", w.name.c_str(),
              static_cast<unsigned long long>(w.seed), w.member,
              system_names(w).c_str());
  std::printf(
      "# build=%s compiler=%s optimized=%s nproc=%u jobs=%d placement=%s\n",
      BSS_BENCH_BUILD_TYPE, compiler().c_str(),
      optimized_build() ? "yes" : "no", std::thread::hardware_concurrency(),
      w.jobs, args.unpinned ? "kernel" : "pinned");
  std::printf("# set-up samples (s, peak MiB):");
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::printf(" (%s, %s)", number(setup_s[i]).c_str(),
                number(rss_mb[i]).c_str());
  }
  std::printf("\n");

  const auto timed_start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return seconds_between(timed_start, std::chrono::steady_clock::now());
  };

  if (args.trace == 0) {
    const std::size_t min_units =
        w.name == "refute" && !args.smoke ? kMinRefutations : 0;
    // Latency samples: one per refutation on refute; elsewhere one per
    // instantiation (make() to the same worker's next make()), since a run
    // has too few passes for a p99 with ten samples beyond it.
    std::size_t units = 0;
    std::vector<double> rates, cpu_per_k, latencies_ms;
    const bool refute = w.name == "refute";
    do {
      if (!refute) start_make_clock();
      const Pass pass = run_pass(w);
      const std::vector<double> instantiations_ms =
          refute ? std::vector<double>{} : stop_make_clock();
      tally(result, pass.verdict);
      units += pass.verdict.units;
      if (pass.verdict.failures.empty()) {
        const double covered = static_cast<double>(w.covered);
        rates.push_back(covered / pass.wall_s);
        cpu_per_k.push_back(pass.cpu_s / (covered / 1000.0));
        if (refute) {
          for (const JobOutcome& job : pass.jobs) {
            latencies_ms.push_back(job.wall_s * 1e3);
          }
        } else {
          latencies_ms.insert(latencies_ms.end(), instantiations_ms.begin(),
                              instantiations_ms.end());
        }
      }
    } while (elapsed() < args.seconds || units < min_units);
    std::printf("# timed passes=%zu latency samples=%zu\n", rates.size(),
                latencies_ms.size());
    result.metrics = {
        {"covered_schedules_per_s", percentile(rates, 0.5), "schedules/s"},
        {"cpu_s_per_kschedule", percentile(cpu_per_k, 0.5), "s"},
        {"peak_rss_mb", percentile(rss_mb, 0.5), "MiB"},
        {"setup_s", percentile(setup_s, 0.5), "s"},
        {"latency_ms.p50", percentile(latencies_ms, 0.5), "ms"},
        {"latency_ms.p99", percentile(latencies_ms, 0.99), "ms"},
    };
    return emit(result);
  }

  // Traced run: untraced and traced passes alternate, so the overhead
  // compares passes made under the same conditions.
  Tracer tracer;
  TracedRun traced;
  traced.workload = &w;
  do {
    const Pass plain = run_pass(w);
    tally(result, plain.verdict);
    traced.untraced_walls_s.push_back(plain.wall_s);
    traced.untraced_user_s += plain.cpu_s - plain.sys_s;
    traced.untraced_sys_s += plain.sys_s;
    TracedPass pass = run_traced_pass(w, reference, tracer);
    tally(result, pass.verdict);
    result.passive = result.passive && pass.passive;
    traced.traced_walls_s.push_back(pass.wall_s);
    traced.traced_passes.push_back(std::move(pass.jobs));
  } while (elapsed() < args.seconds);
  traced.runtime =
      probe_runtime(w, args.seed, args.smoke ? 40 : 400, tracer);
  traced.spans = tracer.collect();
  const std::string span_path = args.out_dir + "/" + w.name + ".spans.tsv";
  if (!write_spans(span_path, traced.spans)) {
    std::fprintf(stderr, "explorer_bench: cannot write %s\n",
                 span_path.c_str());
    return 1;
  }
  std::printf("# traced passes=%zu spans=%zu written to %s passivity=%s\n",
              traced.traced_passes.size(), traced.spans.size(),
              span_path.c_str(), result.passive ? "ok" : "FAILED");
  result.metrics = derive_layer_metrics(traced);
  return emit(result);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const int jobs = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxJobs);
  try {
    if (!args.record.empty()) {
      record_expectations(args.record);
      return 0;
    }
    if (args.describe) return describe(args, jobs);
    if (!optimized_build() || sanitized_build()) {
      std::fprintf(stderr,
                   "explorer_bench: refusing to report rates from a %s build\n",
                   sanitized_build() ? "sanitizer" : "non-optimized");
      return 3;
    }
    if (args.setup_only) return setup_only(args, jobs, process_start);
    return run(args, jobs, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explorer_bench: %s\n", e.what());
    return 1;
  }
}
