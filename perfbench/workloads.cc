#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/skewed_system.h"
#include "registers/mwmr_register.h"
#include "service/lease_system.h"

namespace perfbench {

namespace ex = bss::explore;

namespace {

constexpr int kMutantMembers = 6;
constexpr int kSkewedMembers = 4;
constexpr int kLeaseMembers = 6;
constexpr int kRefuteMembers = 4;

// ------------------------------------------------------------ skewed family
//
// SkewedWriterSystem (src/explore/skewed_system.h) with the long writer's
// pid as a parameter: one long writer and n-1 short writers on one
// MwmrRegister.  Renaming the long writer keeps the schedule space's size
// (the prune-off count is pid-symmetric) but changes the DFS order, and so
// which subtrees the fingerprint cache covers first.  At long_pid 0 it is
// SkewedWriterSystem itself; `explorer_bench --record skewed-iterative`
// checks that the two explore byte-identically.

class SkewedFamilyInstance final : public ex::SystemInstance {
 public:
  SkewedFamilyInstance(int n, int long_writes, int short_writes, int long_pid)
      : reg_("skew", 0), n_(n), long_writes_(long_writes),
        short_writes_(short_writes), long_pid_(long_pid) {}

  void populate(bss::sim::SimEnv& env) override {
    for (int p = 0; p < n_; ++p) {
      const int writes = writes_of(p);
      env.add_process([this, p, writes](bss::sim::Ctx& ctx) {
        for (int i = 1; i <= writes; ++i) reg_.write(ctx, encode(p, i));
      });
    }
  }

  std::optional<std::string> check(const bss::sim::SimEnv&,
                                   const bss::sim::RunReport& report) override {
    if (!report.clean()) return "run not clean: " + report.summary();
    const std::int64_t last = reg_.peek();
    const int writer = static_cast<int>(last / 1000);
    const int count = static_cast<int>(last % 1000);
    if (writer < 0 || writer >= n_ || count != writes_of(writer)) {
      return "register holds a non-final value: " + std::to_string(last);
    }
    return std::nullopt;
  }

  std::string fingerprint(const bss::sim::SimEnv&) override {
    return "skew=" + std::to_string(reg_.peek()) + ";";
  }

 private:
  int writes_of(int pid) const {
    return pid == long_pid_ ? long_writes_ : short_writes_;
  }
  static std::int64_t encode(int pid, int i) {
    return static_cast<std::int64_t>(pid) * 1000 + i;
  }

  bss::sim::MwmrRegister<std::int64_t> reg_;
  int n_;
  int long_writes_;
  int short_writes_;
  int long_pid_;
};

class SkewedFamilySystem final : public ex::ExplorableSystem {
 public:
  SkewedFamilySystem(int n, int long_writes, int short_writes, int long_pid)
      : n_(n), long_writes_(long_writes), short_writes_(short_writes),
        long_pid_(long_pid) {}

  std::string name() const override {
    return "skewed[n=" + std::to_string(n_) +
           ",long=" + std::to_string(long_writes_) +
           ",short=" + std::to_string(short_writes_) +
           ",long_pid=" + std::to_string(long_pid_) + "]";
  }
  int process_count() const override { return n_; }
  std::unique_ptr<ex::SystemInstance> make() const override {
    return std::make_unique<SkewedFamilyInstance>(n_, long_writes_,
                                                  short_writes_, long_pid_);
  }

 private:
  int n_;
  int long_writes_;
  int short_writes_;
  int long_pid_;
};

// ------------------------------------------------------------ CPU placement
//
// Each explorer worker, with the SimEnv threads it starts (they inherit its
// affinity), runs on a CPU of its own.  Only one thread per worker is ever
// runnable, and left to the kernel a worker's threads settle either on one
// CPU, where every step's handoff is a local wake-up, or across several,
// where it is a cross-CPU wake-up: about 3x slower, and stable for the life
// of a process, so unpinned runs of one workload were bimodal.  A worker
// claims a free CPU at its first make() call and frees it when it exits.
// explore()'s users get the kernel's placement, and pinning hides the
// cross-CPU wake-up cost that a cheaper substrate would remove, so the
// benchmark also runs unpinned (--unpinned) to judge such a change.
//
// A serial (jobs=1) workload instead moves its one worker to the next CPU
// before each job: the CPUs of a shared host ran the same refutations up to
// 1.4x apart at the same moment, and which CPU is slow changes over
// minutes, so a run on one CPU followed that CPU's neighbours.

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wold-style-cast"  // glibc's CPU_* macros

class CpuClaims {
 public:
  /// Captures the process's CPU set; first called before any thread pins.
  static CpuClaims& instance() {
    static CpuClaims claims;
    return claims;
  }

  /// Pins the calling thread to a free CPU, preferring high-numbered ones
  /// (CPU 0 takes most interrupts); returns it, or -1 when none is free, in
  /// which case the thread may run on any of the process's CPUs.
  int pin_calling_thread() {
    int cpu = -1;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = cpus_.size(); i-- > 0;) {
        if (!taken_[i]) {
          taken_[i] = true;
          cpu = cpus_[i];
          break;
        }
      }
    }
    cpu_set_t set = allowed_;
    if (cpu >= 0) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
    }
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
    return cpu;
  }

  void release(int cpu) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
      if (cpus_[i] == cpu) taken_[i] = false;
    }
  }

  /// Pins the calling thread to the process's next CPU in turn, starting
  /// from one picked by the process id.  Only for a serial workload, whose
  /// one worker claims no CPU.
  void pin_calling_thread_to_next() {
    if (cpus_.empty()) return;
    if (turn_ == 0) turn_ = static_cast<std::size_t>(getpid());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }

 private:
  CpuClaims() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    taken_.assign(cpus_.size(), false);
  }

  cpu_set_t allowed_;
  std::mutex mu_;  // guards taken_
  std::vector<int> cpus_;
  std::vector<bool> taken_;
  std::size_t turn_ = 0;  // only the main thread rotates
};

#pragma GCC diagnostic pop

/// The calling thread's claim, released when the thread exits.
struct ThreadCpu {
  bool claimed = false;
  int cpu = -1;
  ~ThreadCpu() {
    if (cpu >= 0) CpuClaims::instance().release(cpu);
  }
};

// ------------------------------------------------------- instantiation times
//
// While recording, every make() call notes the time since the same thread's
// previous make() call of the pass: one instantiation's set-up, run, check
// and teardown, plus the engine's work before the next.  Samples stay in
// per-thread buffers (workers never contend) until the pass is drained.

class MakeClock {
 public:
  static MakeClock& instance() {
    static MakeClock clock;
    return clock;
  }

  void start() {
    generation_.fetch_add(1);
    recording_.store(true);
  }

  std::vector<double> stop() {
    recording_.store(false);
    std::vector<double> samples;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      samples.insert(samples.end(), buffer->begin(), buffer->end());
      buffer->clear();
    }
    // Buffers of exited threads are held here alone.
    std::erase_if(buffers_, [](const auto& b) { return b.use_count() == 1; });
    return samples;
  }

  void tick() {
    if (!recording_.load(std::memory_order_relaxed)) return;
    thread_local Local local;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t generation = generation_.load();
    if (local.buffer == nullptr) {
      local.buffer = std::make_shared<std::vector<float>>();
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(local.buffer);
    }
    if (local.generation == generation) {
      local.buffer->push_back(
          std::chrono::duration<float, std::milli>(now - local.last).count());
    }
    local.generation = generation;
    local.last = now;
  }

 private:
  struct Local {
    std::shared_ptr<std::vector<float>> buffer;
    std::uint64_t generation = 0;
    std::chrono::steady_clock::time_point last;
  };

  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::mutex mu_;  // guards buffers_
  std::vector<std::shared_ptr<std::vector<float>>> buffers_;
};

/// Forwards to the workload's system; on each make() call, places a new
/// worker (when pinned) and times the instantiation.
class WorkerSystem final : public ex::ExplorableSystem {
 public:
  WorkerSystem(std::unique_ptr<ex::ExplorableSystem> inner, bool pinned)
      : inner_(std::move(inner)), pinned_(pinned) {
    CpuClaims::instance();
  }

  std::string name() const override { return inner_->name(); }
  int process_count() const override { return inner_->process_count(); }
  std::unique_ptr<ex::SystemInstance> make() const override {
    if (pinned_) {
      thread_local ThreadCpu mine;
      if (!mine.claimed) {
        mine.claimed = true;
        mine.cpu = CpuClaims::instance().pin_calling_thread();
      }
    }
    MakeClock::instance().tick();
    return inner_->make();
  }

 private:
  std::unique_ptr<ex::ExplorableSystem> inner_;
  bool pinned_;
};

// ---------------------------------------------------------- recorded values
//
// One row per (workload, family member, job), produced by
// `explorer_bench --record <workload>` from a serial (jobs=1) exploration.
// Job -1 of skewed-iterative is the same sweep with pruning off: its
// schedule count is the workload's covered-schedule count.

struct Row {
  const char* workload;
  int member;
  int job;
  Counters counters;
};

// clang-format off
const Row kRecorded[] = {
#include "recorded.inc"
};
// clang-format on

const Counters* recorded(const std::string& workload, int member, int job) {
  for (const Row& row : kRecorded) {
    if (workload == row.workload && row.member == member && row.job == job) {
      return &row.counters;
    }
  }
  return nullptr;
}

// ------------------------------------------------------------ job builders

ex::ExploreOptions base_options(int jobs) {
  ex::ExploreOptions options;
  options.jobs = jobs;
  return options;
}

std::vector<Job> mutant_jobs(int member, int jobs) {
  std::vector<Job> work;
  for (const auto mutant : {bss::core::OneShotMutant::kClaimAfterCas,
                            bss::core::OneShotMutant::kSplitCas}) {
    Job job;
    job.system = std::make_unique<ex::OneShotSystem>(4 + member, 3, mutant);
    job.options = base_options(jobs);
    job.options.use_por = false;
    job.options.stop_at_first_violation = false;
    job.options.max_violations = std::size_t{1} << 30;
    job.options.minimize = false;
    work.push_back(std::move(job));
  }
  return work;
}

ex::ExploreOptions skewed_options(int jobs, bool prune) {
  ex::ExploreOptions options = base_options(jobs);
  options.iterative = true;
  options.preemption_bound = 4;
  options.use_por = false;
  options.fingerprint_prune = prune;
  return options;
}

std::unique_ptr<ex::ExplorableSystem> skewed_system(int member) {
  return std::make_unique<SkewedFamilySystem>(4, 7, 2, member);
}

std::vector<Job> skewed_jobs(int member, int jobs) {
  std::vector<Job> work(1);
  work[0].system = skewed_system(member);
  work[0].options = skewed_options(jobs, /*prune=*/true);
  return work;
}

bss::service::LeaseConfig lease_config(int member) {
  struct Timing {
    std::uint64_t term, renew_margin, backoff_base, seed;
  };
  // Member 0 is LeaseConfig's defaults.
  static constexpr Timing kTimings[kLeaseMembers] = {
      {8, 3, 1, 0x1ea5e}, {9, 3, 1, 0x1ea5f}, {7, 2, 1, 7},
      {10, 4, 2, 42},     {12, 5, 1, 1},      {6, 2, 2, 99},
  };
  const Timing& timing = kTimings[member];
  bss::service::LeaseConfig config;
  config.n = 3;
  config.renewals = 0;
  config.acquire_attempts = 1;
  config.sc_retries = 0;
  config.term = timing.term;
  config.renew_margin = timing.renew_margin;
  config.backoff_base = timing.backoff_base;
  config.seed = timing.seed;
  return config;
}

std::vector<Job> lease_jobs(int member, int jobs, const std::string& dir) {
  std::vector<Job> work(1);
  work[0].system =
      std::make_unique<bss::service::LeaseServiceSystem>(lease_config(member));
  ex::ExploreOptions& options = work[0].options;
  options = base_options(jobs);
  options.fault_bound = 1;
  options.explore_crashes = true;
  options.explore_restarts = true;
  options.explore_sc_failures = true;
  options.preemption_bound = 1;
  if (!dir.empty()) options.checkpoint_path = dir + "/lease-prefix.ckpt";
  return work;
}

std::vector<Job> refute_jobs(int member) {
  std::vector<Job> work;
  const auto add = [&](std::unique_ptr<ex::ExplorableSystem> system,
                       ex::ExploreOptions options, AuditFinding finding) {
    Job job;
    job.system = std::move(system);
    job.options = options;
    job.options.jobs = 1;
    job.refute = true;
    job.audit_finding = finding;
    work.push_back(std::move(job));
  };
  using bss::core::AuditMutant;
  using bss::core::OneShotMutant;
  add(std::make_unique<ex::OneShotSystem>(4 + member, 3,
                                          OneShotMutant::kClaimAfterCas),
      {}, AuditFinding::kNone);
  add(std::make_unique<ex::OneShotSystem>(4 + member, 3,
                                          OneShotMutant::kSplitCas),
      {}, AuditFinding::kNone);
  add(std::make_unique<ex::LlScSystem>(3, 2, /*sc_blind=*/true), {},
      AuditFinding::kNone);
  work.back().random_schedules_safe = false;
  ex::ExploreOptions faults;
  faults.fault_bound = 1;
  faults.iterative = true;
  faults.explore_crashes = false;
  add(std::make_unique<ex::RecoverableFvtSystem>(
          3, 2, bss::core::RestartBehavior::kFreshClaim),
      faults, AuditFinding::kNone);
  ex::ExploreOptions audit;
  audit.audit = true;
  add(std::make_unique<ex::AuditMutantSystem>(AuditMutant::kHiddenScratch),
      audit, AuditFinding::kLedger);
  add(std::make_unique<ex::AuditMutantSystem>(AuditMutant::kUnsyncedPeek),
      audit, AuditFinding::kLedger);
  audit.audit_commute_sample = 1;
  add(std::make_unique<ex::AuditMutantSystem>(AuditMutant::kStealthCounter),
      audit, AuditFinding::kCommute);
  return work;
}

int member_count(const std::string& name) {
  if (name == "mutant-refutation") return kMutantMembers;
  if (name == "skewed-iterative") return kSkewedMembers;
  if (name == "lease-prefix") return kLeaseMembers;
  if (name == "refute") return kRefuteMembers;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<Job> build_jobs(const std::string& name, int member, int jobs,
                            const std::string& dir) {
  if (name == "mutant-refutation") return mutant_jobs(member, jobs);
  if (name == "skewed-iterative") return skewed_jobs(member, jobs);
  if (name == "lease-prefix") return lease_jobs(member, jobs, dir);
  return refute_jobs(member);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void pin_to_next_cpu() { CpuClaims::instance().pin_calling_thread_to_next(); }

void start_make_clock() { MakeClock::instance().start(); }

std::vector<double> stop_make_clock() { return MakeClock::instance().stop(); }

Counters Counters::of(const ex::ExploreResult& result) {
  Counters c;
  c.schedules = result.stats.schedules;
  c.transitions = result.stats.transitions;
  c.violations = result.violations.size();
  c.sleep_set_prunes = result.stats.sleep_set_prunes;
  c.preemption_prunes = result.stats.preemption_prunes;
  c.fault_prunes = result.stats.fault_prunes;
  c.fingerprint_prunes = result.stats.fingerprint_prunes;
  c.timer_grants = result.stats.timer_grants;
  c.faults_injected = result.stats.faults_injected;
  c.shrink_runs = result.stats.shrink_runs;
  c.exhausted = result.exhausted;
  return c;
}

std::string Counters::str() const {
  std::ostringstream out;
  out << "{" << schedules << ", " << transitions << ", " << violations << ", "
      << sleep_set_prunes << ", " << preemption_prunes << ", " << fault_prunes
      << ", " << fingerprint_prunes << ", " << timer_grants << ", "
      << faults_injected << ", " << shrink_runs << ", "
      << (exhausted ? "true" : "false") << "}";
  return out.str();
}

Workload make_workload(const std::string& name, std::uint64_t seed, int jobs,
                       const std::string& scratch_dir, bool pinned) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.member = static_cast<int>(seed % static_cast<std::uint64_t>(
                                         member_count(name)));
  w.jobs = name == "refute" ? 1 : jobs;
  w.rotate_cpus = pinned && w.jobs == 1;
  w.work = build_jobs(name, w.member, w.jobs, scratch_dir);
  for (std::size_t i = 0; i < w.work.size(); ++i) {
    const Counters* row = recorded(name, w.member, static_cast<int>(i));
    if (row == nullptr) {
      throw std::logic_error("no recorded counters for " + name + " member " +
                             std::to_string(w.member));
    }
    w.work[i].expected = *row;
    w.covered += row->schedules;
    w.work[i].system = std::make_unique<WorkerSystem>(
        std::move(w.work[i].system), pinned && !w.rotate_cpus);
  }
  if (name == "skewed-iterative") {
    const Counters* prune_off = recorded(name, w.member, -1);
    if (prune_off == nullptr) {
      throw std::logic_error("no recorded prune-off count for member " +
                             std::to_string(w.member));
    }
    w.covered = prune_off->schedules;
  }
  return w;
}

JobOutcome run_job(const Job& job) {
  JobOutcome out;
  const auto start = std::chrono::steady_clock::now();
  out.result = ex::explore(*job.system, job.options);
  if (job.refute && !out.result.violations.empty()) {
    const auto parsed = ex::Counterexample::from_artifact(
        out.result.violations.front().to_artifact());
    out.round_trip_ok = parsed.has_value();
    if (parsed.has_value()) {
      out.artifact_len = parsed->decisions.size();
      out.replay = ex::replay_counterexample(*job.system, *parsed, job.options);
    }
  }
  out.wall_s = seconds_since(start);
  return out;
}

std::vector<std::string> check_job(const Job& job, const JobOutcome& outcome) {
  std::vector<std::string> failures;
  const std::string who = job.system->name();
  const Counters got = Counters::of(outcome.result);
  if (!(got == job.expected)) {
    failures.push_back(who + ": counters " + got.str() + " != recorded " +
                       job.expected.str());
  }
  if (!job.refute) return failures;

  const ex::AuditSummary& audit = outcome.result.audit;
  if (job.audit_finding == AuditFinding::kCommute) {
    // Ledger- and property-clean: only the commutation cross-check sees it.
    if (!outcome.result.violations.empty() || audit.commute_mismatches == 0) {
      failures.push_back(who + ": expected a commute mismatch and no "
                               "counterexample, got " +
                         audit.summary());
    }
    return failures;
  }
  if (outcome.result.violations.empty()) {
    failures.push_back(who + ": not refuted");
    return failures;
  }
  const ex::Counterexample& cex = outcome.result.violations.front();
  if (!outcome.round_trip_ok) {
    failures.push_back(who + ": artifact does not parse back");
  } else if (outcome.artifact_len != cex.decisions.size()) {
    failures.push_back(who + ": artifact round trip changed the tape");
  }
  if (!outcome.replay.violated || outcome.replay.divergences != 0) {
    failures.push_back(who + ": replay violated=" +
                       std::to_string(outcome.replay.violated) +
                       " divergences=" +
                       std::to_string(outcome.replay.divergences));
  }
  if (cex.decisions.size() > cex.shrunk_from) {
    failures.push_back(who + ": minimized tape longer than shrunk_from");
  }
  if (job.audit_finding == AuditFinding::kLedger &&
      audit.ledger_violations == 0) {
    failures.push_back(who + ": audit reported no ledger violation");
  }
  return failures;
}

void record_expectations(const std::string& name) {
  const int members = member_count(name);
  for (int member = 0; member < members; ++member) {
    std::vector<Job> work = build_jobs(name, member, /*jobs=*/1, "");
    for (std::size_t i = 0; i < work.size(); ++i) {
      const ex::ExploreResult result =
          ex::explore(*work[i].system, work[i].options);
      std::printf("    {\"%s\", %d, %zu, %s},  // %s\n", name.c_str(), member,
                  i, Counters::of(result).str().c_str(),
                  work[i].system->name().c_str());
      std::fflush(stdout);
    }
    if (name == "skewed-iterative") {
      const auto system = skewed_system(member);
      const ex::ExploreResult result =
          ex::explore(*system, skewed_options(1, /*prune=*/false));
      std::printf("    {\"%s\", %d, -1, %s},  // %s prune off\n", name.c_str(),
                  member, Counters::of(result).str().c_str(),
                  system->name().c_str());
      std::fflush(stdout);
    }
  }
  if (name == "skewed-iterative") {
    // Member 0 must explore exactly like the repository's own system.
    const ex::ExploreOptions options = skewed_options(1, /*prune=*/true);
    const std::string family =
        ex::explore(*skewed_system(0), options).summary();
    const std::string reference =
        ex::explore(ex::SkewedWriterSystem(4, 7, 2), options).summary();
    if (family != reference) {
      throw std::logic_error("skewed member 0 departs from SkewedWriterSystem:\n" +
                             family + "\n" + reference);
    }
  }
}

}  // namespace perfbench
