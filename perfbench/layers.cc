#include "layers.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "explore/checkpoint.h"
#include "util/rng.h"

namespace perfbench {

namespace ex = bss::explore;

namespace {

constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kTeardown) + 1;

// Distinguishes tracers, so a thread's cached buffer pointer is never reused
// by a later tracer allocated at the same address.
std::atomic<std::uint64_t> g_tracer_generation{0};

/// Passive decorator: forwards every call, timing it as a span parented to
/// the span the benchmark is currently inside (set_parent).
class TracedInstance final : public ex::SystemInstance {
 public:
  TracedInstance(std::unique_ptr<ex::SystemInstance> inner, Tracer& tracer,
                 std::uint64_t parent, std::uint64_t trace)
      : inner_(std::move(inner)), tracer_(tracer), parent_(parent),
        trace_(trace) {}

  void populate(bss::sim::SimEnv& env) override {
    const ScopedSpan span(tracer_, SpanName::kPopulate, parent_, trace_);
    inner_->populate(env);
  }
  std::optional<std::string> check(const bss::sim::SimEnv& env,
                                   const bss::sim::RunReport& report) override {
    const ScopedSpan span(tracer_, SpanName::kCheck, parent_, trace_);
    return inner_->check(env, report);
  }
  std::string fingerprint(const bss::sim::SimEnv& env) override {
    const ScopedSpan span(tracer_, SpanName::kFingerprint, parent_, trace_);
    return inner_->fingerprint(env);
  }

 private:
  std::unique_ptr<ex::SystemInstance> inner_;
  Tracer& tracer_;
  std::uint64_t parent_;
  std::uint64_t trace_;
};

class TracedSystem final : public ex::ExplorableSystem {
 public:
  TracedSystem(const ex::ExplorableSystem& inner, Tracer& tracer,
               std::uint64_t trace)
      : inner_(inner), tracer_(tracer), trace_(trace) {}

  /// The span later make() calls nest under.  Set only between explorer
  /// calls, never while workers run.
  void set_parent(std::uint64_t parent) { parent_ = parent; }

  std::string name() const override { return inner_.name(); }
  int process_count() const override { return inner_.process_count(); }
  std::unique_ptr<ex::SystemInstance> make() const override {
    const ScopedSpan span(tracer_, SpanName::kMake, parent_, trace_);
    return std::make_unique<TracedInstance>(inner_.make(), tracer_, parent_,
                                            trace_);
  }

 private:
  const ex::ExplorableSystem& inner_;
  Tracer& tracer_;
  std::uint64_t trace_;
  std::uint64_t parent_ = 0;
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Length of the union of `intervals` (sorted in place).
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>&
                          intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [start, end] : intervals) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return covered;
}

bool is_system_call(SpanName name) {
  return name == SpanName::kMake || name == SpanName::kPopulate ||
         name == SpanName::kCheck || name == SpanName::kFingerprint;
}

}  // namespace

const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kSpanNames> kNames = {
      "pass",        "explore",          "system.make",
      "system.populate", "system.check",  "system.fingerprint",
      "explore.minimize", "explore.cex_codec", "explore.replay",
      "explore.checkpoint_codec", "runtime.probe", "runtime.start",
      "runtime.step", "runtime.finish",  "runtime.teardown",
  };
  return kNames[static_cast<std::size_t>(name)];
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : generation_(g_tracer_generation.fetch_add(1) + 1) {}

std::vector<Span>& Tracer::local() {
  thread_local std::vector<Span>* buffer = nullptr;
  thread_local std::uint64_t owner = 0;
  if (owner != generation_) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffer = buffers_.back().get();
    owner = generation_;
  }
  return *buffer;
}

void Tracer::record(const Span& span) { local().push_back(span); }

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

ScopedSpan::ScopedSpan(Tracer& tracer, SpanName name, std::uint64_t parent,
                       std::uint64_t trace)
    : tracer_(tracer) {
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.trace = trace;
  span_.name = name;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = now_ns();
  tracer_.record(span_);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "id\tparent\ttrace\tname\tstart_ns\tend_ns\n";
  for (const Span& span : spans) {
    out << span.id << '\t' << span.parent << '\t' << span.trace << '\t'
        << span_name(span.name) << '\t' << span.start_ns - origin << '\t'
        << span.end_ns - origin << '\n';
  }
  return static_cast<bool>(out);
}

TracedOutcome run_job_traced(const Job& job, Tracer& tracer,
                             std::uint64_t parent, std::uint64_t trace) {
  TracedOutcome out;
  JobOutcome& result = out.job;
  TracedSystem traced(*job.system, tracer, trace);
  const std::int64_t start = now_ns();

  ex::ExploreOptions options = job.options;
  if (job.refute) options.minimize = false;
  {
    const ScopedSpan span(tracer, SpanName::kExplore, parent, trace);
    traced.set_parent(span.id());
    result.result = ex::explore(traced, options);
  }
  std::vector<ex::Counterexample>& violations = result.result.violations;
  if (job.refute && job.options.minimize && !violations.empty()) {
    const ScopedSpan span(tracer, SpanName::kMinimize, parent, trace);
    traced.set_parent(span.id());
    violations.front() = ex::minimize_counterexample(
        traced, std::move(violations.front()), job.options,
        &result.result.stats);
  }
  if (job.refute && !violations.empty()) {
    std::optional<ex::Counterexample> parsed;
    {
      const ScopedSpan span(tracer, SpanName::kCexCodec, parent, trace);
      parsed = ex::Counterexample::from_artifact(violations.front().to_artifact());
    }
    result.round_trip_ok = parsed.has_value();
    if (parsed.has_value()) {
      result.artifact_len = parsed->decisions.size();
      const ScopedSpan span(tracer, SpanName::kReplay, parent, trace);
      traced.set_parent(span.id());
      result.replay = ex::replay_counterexample(traced, *parsed, job.options);
    }
  }
  result.wall_s = static_cast<double>(now_ns() - start) * 1e-9;

  if (!job.options.checkpoint_path.empty()) {
    const std::optional<std::string> text =
        read_file(job.options.checkpoint_path);
    out.checkpoint_round_trip_ok = false;
    if (text.has_value()) {
      out.checkpoint_bytes = text->size();
      const ScopedSpan span(tracer, SpanName::kCheckpointCodec, parent, trace);
      const auto checkpoint = ex::Checkpoint::from_artifact(*text);
      out.checkpoint_round_trip_ok =
          checkpoint.has_value() && checkpoint->to_artifact() == *text;
    }
  }
  return out;
}

std::vector<std::string> passivity_diff(const JobOutcome& reference,
                                        const JobOutcome& traced) {
  std::vector<std::string> diffs;
  if (reference.result.summary() != traced.result.summary()) {
    diffs.push_back("summary differs:\n  untraced: " +
                    reference.result.summary().substr(0, 300) +
                    "\n  traced:   " + traced.result.summary().substr(0, 300));
    return diffs;
  }
  const auto& want = reference.result.violations;
  const auto& got = traced.result.violations;
  for (std::size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i].to_artifact() != got[i].to_artifact()) {
      diffs.push_back("violation " + std::to_string(i) + " tape differs");
      break;
    }
  }
  return diffs;
}

RuntimeCosts probe_runtime(const Workload& workload, std::uint64_t seed,
                           int schedules, Tracer& tracer) {
  const std::uint64_t trace = tracer.next_id();
  const ScopedSpan root(tracer, SpanName::kProbe, 0, trace);
  // Per worker: total ns and calls of start, step, finish, teardown.
  struct Tally {
    std::array<double, 4> total_ns{};
    std::array<double, 4> calls{};
  };
  std::vector<Tally> tallies(static_cast<std::size_t>(workload.jobs));
  std::vector<const Job*> probed;
  for (const Job& job : workload.work) {
    if (job.random_schedules_safe) probed.push_back(&job);
  }
  // One probe worker per explorer worker, so the calls are timed under the
  // load the passes run under.
  const auto probe = [&](int worker) {
    Tally& tally = tallies[static_cast<std::size_t>(worker)];
    bss::Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(worker));
    const auto timed = [&](SpanName name, std::size_t slot, auto&& call) {
      const ScopedSpan span(tracer, name, root.id(), trace);
      const std::int64_t start = now_ns();
      call();
      tally.total_ns[slot] += static_cast<double>(now_ns() - start);
      tally.calls[slot] += 1;
    };
    for (int i = worker; i < schedules; i += workload.jobs) {
      const Job& job = *probed[static_cast<std::size_t>(i) % probed.size()];
      auto instance = job.system->make();
      bss::sim::SimOptions options;
      options.step_limit = job.options.max_depth;
      options.record_trace = false;
      auto env = std::make_unique<bss::sim::SimEnv>(options);
      instance->populate(*env);
      timed(SpanName::kStart, 0, [&] { env->start(); });
      for (std::uint64_t steps = 0; steps < options.step_limit; ++steps) {
        const std::vector<int> parked = env->parked_processes();
        if (parked.empty()) break;
        const int pid = parked[rng.next_below(parked.size())];
        timed(SpanName::kStep, 1, [&] { env->step_process(pid); });
      }
      timed(SpanName::kFinish, 2, [&] { env->finish(); });
      timed(SpanName::kTeardown, 3, [&] { env.reset(); });
    }
  };
  {
    std::vector<std::jthread> workers;  // joined on scope exit, throw or not
    for (int worker = 1; worker < workload.jobs; ++worker) {
      workers.emplace_back(probe, worker);
    }
    probe(0);
  }

  Tally sum;
  for (const Tally& tally : tallies) {
    for (std::size_t slot = 0; slot < 4; ++slot) {
      sum.total_ns[slot] += tally.total_ns[slot];
      sum.calls[slot] += tally.calls[slot];
    }
  }
  const auto mean_us = [&](std::size_t slot) {
    return sum.calls[slot] == 0 ? 0.0
                                : sum.total_ns[slot] / sum.calls[slot] * 1e-3;
  };
  return RuntimeCosts{mean_us(0), mean_us(1), mean_us(2), mean_us(3)};
}

std::vector<Metric> derive_layer_metrics(const TracedRun& run) {
  const Workload& workload = *run.workload;
  const double passes = static_cast<double>(run.traced_passes.size());
  const double jobs = workload.jobs;

  // Span aggregates: total duration and call count per name, explore()
  // children grouped per explore span, and worker time per traced pass.
  std::array<double, kSpanNames> total_ns{};
  std::array<double, kSpanNames> count{};
  std::unordered_map<std::uint64_t, std::int64_t> explore_ns;
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      explore_children;
  for (const Span& span : run.spans) {
    const auto slot = static_cast<std::size_t>(span.name);
    total_ns[slot] += static_cast<double>(span.end_ns - span.start_ns);
    count[slot] += 1;
    if (span.name == SpanName::kExplore) {
      explore_ns[span.id] = span.end_ns - span.start_ns;
    }
  }
  double explore_instantiations = 0;
  for (const Span& span : run.spans) {
    if (!is_system_call(span.name) || explore_ns.count(span.parent) == 0) {
      continue;
    }
    explore_children[span.parent].emplace_back(span.start_ns, span.end_ns);
    if (span.name == SpanName::kMake) explore_instantiations += 1;
  }
  double explore_self_ns = 0;
  for (const auto& [id, duration] : explore_ns) {
    auto it = explore_children.find(id);
    explore_self_ns += static_cast<double>(
        duration - (it == explore_children.end() ? 0 : union_ns(it->second)));
  }
  const auto mean = [&](SpanName name, double scale) {
    const auto slot = static_cast<std::size_t>(name);
    return count[slot] == 0 ? 0.0 : total_ns[slot] / count[slot] * scale;
  };
  const auto total = [&](SpanName name) {
    return total_ns[static_cast<std::size_t>(name)];
  };
  double traced_wall_s = 0;
  for (double wall : run.traced_walls_s) traced_wall_s += wall;
  const double worker_ns = traced_wall_s * jobs * 1e9;
  const double system_ns = total(SpanName::kMake) +
                           total(SpanName::kPopulate) +
                           total(SpanName::kCheck) +
                           total(SpanName::kFingerprint);

  // Deterministic counts, summed over every traced pass's jobs.
  double schedules = 0, transitions = 0, sleep = 0, preemption = 0,
         fault = 0, fingerprint = 0, timers = 0, faults = 0, violations = 0,
         shrink_runs = 0, shrunk_to = 0, shrunk_from = 0, divergences = 0,
         windows = 0, accesses = 0, swaps = 0, checkpoints = 0,
         checkpoint_bytes = 0, audit_wall_s = 0, audit_jobs = 0;
  for (const auto& pass : run.traced_passes) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const Job& job = workload.work[i];
      const ex::ExploreResult& r = pass[i].job.result;
      schedules += static_cast<double>(r.stats.schedules);
      transitions += static_cast<double>(r.stats.transitions);
      sleep += static_cast<double>(r.stats.sleep_set_prunes);
      preemption += static_cast<double>(r.stats.preemption_prunes);
      fault += static_cast<double>(r.stats.fault_prunes);
      fingerprint += static_cast<double>(r.stats.fingerprint_prunes);
      timers += static_cast<double>(r.stats.timer_grants);
      faults += static_cast<double>(r.stats.faults_injected);
      violations += static_cast<double>(r.violations.size());
      shrink_runs += static_cast<double>(r.stats.shrink_runs);
      if (job.refute && job.options.minimize && !r.violations.empty()) {
        shrunk_to += static_cast<double>(r.violations.front().decisions.size());
        shrunk_from += static_cast<double>(r.violations.front().shrunk_from);
      }
      divergences += static_cast<double>(pass[i].job.replay.divergences);
      windows += static_cast<double>(r.audit.windows);
      accesses += static_cast<double>(r.audit.accesses);
      swaps += static_cast<double>(r.audit.swaps_replayed);
      checkpoints += static_cast<double>(r.checkpoints_written);
      checkpoint_bytes += static_cast<double>(pass[i].checkpoint_bytes);
      if (job.options.audit) {
        audit_wall_s += pass[i].job.wall_s;
        audit_jobs += 1;
      }
    }
  }
  const auto per_pass = [&](double value) {
    return passes == 0 ? 0.0 : value / passes;
  };
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };

  const RuntimeCosts& rt = run.runtime;
  const double substrate_us =
      count[static_cast<std::size_t>(SpanName::kMake)] *
          (rt.start_us + rt.finish_us + rt.teardown_us) +
      transitions * rt.step_us;
  double untraced_wall_s = 0;
  for (double wall : run.untraced_walls_s) untraced_wall_s += wall;
  const double untraced_cpu_s = run.untraced_user_s + run.untraced_sys_s;

  return {
      {"runtime.start_us", rt.start_us, "us"},
      {"runtime.step_us", rt.step_us, "us"},
      {"runtime.finish_us", rt.finish_us, "us"},
      {"runtime.teardown_us", rt.teardown_us, "us"},
      {"runtime.sys_share", ratio(run.untraced_sys_s, untraced_cpu_s),
       "ratio"},
      {"runtime.est_share", ratio(substrate_us * 1e3, worker_ns), "ratio"},
      {"system.make_us", mean(SpanName::kMake, 1e-3), "us"},
      {"system.populate_us", mean(SpanName::kPopulate, 1e-3), "us"},
      {"system.check_us", mean(SpanName::kCheck, 1e-3), "us"},
      {"system.fingerprint_us", mean(SpanName::kFingerprint, 1e-3), "us"},
      {"system.fingerprint_calls",
       per_pass(count[static_cast<std::size_t>(SpanName::kFingerprint)]),
       "count"},
      {"system.share", ratio(system_ns, worker_ns), "ratio"},
      {"explore.self_s", per_pass(explore_self_ns * 1e-9), "s"},
      {"explore.instantiations", per_pass(explore_instantiations), "count"},
      {"explore.instantiations_per_schedule",
       ratio(explore_instantiations, schedules), "ratio"},
      {"explore.transitions_per_schedule", ratio(transitions, schedules),
       "ratio"},
      {"explore.worker_busy_share",
       ratio(untraced_cpu_s, untraced_wall_s * jobs), "ratio"},
      {"explore.sleep_set_prunes", per_pass(sleep), "count"},
      {"explore.preemption_prunes", per_pass(preemption), "count"},
      {"explore.fault_prunes", per_pass(fault), "count"},
      {"explore.fingerprint_prunes", per_pass(fingerprint), "count"},
      {"explore.timer_grants", per_pass(timers), "count"},
      {"explore.faults_injected", per_pass(faults), "count"},
      {"explore.violations", per_pass(violations), "count"},
      {"explore.minimize_ms", mean(SpanName::kMinimize, 1e-6), "ms"},
      {"explore.shrink_runs", per_pass(shrink_runs), "count"},
      {"explore.shrink_ratio", ratio(shrunk_to, shrunk_from), "ratio"},
      {"explore.replay_ms", mean(SpanName::kReplay, 1e-6), "ms"},
      {"explore.replay_divergences", per_pass(divergences), "count"},
      {"explore.cex_codec_us", mean(SpanName::kCexCodec, 1e-3), "us"},
      {"audit.refute_ms", ratio(audit_wall_s * 1e3, audit_jobs), "ms"},
      {"audit.windows", per_pass(windows), "count"},
      {"audit.accesses", per_pass(accesses), "count"},
      {"audit.swaps_replayed", per_pass(swaps), "count"},
      {"explore.checkpoints_written", per_pass(checkpoints), "count"},
      {"explore.checkpoint_bytes", per_pass(checkpoint_bytes), "bytes"},
      {"explore.checkpoint_codec_ms", mean(SpanName::kCheckpointCodec, 1e-6),
       "ms"},
      {"trace.overhead_share",
       ratio(percentile(run.traced_walls_s, 0.5),
             percentile(run.untraced_walls_s, 0.5)) - 1,
       "ratio"},
      {"trace.spans", static_cast<double>(run.spans.size()), "count"},
  };
}

}  // namespace perfbench
