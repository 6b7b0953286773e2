#include "explore/explore.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explore/engine.h"
#include "util/checked.h"

namespace bss::explore {
namespace detail {

/// audit == false resolves through BSS_AUDIT (force-on only: the variable
/// can switch the audit layer on under an existing binary — how CI audits
/// the whole suite — but never disable an explicit request).
bool resolve_audit(const ExploreOptions& options) {
  if (options.audit) return true;
  static const bool env_audit = [] {
    const char* raw = std::getenv("BSS_AUDIT");
    return raw != nullptr && raw[0] != '\0' &&
           !(raw[0] == '0' && raw[1] == '\0');
  }();
  return env_audit;
}

}  // namespace detail

namespace {

/// fingerprint_prune == false resolves through BSS_EXPLORE_FP (force-on
/// only, the BSS_AUDIT pattern: the variable can switch pruning on under
/// an existing binary — how CI sweeps the suite with the cache engaged —
/// but never disable an explicit request).
bool resolve_fingerprint_prune(const ExploreOptions& options) {
  if (options.fingerprint_prune) return true;
  // Read per campaign (not latched like BSS_AUDIT): one getenv per
  // explore() call is free next to any pass, and it keeps the lever usable
  // from a single process that toggles it between campaigns.
  const char* raw = std::getenv("BSS_EXPLORE_FP");
  return raw != nullptr && raw[0] != '\0' &&
         !(raw[0] == '0' && raw[1] == '\0');
}

/// jobs == 0 resolves through BSS_EXPLORE_JOBS (how CI forces the worker
/// pool through every existing test); explicit values are never overridden.
int resolve_jobs(const ExploreOptions& options) {
  if (options.jobs > 0) return std::min(options.jobs, 64);
  static const int env_jobs = [] {
    const char* raw = std::getenv("BSS_EXPLORE_JOBS");
    if (raw == nullptr) return 1;
    char* end = nullptr;
    const long parsed = std::strtol(raw, &end, 10);
    if (end == raw || *end != '\0' || parsed < 1) return 1;
    return static_cast<int>(std::min<long>(parsed, 64));
  }();
  return env_jobs;
}

}  // namespace

using detail::CheckpointCtx;
using detail::merge_pass;
using detail::MergeOutcome;
using detail::PassConfig;
using detail::resolve_audit;
using detail::run_steal_pass;
using detail::SharedBudget;
using detail::StatusCtx;
using detail::StealPassOutput;

ExploreResult explore(const ExplorableSystem& system,
                      const ExploreOptions& requested) {
  ExploreOptions options = requested;
  options.audit = resolve_audit(requested);
  // Resolved here (not at use sites) so the checkpoint's option fields
  // hold the effective value — a resume under a different BSS_EXPLORE_FP
  // is caught.
  options.fingerprint_prune = resolve_fingerprint_prune(requested);
  ExploreResult result;
  result.audit.enabled = options.audit;
  const int jobs = resolve_jobs(options);

  obs::ObsSink* sink = options.telemetry;
  const bool events = sink != nullptr && sink->events_enabled();
  const bool spans = sink != nullptr && sink->timeline_enabled();
  obs::PhaseProfiler* const profiler =
      sink != nullptr ? sink->profiler() : nullptr;
  // bss-lint: wallclock-ok(feeds only the runreport "timing" section)
  const auto wall_begin = std::chrono::steady_clock::now();
  if (events) {
    obs::Event event;
    event.kind = "explore.start";
    event.fields.emplace_back("system", system.name());
    event.fields.emplace_back("jobs", std::to_string(jobs));
    event.fields.emplace_back("steal_depth",
                              std::to_string(options.steal_depth));
    sink->emit(std::move(event));
  }
  if (sink != nullptr) {
    if (obs::MetricShard* shard =
            sink->metric_shard(obs::Event::kCoordinator)) {
      shard->gauge_max("explore.jobs", static_cast<std::uint64_t>(jobs));
    }
  }

  // Chess-style iterative bounding: sweep small budgets first so the
  // simplest refutation surfaces; a budget that cut nothing covered the
  // whole space, making larger budgets redundant.  Fault budgets sweep
  // outermost — a zero-fault refutation beats a one-fault one.  Each
  // (fault, preemption) budget pair is one *pass*: work is split among
  // workers within a pass, so fewest-fault-first ordering is preserved.
  std::vector<int> preemption_budgets;
  if (options.preemption_bound >= 0 && options.iterative) {
    for (int b = 0; b <= options.preemption_bound; ++b) {
      preemption_budgets.push_back(b);
    }
  } else {
    preemption_budgets.push_back(options.preemption_bound);
  }
  const bool faults_on =
      options.fault_bound > 0 &&
      (options.explore_crashes || options.explore_restarts ||
       options.explore_sc_failures);
  std::vector<int> fault_budgets;
  if (!faults_on) {
    fault_budgets.push_back(0);
  } else if (options.iterative) {
    for (int b = 0; b <= options.fault_bound; ++b) fault_budgets.push_back(b);
  } else {
    fault_budgets.push_back(options.fault_bound);
  }

  std::set<FaultPoint> fault_points;
  // Visited-state cache (fingerprint_prune only): frozen while a pass runs,
  // extended between passes from the pass's aggregated coverage partials.
  // `restored_fp_partials` carries the partials of units already folded
  // into a resumed campaign's merged prefix — they join the resumed pass's
  // own partials at its between-pass fold, so a killed-and-resumed campaign
  // admits exactly the keys an uninterrupted one would.
  FpCache fp_cache;
  std::vector<FingerprintPartial> restored_fp_partials;
  SharedBudget budget_valve(options.max_schedules);
  bool cap_hit = false;
  bool stopped = false;
  bool last_pass_budget_limited = false;
  std::uint64_t pass_ordinal = 0;

  // Resume: restore the merged snapshot, the campaign position and the
  // schedule valve from the artifact.  Everything result-affecting is
  // cross-checked — a checkpoint from a different system, process count or
  // option fingerprint is rejected, as is an out-of-range pass position.
  std::optional<Checkpoint> resume;
  std::size_t start_fault = 0;
  std::size_t start_preempt = 0;
  bool skip_passes = false;
  if (!options.resume_path.empty()) {
    std::ifstream in(options.resume_path, std::ios::binary);
    expects(static_cast<bool>(in),
            "resume: cannot read checkpoint: " + options.resume_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    resume = Checkpoint::from_artifact(buf.str(), &error);
    expects(resume.has_value(), "resume: invalid checkpoint: " + error);
    expects(resume->system == system.name() &&
                resume->processes == system.process_count(),
            "resume: checkpoint was taken on a different system");
    expects(same_key_options(resume->options, options),
            "resume: result-affecting exploration options differ from the "
            "checkpointed campaign");
    skip_passes = resume->complete || resume->stopped || resume->cap_hit;
    expects(skip_passes ||
                (resume->fault_index < fault_budgets.size() &&
                 resume->preemption_index < preemption_budgets.size()),
            "resume: checkpoint pass position is out of range");
    result.stats = resume->stats;
    result.audit = resume->audit;
    result.audit.enabled = options.audit;
    result.violations = resume->violations;
    fault_points = resume->fault_points;
    cap_hit = resume->cap_hit;
    stopped = resume->stopped;
    last_pass_budget_limited = resume->last_pass_budget_limited;
    fp_cache = resume->fp_cache;
    restored_fp_partials = resume->fp_partials;
    // The in-progress pass resumes under its own ordinal; a pass that
    // already concluded (stop/cap confirmed in the folded prefix) counts as
    // finished.  A complete artifact stores the final total verbatim.
    pass_ordinal =
        resume->pass_ordinal + ((skip_passes && !resume->complete) ? 1 : 0);
    start_fault = static_cast<std::size_t>(resume->fault_index);
    start_preempt = static_cast<std::size_t>(resume->preemption_index);
    // The valve restores to schedules-merged + schedules-in-frontier: work
    // past the published snapshots re-runs and re-counts on resume, exactly
    // once each, so the valve stays consistent with the re-exploration.
    std::uint64_t consumed = result.stats.schedules;
    for (const CheckpointUnit& cu : resume->frontier) {
      consumed += cu.result.stats.schedules;
    }
    budget_valve.schedules.store(consumed, std::memory_order_relaxed);
  }

  CheckpointCtx ckpt_state;
  CheckpointCtx* const ckpt =
      options.checkpoint_path.empty() ? nullptr : &ckpt_state;
  if (ckpt != nullptr) {
    ckpt->seq = resume.has_value() ? resume->seq + 1 : 0;
    ckpt->merged = &result;
    ckpt->covered = &fault_points;
    if (options.fingerprint_prune) ckpt->fp_cache = &fp_cache;
  }

  // The heartbeat writer (bss-status v1): enabled by status_path or
  // BSS_STATUS, purely observational.  The seq-0 snapshot goes out before
  // the first pass so monitors see the campaign (and any resumed prefix)
  // immediately.
  StatusCtx status_state(options.status_path, options.status_every_ms);
  StatusCtx* const status =
      status_state.writer.enabled() ? &status_state : nullptr;
  if (status != nullptr) {
    status_state.system = system.name();
    status_state.max_schedules = options.max_schedules;
    status_state.jobs = static_cast<std::uint64_t>(jobs);
    status_state.pass_ordinal = pass_ordinal;
    status_state.merged = &result;
    status_state.ckpt = ckpt;
    status_state.writer.set_profiler(profiler);
    status->writer.write(status->snapshot("running"));
  }

  bool halted = false;
  for (std::size_t fi = start_fault;
       !skip_passes && !halted && fi < fault_budgets.size(); ++fi) {
    const int fault_budget = fault_budgets[fi];
    bool fault_limited_at_this_budget = false;
    for (std::size_t pi = fi == start_fault ? start_preempt : 0;
         pi < preemption_budgets.size(); ++pi) {
      const int budget = preemption_budgets[pi];
      const bool resumed_pass =
          resume.has_value() && fi == start_fault && pi == start_preempt;
      if (events) {
        obs::Event event;
        event.kind = "pass.start";
        event.step = pass_ordinal;
        event.fields.emplace_back("fault_budget",
                                  std::to_string(faults_on ? fault_budget : 0));
        event.fields.emplace_back("preemption_budget", std::to_string(budget));
        sink->emit(std::move(event));
      }
      const std::uint64_t this_pass = pass_ordinal;
      ++pass_ordinal;
      PassConfig cfg;
      cfg.base.budget = budget;
      cfg.base.fault_budget = faults_on ? fault_budget : 0;
      cfg.base.use_por = options.use_por;
      cfg.base.explore_crashes = faults_on && options.explore_crashes;
      cfg.base.explore_restarts = faults_on && options.explore_restarts;
      cfg.base.explore_sc = faults_on && options.explore_sc_failures;
      cfg.base.fp_prune = options.fingerprint_prune;
      if (options.fingerprint_prune) cfg.base.fp_cache = &fp_cache;
      cfg.jobs = jobs;
      cfg.violations_so_far = result.violations.size();
      if (ckpt != nullptr) {
        ckpt->pass_ordinal = this_pass;
        ckpt->fault_index = fi;
        ckpt->preemption_index = pi;
        ckpt->cap_hit = cap_hit;
        ckpt->stopped = stopped;
        ckpt->last_pass_budget_limited = last_pass_budget_limited;
        ckpt->restored_budget_limited =
            resumed_pass && resume->pass_budget_limited;
        ckpt->restored_fault_limited =
            resumed_pass && resume->pass_fault_limited;
        ckpt->restored_partials =
            resumed_pass ? &restored_fp_partials : nullptr;
      }
      if (status != nullptr) status->pass_ordinal = this_pass;
      StealPassOutput out = run_steal_pass(
          system, options, cfg, budget_valve,
          resumed_pass ? &resume->frontier : nullptr, ckpt, status);
      if (out.halted) {
        halted = true;
        break;
      }
      std::vector<UnitResult>& units = out.units;
      const std::uint64_t merge_begin = spans ? sink->now_ns() : 0;
      MergeOutcome merged;
      {
        const obs::ScopedPhase merge_scope(profiler, obs::Phase::kMerge);
        merged = merge_pass(units, options, result, fault_points);
      }
      if (resumed_pass) {
        // The folded prefix of the resumed pass contributed these flags
        // before the kill; the frontier units cannot re-derive them.
        merged.budget_limited |= resume->pass_budget_limited;
        merged.fault_limited |= resume->pass_fault_limited;
      }
      if (spans) {
        obs::Span span;
        span.name = "merge";
        span.track = obs::Timeline::kCoordinatorTrack;
        span.begin_ns = merge_begin;
        span.end_ns = sink->now_ns();
        span.args.emplace_back("units", std::to_string(units.size()));
        sink->record_span(std::move(span));
      }
      last_pass_budget_limited = merged.budget_limited;
      fault_limited_at_this_budget = merged.fault_limited;
      cap_hit |= merged.cap_hit;
      stopped |= merged.stopped;
      if (options.fingerprint_prune && !cap_hit && !stopped) {
        // Between-pass cache fold: aggregate the pass's coverage partials
        // per key (OR of dirty across every unit — commutative and
        // idempotent, so steal splits need no reconciliation) and admit the
        // keys that aggregate clean.  A clean
        // key's subtree was explored in full with no budget/fault cut,
        // truncation or violation anywhere below it — that is the whole
        // unbounded reachable tree under the node, so pruning it at ANY
        // later budget loses nothing (which is why budget positions are
        // excluded from the key).  Passes that end the campaign (cap/stop)
        // fold nothing: their partials would never be consulted.
        std::map<FpKey, bool> aggregated;
        if (resumed_pass) {
          for (const FingerprintPartial& p : restored_fp_partials) {
            auto [it, inserted] = aggregated.try_emplace({p.lo, p.hi}, false);
            it->second |= p.dirty;
          }
        }
        for (const UnitResult& u : units) {
          for (const FingerprintPartial& p : u.fp_partials) {
            auto [it, inserted] = aggregated.try_emplace({p.lo, p.hi}, false);
            it->second |= p.dirty;
          }
        }
        for (const auto& [key, dirty] : aggregated) {
          if (!dirty) fp_cache.insert(key);
        }
      }
      // Pass-boundary heartbeat: cadence-gated so tiny passes don't spam.
      if (status != nullptr && status->writer.due()) {
        status->writer.write(status->snapshot("running"));
      }
      if (cap_hit || stopped) break;
      if (!merged.budget_limited) break;  // space covered at this budget
    }
    if (halted || cap_hit || stopped) break;
    // A fault budget that cut nothing covered the whole bounded-fault
    // space; deeper fault budgets would only re-explore it.
    if (!fault_limited_at_this_budget) break;
  }

  if (halted) {
    // halt_after_checkpoints fired: the checkpoint artifact is the durable
    // output; the in-memory partials are deliberately NOT finalized (no
    // merge ran) and no explore.done/runreport is emitted — this return is
    // the deterministic stand-in for a SIGKILL.
    result.halted = true;
    result.checkpoints_written = ckpt != nullptr ? ckpt->written : 0;
    return result;
  }

  result.stats.fault_points = fault_points.size();
  result.exhausted = !cap_hit && !stopped && !last_pass_budget_limited &&
                     result.stats.truncated == 0;

  if (ckpt != nullptr) {
    // The final, `complete` checkpoint: the whole merged result, an empty
    // frontier.  Resuming from it just re-emits the same result.
    const obs::ScopedPhase checkpoint_scope(profiler,
                                            obs::Phase::kCheckpointWrite);
    Checkpoint cp;
    cp.seq = ckpt->seq++;
    cp.system = system.name();
    cp.processes = system.process_count();
    cp.options = options;
    cp.complete = true;
    cp.exhausted = result.exhausted;
    cp.pass_ordinal = pass_ordinal;
    cp.cap_hit = cap_hit;
    cp.stopped = stopped;
    cp.last_pass_budget_limited = last_pass_budget_limited;
    cp.stats = result.stats;
    cp.audit = result.audit;
    cp.violations = result.violations;
    cp.fault_points = fault_points;
    expects(write_checkpoint_file(options.checkpoint_path, cp.to_artifact()),
            "failed to write checkpoint artifact: " + options.checkpoint_path);
    ++ckpt->written;
    result.checkpoints_written = ckpt->written;
    if (status != nullptr) status->writer.note_checkpoint();
  }

  if (sink != nullptr) {
    if (events) {
      obs::Event event;
      event.kind = "explore.done";
      event.fields.emplace_back("schedules",
                                std::to_string(result.stats.schedules));
      event.fields.emplace_back("violations",
                                std::to_string(result.violations.size()));
      event.fields.emplace_back("exhausted", result.exhausted ? "1" : "0");
      sink->emit(std::move(event));
    }
    obs::ReportBuilder report("explore", "explore()");
    report.set_system(system.name());
    report.environment("jobs", jobs);
    report.environment("processes", system.process_count());
    report.option("max_depth", options.max_depth);
    report.option("preemption_bound", options.preemption_bound);
    report.option("iterative", options.iterative);
    report.option("use_por", options.use_por);
    report.option("max_schedules", options.max_schedules);
    report.option("stop_at_first_violation", options.stop_at_first_violation);
    report.option("max_violations",
                  static_cast<std::uint64_t>(options.max_violations));
    report.option("minimize", options.minimize);
    report.option("shrink_budget", options.shrink_budget);
    report.option("fault_bound", options.fault_bound);
    report.option("audit", options.audit);
    report.option("fingerprint_prune", options.fingerprint_prune);
    const ExploreStats& stats = result.stats;
    for (const CounterRow<ExploreStats>& row : kExploreCounters) {
      report.stat(row.name, stats.*row.member);
    }
    report.stat("violations", result.violations.size());
    report.coverage("exhausted", result.exhausted);
    report.coverage("passes", pass_ordinal);
    report.coverage("cap_hit", cap_hit);
    report.coverage("stopped", stopped);
    for (const Counterexample& cex : result.violations) {
      obs::json::Object violation;
      violation.emplace("violation", obs::json::Value(cex.violation));
      violation.emplace(
          "decisions",
          obs::json::Value(static_cast<std::uint64_t>(cex.decisions.size())));
      violation.emplace(
          "faults",
          obs::json::Value(static_cast<std::uint64_t>(cex.fault_count())));
      violation.emplace(
          "shrunk_from",
          obs::json::Value(static_cast<std::uint64_t>(cex.shrunk_from)));
      report.violation(std::move(violation));
    }
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // bss-lint: wallclock-ok(runreport "timing" section only)
            std::chrono::steady_clock::now() - wall_begin)
            .count();
    report.timing("explore_wall_ns",
                  static_cast<std::uint64_t>(wall_ns));
    // Schedules/second lives in the quarantined timing channel: it varies
    // run to run, so it must never leak into the canonical sections.
    if (wall_ns > 0) {
      report.timing("schedules_per_second",
                    static_cast<double>(stats.schedules) * 1e9 /
                        static_cast<double>(wall_ns));
    }
    sink->report(report);
  }
  if (status != nullptr) {
    // Terminal heartbeat: unconditional (cadence ignored) so monitors see
    // state == "complete" with the final totals even for sub-cadence runs.
    status->pass_ordinal = pass_ordinal;
    status->writer.write(status->snapshot("complete"));
  }
  return result;
}

// ---------------------------------------------------------------- reporting

namespace {

/// Folds `from` into `into` by each counter row's fold.
template <class Record>
void fold_counters(const auto& rows, Record& into, const Record& from) {
  for (const CounterRow<Record>& row : rows) {
    std::uint64_t& total = into.*row.member;
    switch (row.fold) {
      case CounterFold::kSum:
        total += from.*row.member;
        break;
      case CounterFold::kMax:
        total = std::max(total, from.*row.member);
        break;
      case CounterFold::kNone:
        break;
    }
  }
}

}  // namespace

void ExploreStats::merge_from(const ExploreStats& other) {
  fold_counters(kExploreCounters, *this, other);
}

std::string ExploreStats::summary() const {
  std::ostringstream out;
  out << "schedules=" << schedules << " transitions=" << transitions;
  if (timer_grants > 0) out << " timer-grants=" << timer_grants;
  out << " sleep-prunes=" << sleep_set_prunes
      << " preemption-prunes=" << preemption_prunes;
  if (fingerprint_prunes > 0) out << " fp-prunes=" << fingerprint_prunes;
  out << " truncated=" << truncated << " max-depth=" << max_depth_seen
      << " shrink-runs=" << shrink_runs;
  if (shrink_budget_hits > 0) {
    out << " shrink-budget-hits=" << shrink_budget_hits;
  }
  if (faults_injected > 0 || fault_prunes > 0) {
    out << " faults=" << faults_injected << " fault-points=" << fault_points
        << " fault-prunes=" << fault_prunes;
  }
  return out.str();
}

void AuditSummary::note(std::string finding) {
  if (findings.size() < kMaxFindings) findings.push_back(std::move(finding));
}

void AuditSummary::merge_from(const AuditSummary& other) {
  enabled |= other.enabled;
  fold_counters(kAuditCounters, *this, other);
  for (const auto& finding : other.findings) note(finding);
}

std::string AuditSummary::summary() const {
  if (!enabled) return "audit: off";
  std::ostringstream out;
  out << "audit: windows=" << windows << " accesses=" << accesses
      << " ledger-violations=" << ledger_violations
      << " cross-checked=" << schedules_cross_checked
      << " pairs=" << pairs_considered << " swaps=" << swaps_replayed
      << " commute-mismatches=" << commute_mismatches;
  if (!findings.empty()) out << "\n  first: " << findings.front();
  return out.str();
}

std::string ExploreResult::summary() const {
  std::ostringstream out;
  out << stats.summary() << (exhausted ? " [exhaustive]" : " [bounded]");
  if (violations.empty()) {
    out << " no violations";
  } else {
    for (const auto& cex : violations) {
      out << "\n  VIOLATION (" << cex.decisions.size() << " decisions, "
          << cex.fault_count() << " faults, from " << cex.shrunk_from
          << "): " << cex.violation;
    }
  }
  return out.str();
}

}  // namespace bss::explore
