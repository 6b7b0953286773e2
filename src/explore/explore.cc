#include "explore/explore.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explore/engine.h"
#include "obs/runreport.h"  // write_file_atomic
#include "util/checked.h"
#include "util/env_registry.h"

namespace bss::explore {
namespace {

/// jobs == 0 resolves through BSS_EXPLORE_JOBS (how CI forces the worker
/// pool through every existing test), read on every call; explicit values
/// are never overridden.  Both clamp to 64 workers.
int resolve_jobs(const ExploreOptions& options) {
  if (options.jobs > 0) return std::min(options.jobs, 64);
  const std::optional<std::uint64_t> env_jobs = env::positive_env(
      "BSS_EXPLORE_JOBS", std::getenv("BSS_EXPLORE_JOBS"));
  if (!env_jobs.has_value()) return 1;
  return static_cast<int>(std::min<std::uint64_t>(*env_jobs, 64));
}

}  // namespace

namespace detail {

void write_checkpoint(Checkpoint& campaign, CheckpointCtx& ckpt,
                      StatusCtx* status) {
  const std::string& path = campaign.options.checkpoint_path;
  expects(obs::write_file_atomic(path, campaign.to_artifact()), [&] {
    return "failed to write checkpoint artifact: " + path;
  });
  campaign.frontier.clear();
  ++campaign.seq;
  ++ckpt.written;
  if (status != nullptr) status->writer.note_checkpoint();
}

}  // namespace detail

using detail::CheckpointCtx;
using detail::PassConfig;
using detail::run_steal_pass;
using detail::SharedBudget;
using detail::StatusCtx;
using detail::write_checkpoint;

ExploreResult explore(const ExplorableSystem& system,
                      const ExploreOptions& options) {
  const int jobs = resolve_jobs(options);

  obs::Telemetry* const telemetry = options.telemetry;
  obs::PhaseProfiler* const profiler =
      telemetry != nullptr ? telemetry->profiler() : nullptr;
  // Feeds only the runreport's "timing" section.
  const std::uint64_t wall_begin =
      telemetry != nullptr ? obs::PhaseProfiler::now_ns() : 0;
  if (telemetry != nullptr) {
    if (obs::MetricShard* shard =
            telemetry->metric_shard(obs::kCoordinatorShard)) {
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

  // The campaign record: the running prefix (every unit folded so far, in
  // DFS order — stats, audit, violations, coverage, the in-progress pass's
  // flags and cache partials), the pass position and the visited-state
  // cache (fingerprint_prune only: frozen while a pass runs, extended
  // between passes from the pass's partials).  The pass engine folds into
  // it; the periodic checkpoint, the final checkpoint and the result all
  // read it, and a resume seeds it straight from the artifact.
  Checkpoint campaign;
  // The in-progress pass's outstanding units, restored on resume.
  std::vector<CheckpointUnit> restored_frontier;
  const std::vector<CheckpointUnit>* seeds = nullptr;
  SharedBudget budget_valve(options.max_schedules);
  std::size_t start_fault = 0;
  std::size_t start_preempt = 0;
  bool skip_passes = false;

  // Resume: restore the campaign record and the schedule valve from the
  // artifact.  Everything result-affecting is cross-checked — a checkpoint
  // from a different system, process count or option fingerprint is
  // rejected, as is an out-of-range pass position.
  if (!options.resume_path.empty()) {
    std::ifstream in(options.resume_path, std::ios::binary);
    expects(static_cast<bool>(in), [&] {
      return "resume: cannot read checkpoint: " + options.resume_path;
    });
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    std::optional<Checkpoint> resume =
        Checkpoint::from_artifact(buf.str(), &error);
    expects(resume.has_value(),
            [&] { return "resume: invalid checkpoint: " + error; });
    campaign = std::move(*resume);
    expects(campaign.system == system.name() &&
                campaign.processes == system.process_count(),
            "resume: checkpoint was taken on a different system");
    expects(same_key_options(campaign.options, options),
            "resume: result-affecting exploration options differ from the "
            "checkpointed campaign");
    skip_passes = campaign.complete || campaign.stopped || campaign.cap_hit;
    expects(skip_passes ||
                (campaign.fault_index < fault_budgets.size() &&
                 campaign.preemption_index < preemption_budgets.size()),
            "resume: checkpoint pass position is out of range");
    // The in-progress pass resumes under its own ordinal; a pass that
    // already concluded (stop/cap confirmed in the folded prefix) counts as
    // finished.  A complete artifact stores the final total verbatim.
    if (skip_passes && !campaign.complete) ++campaign.pass_ordinal;
    start_fault = static_cast<std::size_t>(campaign.fault_index);
    start_preempt = static_cast<std::size_t>(campaign.preemption_index);
    restored_frontier = std::move(campaign.frontier);
    campaign.frontier.clear();
    seeds = &restored_frontier;
    ++campaign.seq;  // the next artifact continues the sequence
    // The valve restores to schedules-merged + schedules-in-frontier: work
    // past the published snapshots re-runs and re-counts on resume, exactly
    // once each, so the valve stays consistent with the re-exploration.
    std::uint64_t consumed = campaign.stats.schedules;
    for (const CheckpointUnit& cu : restored_frontier) {
      consumed += cu.result.stats.schedules;
    }
    budget_valve.schedules.store(consumed, std::memory_order_relaxed);
  }
  campaign.system = system.name();
  campaign.processes = system.process_count();
  campaign.options = options;
  campaign.audit.enabled = options.audit;

  CheckpointCtx ckpt_state;
  CheckpointCtx* const ckpt =
      options.checkpoint_path.empty() ? nullptr : &ckpt_state;

  // The heartbeat writer (bss-status v1): enabled by status_path or
  // BSS_STATUS, purely observational.  The seq-0 snapshot goes out before
  // the first pass so monitors see the campaign (and any resumed prefix)
  // immediately.
  StatusCtx status_state(options.status_path, options.status_every_ms);
  StatusCtx* const status =
      status_state.writer.enabled() ? &status_state : nullptr;
  if (status != nullptr) {
    status_state.max_schedules = options.max_schedules;
    status_state.jobs = static_cast<std::uint64_t>(jobs);
    status_state.campaign = &campaign;
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
      PassConfig cfg;
      cfg.base.budget = budget;
      cfg.base.fault_budget = faults_on ? fault_budget : 0;
      cfg.base.use_por = options.use_por;
      cfg.base.explore_crashes = faults_on && options.explore_crashes;
      cfg.base.explore_restarts = faults_on && options.explore_restarts;
      cfg.base.explore_sc = faults_on && options.explore_sc_failures;
      cfg.base.fp_prune = options.fingerprint_prune;
      if (options.fingerprint_prune) cfg.base.fp_cache = &campaign.fp_cache;
      cfg.jobs = jobs;
      campaign.fault_index = fi;
      campaign.preemption_index = pi;
      halted = run_steal_pass(system, options, cfg, budget_valve, campaign,
                              seeds, ckpt, status);
      if (halted) break;
      seeds = nullptr;
      // The prefix now holds the whole pass: consume its flags and
      // partials, leaving the next pass a clean slate.
      campaign.last_pass_budget_limited = campaign.pass_budget_limited;
      fault_limited_at_this_budget = campaign.pass_fault_limited;
      campaign.pass_budget_limited = false;
      campaign.pass_fault_limited = false;
      const bool ended = campaign.cap_hit || campaign.stopped;
      if (options.fingerprint_prune && !ended) {
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
        for (const auto& unit_partials : campaign.fp_partials) {
          for (const FingerprintPartial& p : unit_partials) {
            auto [it, inserted] = aggregated.try_emplace({p.lo, p.hi}, false);
            it->second |= p.dirty;
          }
        }
        for (const auto& [key, dirty] : aggregated) {
          if (!dirty) campaign.fp_cache.insert(key);
        }
      }
      campaign.fp_partials.clear();
      // Pass-boundary heartbeat: cadence-gated so tiny passes don't spam.
      if (status != nullptr && status->writer.due()) {
        status->writer.write(status->snapshot("running"));
      }
      ++campaign.pass_ordinal;
      if (ended) break;
      if (!campaign.last_pass_budget_limited) break;  // space covered
    }
    if (halted || campaign.cap_hit || campaign.stopped) break;
    // A fault budget that cut nothing covered the whole bounded-fault
    // space; deeper fault budgets would only re-explore it.
    if (!fault_limited_at_this_budget) break;
  }

  ExploreResult result;
  if (halted) {
    // halt_after_checkpoints fired: the checkpoint artifact is the durable
    // output; the result carries no stats and no runreport is emitted —
    // this return is the deterministic stand-in for a SIGKILL.
    result.halted = true;
    result.checkpoints_written = ckpt != nullptr ? ckpt->written : 0;
    return result;
  }

  campaign.exhausted = !campaign.cap_hit && !campaign.stopped &&
                       !campaign.last_pass_budget_limited &&
                       campaign.stats.truncated == 0;

  if (ckpt != nullptr) {
    // The final, `complete` checkpoint: the whole result and no pass in
    // progress — no position, pass flags, cache state or frontier.
    // Resuming from it just re-emits the same result.
    const obs::ScopedPhase checkpoint_scope(profiler,
                                            obs::Phase::kCheckpointWrite);
    campaign.complete = true;
    campaign.fault_index = 0;
    campaign.preemption_index = 0;
    campaign.pass_budget_limited = false;
    campaign.pass_fault_limited = false;
    campaign.fp_cache.clear();
    campaign.fp_partials.clear();
    write_checkpoint(campaign, *ckpt, status);
    result.checkpoints_written = ckpt->written;
  }

  if (telemetry != nullptr) {
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
    const ExploreStats& stats = campaign.stats;
    for (const CounterRow<ExploreStats>& row : kExploreCounters) {
      report.stat(row.name, stats.*row.member);
    }
    report.stat("violations", campaign.violations.size());
    report.coverage("exhausted", campaign.exhausted);
    report.coverage("passes", campaign.pass_ordinal);
    report.coverage("cap_hit", campaign.cap_hit);
    report.coverage("stopped", campaign.stopped);
    for (const Counterexample& cex : campaign.violations) {
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
    const std::uint64_t wall_ns = obs::PhaseProfiler::now_ns() - wall_begin;
    report.timing("explore_wall_ns", wall_ns);
    // Schedules/second lives in the quarantined timing channel: it varies
    // run to run, so it must never leak into the canonical sections.
    if (wall_ns > 0) {
      report.timing("schedules_per_second",
                    static_cast<double>(stats.schedules) * 1e9 /
                        static_cast<double>(wall_ns));
    }
    telemetry->report(report);
  }
  if (status != nullptr) {
    // Terminal heartbeat: unconditional (cadence ignored) so monitors see
    // state == "complete" with the final totals even for sub-cadence runs.
    status->writer.write(status->snapshot("complete"));
  }
  result.stats = campaign.stats;
  result.audit = campaign.audit;
  result.violations = std::move(campaign.violations);
  result.exhausted = campaign.exhausted;
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
