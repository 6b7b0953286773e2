// Systematic schedule-space exploration over SimEnv.
//
// The simulator executes a system as a pure function of the scheduler's
// decision sequence, which is exactly the hook a stateless model checker
// needs: this module re-runs a system factory under every decision sequence
// (depth-first, re-executing the deterministic prefix each time) and checks
// a property after every complete run.  Three levers bound the search:
//
//  * Depth bound — schedules longer than `max_depth` steps are truncated
//    (the run is killed at the bound, counted, and not property-checked).
//
//  * Preemption bound (Chess-style, Musuvathi & Qadeer) — a *preemption* is
//    scheduling away from a process that is still runnable.  Most
//    concurrency bugs need only a handful, so bounding them makes even big
//    systems tractable; `iterative = true` sweeps budgets 0, 1, …, bound,
//    surfacing the simplest buggy schedule first.
//
//  * Sleep-set partial-order reduction (Godefroid) — two pending operations
//    commute unless they touch the same object and at least one writes (the
//    OpDesc footprint rule).  After a branch is explored, its choice goes to
//    sleep for the sibling branches and stays asleep while every executed
//    operation commutes with it; exploring a sleeping process would only
//    re-reach a state some explored interleaving already covered.  Sound for
//    all properties invariant under commuting independent operations —
//    which every trace/outcome property in this repository is.
//
//  * Fault bound — with `fault_bound >= 1`, fault injections become
//    scheduler decisions too: fail-stop a parked process, crash-restart it
//    (if it registered a restart hook), or fail its pending
//    store-conditional spuriously.  Each injection consumes fault budget,
//    mirroring the preemption bound, so exhaustive single- and double-fault
//    sweeps terminate; `iterative` sweeps fault budgets 0..fault_bound
//    outermost (fewest-fault refutation first).
//
// On a violation the explorer emits a Counterexample and greedily shrinks it
// (ddmin-style chunk deletion over the decision tape, re-running each
// candidate, bounded by a per-counterexample shrink budget), then
// *canonicalizes* the survivor into the exact decision sequence of its run —
// an artifact that the replayer re-executes verbatim with zero divergences.
// Fault-free counterexamples serialize as `bss-counterexample v1` (grants
// only, as always); tapes carrying fault decisions serialize as
// `bss-counterexample v2`, whose decision list mixes plain grants with
// `c<pid>` (crash), `r<pid>` (restart) and `s<pid>` (spurious SC failure)
// tokens.  Both versions parse.
//
// Parallel exploration (`ExploreOptions::jobs`): every run is a pure
// function of the decision tape, so the schedule space splits cleanly.  The
// engine is a *work-stealing frontier*: each pass starts as one unit
// (the whole space) owned by one worker, and whenever a worker goes idle a
// busy victim splits its own replayable frame stack at the shallowest frame
// that still has unexplored siblings — those siblings become a new unit,
// inserted immediately after the victim's in a DFS-ordered unit list, and
// the victim's backtrack floor rises past the cut.  Sleep sets,
// explored-sibling sets and budget counters carry across the cut in the
// frames, so the thief explores exactly the branches the serial walk would
// have explored after backtracking there.  Because units always partition
// the DFS into contiguous ordered segments, the results merge in DFS order
// with a deterministic cutoff rule, making the merged ExploreResult
// **byte-identical to the serial explorer's** for every worker count, steal
// granularity and completion order — including early-stopped runs, where
// work a worker did beyond the deterministic stop point is discarded rather
// than folded in.  The one exception is the `max_schedules` safety valve:
// with jobs > 1 the shared schedule budget is claimed concurrently, so
// *which* schedules fit under a cap that actually fires depends on timing
// (the run is flagged not exhausted either way).  jobs = 1 is the same
// engine with a single worker, which never splits.
//
// Durable exploration state (`checkpoint_path` / `resume_path`): the
// engine periodically persists a `bss-checkpoint v1` artifact
// (src/explore/checkpoint.h) — the merged DFS-prefix result plus every
// outstanding unit's replayable frame stack — so a campaign killed
// mid-exploration resumes from the artifact and ends byte-identical to an
// uninterrupted run (work past the last consistent snapshot is simply
// re-explored; determinism makes the re-exploration exact).
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "explore/system.h"
#include "runtime/trace.h"

namespace bss::obs {
class ObsSink;
}  // namespace bss::obs

namespace bss::explore {

/// The `bss-counterexample v2` token spelling of a decision (the dense
/// sim::encode_action encoding): plain grants print as the pid ("3"),
/// faults as "c1" (crash), "r0" (restart) and "s2" (spurious SC failure).
/// Shared by the counterexample artifact, event fields and the
/// `bss-checkpoint v1` frontier encoding.
std::string action_token(int decision);

/// Parses one decision token back to its dense encoding; nullopt on
/// malformed tokens or pids outside [0, sim::kMaxActionPid] (the same guard the
/// counterexample artifact parser applies — out-of-range pids must never
/// silently wrap into another action's encoding).
std::optional<int> parse_action_token(const std::string& token);

struct ExploreOptions {
  /// Kill any single schedule after this many steps (counted, not checked).
  std::uint64_t max_depth = 4096;
  /// Maximum preemptions per schedule; -1 explores the full space.
  int preemption_bound = -1;
  /// Chess-style iterative bounding: sweep budgets 0..preemption_bound
  /// instead of exploring only at the final budget.
  bool iterative = false;
  /// Sleep-set partial-order reduction.
  bool use_por = true;
  /// Stop after this many complete schedules (safety valve).
  std::uint64_t max_schedules = 1'000'000;
  /// Stop at the first violation (otherwise keep exploring, collecting up to
  /// max_violations counterexamples).  In parallel mode both limits are
  /// enforced per unit and again — exactly — by the DFS-ordered merge, so
  /// the reported violations are always the serial explorer's first ones
  /// regardless of worker count.
  bool stop_at_first_violation = true;
  std::size_t max_violations = 8;
  /// Shrink counterexamples before reporting them.
  bool minimize = true;
  /// Maximum re-executions minimize_counterexample may spend per
  /// counterexample (the shrink analogue of max_schedules: ddmin replays on
  /// a pathological tape must not run unboundedly after the exploration
  /// budget is spent).  The canonicalization run always happens; when the
  /// budget runs dry mid-shrink the best tape so far is returned — still
  /// canonical, still replaying with zero divergences — and
  /// ExploreStats::shrink_budget_hits records the cut.  0 means unlimited.
  std::uint64_t shrink_budget = 4096;
  /// Record traces during exploration runs (needed only if check() reads
  /// env.trace(); off saves allocation in the hot loop).
  bool record_trace = false;
  /// Maximum injected faults per schedule (crashes, restarts and spurious
  /// SC failures combined).  0 disables fault exploration entirely — the
  /// search space and results are then identical to the fault-free
  /// explorer.  With `iterative`, fault budgets 0..fault_bound are swept
  /// outermost, so the simplest (fewest-fault) refutation surfaces first.
  int fault_bound = 0;
  /// Offer fail-stop decisions at every parked process.
  bool explore_crashes = true;
  /// Offer crash-restart decisions (only at processes with restart hooks).
  bool explore_restarts = true;
  /// Offer spurious-failure decisions at pending store-conditionals (at
  /// most one per process per schedule — the slack the LL/SC c&s adapter's
  /// retry bound tolerates).
  bool explore_sc_failures = false;
  /// Worker threads.  1 explores serially; N > 1 runs N workers over the
  /// work-stealing frontier (each replays its unit's prefix on a private
  /// SimEnv; idle workers steal the shallowest unexplored siblings from busy
  /// victims, so skewed subtrees load-balance on their own).  0 — the
  /// default — resolves to the BSS_EXPLORE_JOBS environment variable when
  /// set (how CI race-checks the pool) and to 1 otherwise.  Results are
  /// byte-identical across all values; see the header comment.
  int jobs = 0;
  /// Steal granularity: a victim only splits at frames at least this many
  /// decisions below its current subtree floor, so larger values hand out
  /// smaller (deeper) subtrees.  Any value produces identical results — the
  /// knob trades steal frequency against per-steal work size.
  int steal_depth = 0;
  /// Visited-state cache (the step-loop fast path): key every DFS node on
  /// SystemInstance::fingerprint plus the scheduler-visible SimEnv state
  /// (parked set, pending operations, per-process step counts, virtual
  /// clock, sleep set, spent spurious-SC set) and prune nodes whose key was
  /// *cleanly covered* by an earlier iterative pass — "cleanly" meaning the
  /// covering subtree was cut by no budget, no fault bound, no truncation
  /// and contained no violation, so it equals the full unbounded subtree
  /// and re-exploring it at a deeper budget cannot add coverage.  The cache
  /// is frozen for the duration of each pass and clean keys are folded in
  /// between passes from per-frame coverage partials that aggregate
  /// commutatively, so pruning decisions — and therefore stats, violations
  /// and artifacts — stay byte-identical at every worker count and steal
  /// granularity.  Systems whose fingerprint() returns the
  /// empty default opt out frame-by-frame (full exploration).  Sound for
  /// properties that are a function of the fingerprinted state (the same
  /// assumption class as sleep-set POR); the seeded mutant suite asserts no
  /// refutation is lost.  A pass may conclude the space exhausted *earlier*
  /// than an unpruned run (budget cuts inside covered regions are
  /// suppressed) — coverage is identical, pass counts may not be.  false
  /// resolves through the BSS_EXPLORE_FP environment variable (force-on
  /// only, how CI sweeps the suite with pruning engaged).
  bool fingerprint_prune = false;
  /// When non-empty, the engine periodically writes a `bss-checkpoint v1`
  /// artifact here (atomically: tmp file + rename): the merged DFS-prefix
  /// result plus every outstanding unit's replayable frame stack.  A final
  /// `complete` checkpoint is written when exploration ends.
  std::string checkpoint_path;
  /// Checkpoint cadence: a snapshot is written every time this many more
  /// schedules have been claimed since the last one.  0 disables periodic
  /// checkpoints (only the final `complete` artifact is written).
  std::uint64_t checkpoint_every = 4096;
  /// When non-empty, exploration resumes from the `bss-checkpoint v1`
  /// artifact at this path instead of starting fresh: the merged-prefix
  /// result is restored and only the persisted frontier is explored.
  /// Throws InvariantError when the artifact is malformed, carries a
  /// different system/options fingerprint, or does not replay against this
  /// system.  The end state is byte-identical to an uninterrupted run.
  std::string resume_path;
  /// Testing/ops valve for kill-and-resume coverage: stop the engine
  /// (ExploreResult::halted) right after writing this many periodic
  /// checkpoints, leaving the checkpoint artifact as the only durable
  /// output — a deterministic stand-in for SIGKILL.  0 never halts.
  std::uint64_t halt_after_checkpoints = 0;
  /// When non-empty, explore() periodically publishes a `bss-status v1`
  /// heartbeat here (atomically: tmp file + rename) — live progress,
  /// throughput, per-worker state, checkpoint age; see src/obs/status.h.
  /// Empty resolves through the BSS_STATUS environment variable.  Like the
  /// telemetry sink, the heartbeat is passive: every field outside its
  /// `timing`/`profile` sections derives from the deterministic counters,
  /// and results are byte-identical with status on or off.
  std::string status_path;
  /// Heartbeat cadence in milliseconds.  0 — the default — resolves through
  /// BSS_STATUS_EVERY_MS when set and to 1000 otherwise.
  std::uint64_t status_every_ms = 0;
  /// Soundness audit (src/audit): attach an access-ledger auditor to every
  /// run — flagging unsynchronized register access, wrong-process access and
  /// declared-footprint violations — and differentially cross-check the POR
  /// commutation oracle on sampled schedules (replay with adjacent
  /// independent operations swapped; final states must match).  The layer is
  /// determinism-preserving: on audit-clean systems, audit on/off yields
  /// byte-identical schedules, stats and artifacts.  Ledger and footprint
  /// findings surface as ordinary Counterexamples (property violations take
  /// precedence); oracle refutations and counters surface through
  /// ExploreResult::audit.  false resolves through the BSS_AUDIT
  /// environment variable (force-on only, how CI audits the whole suite).
  bool audit = false;
  /// Cross-check one in this many completed schedules, selected by an
  /// FNV-1a hash of the canonical decision tape — the same schedules are
  /// picked for every worker count and steal granularity.  1 checks every
  /// schedule; 0 disables the cross-check.
  std::uint32_t audit_commute_sample = 16;
  /// Telemetry sink (src/obs): per-worker metric shards, the structured
  /// event log, worker timelines and the bss-runreport artifact.  nullptr —
  /// the default — disables observability entirely.  The layer is
  /// passive: stats, violations, artifacts and `exhausted` are
  /// byte-identical with the sink attached or not, at every worker count
  /// (metrics measure work *performed*, speculation included, so metric
  /// values themselves are not worker-count invariant; see DESIGN.md §9).
  obs::ObsSink* telemetry = nullptr;
};

/// Aggregated audit-layer results (ExploreOptions::audit).  Deliberately
/// kept OUT of ExploreStats and ExploreResult::summary(): the explorer's
/// ordinary output must stay byte-identical with the audit on or off, so
/// audit results are read explicitly from ExploreResult::audit.
struct AuditSummary {
  bool enabled = false;                 ///< the audit layer was attached
  std::uint64_t windows = 0;            ///< granted op windows observed
  std::uint64_t accesses = 0;           ///< token-reported register accesses
  std::uint64_t ledger_violations = 0;  ///< races + footprint violations
                                        ///< observed (prefix replays count)
  std::uint64_t schedules_cross_checked = 0;
  std::uint64_t pairs_considered = 0;   ///< adjacent independent pairs seen
  std::uint64_t swaps_replayed = 0;
  std::uint64_t commute_mismatches = 0; ///< commutation-oracle refutations
  /// First findings, human-readable (ledger violations that became
  /// counterexamples, commutation mismatches); capped at kMaxFindings.
  static constexpr std::size_t kMaxFindings = 32;
  std::vector<std::string> findings;

  bool clean() const {
    return ledger_violations == 0 && commute_mismatches == 0;
  }
  void note(std::string finding);
  void merge_from(const AuditSummary& other);
  std::string summary() const;
};

struct ExploreStats {
  std::uint64_t schedules = 0;         ///< complete executions checked
  std::uint64_t transitions = 0;       ///< total granted steps
  std::uint64_t timer_grants = 0;      ///< granted virtual-timer firings
  std::uint64_t sleep_set_prunes = 0;  ///< branches cut by POR
  std::uint64_t preemption_prunes = 0; ///< branches cut by the budget
  std::uint64_t truncated = 0;         ///< schedules cut by max_depth
  std::uint64_t max_depth_seen = 0;    ///< longest schedule encountered
  std::uint64_t shrink_runs = 0;       ///< re-executions spent minimizing
  std::uint64_t shrink_budget_hits = 0; ///< minimizations cut by shrink_budget
  std::uint64_t fault_prunes = 0;      ///< fault branches cut by the budget
  std::uint64_t faults_injected = 0;   ///< fault decisions taken, all runs
  /// DFS nodes pruned by the visited-state cache
  /// (ExploreOptions::fingerprint_prune); each prune skips the node's whole
  /// already-covered subtree.  Deterministic at every worker count.
  std::uint64_t fingerprint_prunes = 0;
  /// Distinct fault sites covered: (action, victim's lifetime op count)
  /// pairs — "every single-crash point" means every such pair was hit.
  std::uint64_t fault_points = 0;

  /// Folds `other` into this by each kExploreCounters row's fold: counters
  /// add, max_depth_seen maxes, fault_points is untouched (distinct sites
  /// dedup through a set and are written once at the end of explore()).
  /// The parallel merge applies this to per-unit stats in DFS order.
  void merge_from(const ExploreStats& other);

  std::string summary() const;
};

/// How merge_from folds one counter of a partial result into a total.
enum class CounterFold {
  kSum,   ///< counts add
  kMax,   ///< high-water marks keep the larger value
  kNone,  ///< untouched: fault_points is a set's size, written once at the
          ///< end of explore()
};

/// One ExploreStats or AuditSummary counter, listed once.  The tables below
/// drive merge_from, the `bss-checkpoint v1` codec, the runreport `stats`
/// section and the per-unit metrics.
template <class Record>
struct CounterRow {
  const char* name;  ///< JSON key in the checkpoint and the runreport
  std::uint64_t Record::*member;
  CounterFold fold = CounterFold::kSum;
  /// The checkpoint omits the counter while it is zero and parses a missing
  /// key as zero, so counters added after v1 shipped leave older artifacts'
  /// bytes unchanged.
  bool omit_zero = false;
  /// Per-unit metric fed from the counter's delta (a kMax row feeds a
  /// gauge); nullptr means none.
  const char* metric = nullptr;
};

inline constexpr CounterRow<ExploreStats> kExploreCounters[] = {
    {.name = "schedules", .member = &ExploreStats::schedules,
     .metric = "explore.schedules"},
    {.name = "transitions", .member = &ExploreStats::transitions,
     .metric = "explore.transitions"},
    {.name = "timer_grants", .member = &ExploreStats::timer_grants,
     .metric = "explore.timer_grants"},
    {.name = "sleep_set_prunes", .member = &ExploreStats::sleep_set_prunes},
    {.name = "preemption_prunes", .member = &ExploreStats::preemption_prunes},
    {.name = "truncated", .member = &ExploreStats::truncated,
     .metric = "explore.truncated"},
    {.name = "max_depth_seen", .member = &ExploreStats::max_depth_seen,
     .fold = CounterFold::kMax, .metric = "explore.max_depth_seen"},
    {.name = "shrink_runs", .member = &ExploreStats::shrink_runs,
     .metric = "shrink.replays"},
    {.name = "shrink_budget_hits",
     .member = &ExploreStats::shrink_budget_hits},
    {.name = "fault_prunes", .member = &ExploreStats::fault_prunes},
    {.name = "faults_injected", .member = &ExploreStats::faults_injected,
     .metric = "explore.faults_injected"},
    {.name = "fingerprint_prunes",
     .member = &ExploreStats::fingerprint_prunes, .omit_zero = true,
     .metric = "explore.fingerprint_prunes"},
    {.name = "fault_points", .member = &ExploreStats::fault_points,
     .fold = CounterFold::kNone},
};
static_assert(std::size(kExploreCounters) ==
                  sizeof(ExploreStats) / sizeof(std::uint64_t),
              "every ExploreStats counter needs a kExploreCounters row");

/// AuditSummary's counters; `enabled` and `findings` are not counters and
/// are handled by hand wherever the table is used.
inline constexpr CounterRow<AuditSummary> kAuditCounters[] = {
    {.name = "windows", .member = &AuditSummary::windows},
    {.name = "accesses", .member = &AuditSummary::accesses},
    {.name = "ledger_violations", .member = &AuditSummary::ledger_violations},
    {.name = "schedules_cross_checked",
     .member = &AuditSummary::schedules_cross_checked,
     .metric = "audit.schedules_cross_checked"},
    {.name = "pairs_considered", .member = &AuditSummary::pairs_considered},
    {.name = "swaps_replayed", .member = &AuditSummary::swaps_replayed,
     .metric = "audit.swaps_replayed"},
    {.name = "commute_mismatches",
     .member = &AuditSummary::commute_mismatches},
};

/// A refutation: a decision sequence that drives the system factory into a
/// property violation.  After minimization the sequence is *canonical*: it
/// is the complete decision tape of a violating run, so ReplayScheduler
/// re-executes it verbatim (zero divergences).
struct Counterexample {
  std::string system;          ///< ExplorableSystem::name() of the target
  int processes = 0;
  std::string violation;       ///< check()'s description
  std::vector<int> decisions;  ///< canonical replay tape (grants + faults)
  std::size_t shrunk_from = 0; ///< decision count before minimization

  /// Fault decisions on the tape; 0 means a schedule-only counterexample.
  std::size_t fault_count() const;

  /// Plain-text artifact round-trip (README: "Reproducing a counterexample").
  /// Emits `bss-counterexample v1` when the tape is fault-free (bit-for-bit
  /// the historical format) and `v2` when it carries fault decisions.
  std::string to_artifact() const;
  static std::optional<Counterexample> from_artifact(const std::string& text);
};

struct ExploreResult {
  ExploreStats stats;
  std::vector<Counterexample> violations;
  /// Audit-layer results; all-zero (enabled == false) when the audit is off.
  AuditSummary audit;
  /// True iff the schedule space was fully covered: no preemption-budget
  /// prune, no depth truncation, no schedule cap, exploration ran to
  /// completion.  With use_por the coverage is up to commutation
  /// equivalence.  Fault-budget cuts do NOT clear this flag: the bounded
  /// fault space (at most fault_bound injections) is the declared search
  /// domain, and within it coverage is complete.
  bool exhausted = false;
  /// True iff the run stopped early at the halt_after_checkpoints valve; the
  /// partial stats/violations are then meaningless — the checkpoint artifact
  /// is the durable output and a resume completes the campaign.
  bool halted = false;
  /// `bss-checkpoint v1` artifacts written by THIS call (periodic + final).
  /// Deliberately outside summary(): checkpointing must not perturb the
  /// byte-identical result contract.
  std::uint64_t checkpoints_written = 0;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

/// Explores `system`'s schedule space under `options`.
ExploreResult explore(const ExplorableSystem& system,
                      const ExploreOptions& options = {});

/// Outcome of re-executing a counterexample artifact.
struct ReplayOutcome {
  bool violated = false;        ///< check() reported a violation again
  std::string violation;
  std::uint64_t divergences = 0;  ///< replay departures from the tape
  bool truncated = false;         ///< hit ExploreOptions::max_depth
  sim::RunReport report;
};

/// Re-runs `system` under cex.decisions — grants AND faults — and re-checks
/// the property.  Tape entries that are not applicable in the current state
/// are skipped (each counted as a divergence), and a tape that ends before
/// the system quiesces is completed round-robin (also counted), exactly the
/// ReplayScheduler contract.  A healthy minimized counterexample reproduces
/// its violation with zero divergences.
ReplayOutcome replay_counterexample(const ExplorableSystem& system,
                                    const Counterexample& cex,
                                    const ExploreOptions& options = {});

/// Greedy decision-tape shrinking (exposed for tests; explore() calls it
/// when options.minimize).  Returns the canonicalized counterexample;
/// `stats`, when given, accumulates the re-execution count.
Counterexample minimize_counterexample(const ExplorableSystem& system,
                                       Counterexample cex,
                                       const ExploreOptions& options = {},
                                       ExploreStats* stats = nullptr);

/// The POR commutation rule, exposed for tests: pending operations commute
/// unless they touch the same object and at least one of them writes.
bool ops_commute(const sim::OpDesc& a, const sim::OpDesc& b);

}  // namespace bss::explore
