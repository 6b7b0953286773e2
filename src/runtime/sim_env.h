// SimEnv — the deterministic asynchronous shared-memory machine.
//
// Model: n sequential processes, each an arbitrary C++ callable, communicate
// only through shared objects (src/registers).  Every shared-object operation
// begins with Ctx::sync(), which *blocks the process* until the scheduler
// grants it the step; while everything is blocked the engine consults the
// Scheduler (the adversary) to choose who moves.  Exactly one process runs at
// a time, so each granted operation executes atomically — which is precisely
// the atomic-register/atomic-RMW model of Afek & Stupp (and Herlihy [10]).
//
// Determinism: the execution is a pure function of (process bodies, scheduler
// decisions, fault plan).  Schedulers are replayable, so every run in this
// repository can be reproduced from a seed.
//
// Fault model: run() takes a FaultPlan (fault_plan.h).  Fail-stop kills a
// parked process for good; crash-*restart* unwinds it (all private state —
// locals, program counter, the in-flight operation — is lost, shared
// registers persist) and re-enters its program through the restart hook
// registered with the two-argument add_process overload.  Spurious
// store-conditional failures are delivered to the LL/SC object through
// Ctx::take_sc_failure.
//
// Virtual time: the engine carries a logical clock (virtual_now, a plain
// uint64 of abstract ticks) that only timer operations move.  Ctx::now()
// reads it as a synced shared operation on the pseudo-object "@clock";
// Ctx::sleep_until(deadline) parks the process on a {"@clock", "timer"}
// operation whose *grant* advances the clock to max(now, deadline).  Because
// a timer firing is just another granted step, the scheduler — and therefore
// the DFS explorer — adversarially races timeouts against ordinary steps and
// faults with no extra machinery: a timer decision is a decision.  Footprints
// are declared like any register's ("read" reads @clock, "timer" writes it),
// so sleep-set POR and the access-ledger audit stay sound: two reads of the
// clock commute, everything else on @clock conflicts.
//
// Implementation: each process runs on its own cooperative fiber, a
// user-space context built with makecontext and switched with swapcontext
// on the thread that drives the engine.  Ctx::sync parks the process by
// switching to the engine's context; run(), start(), step_process,
// kill_process and restart_process switch into the chosen fiber and return
// when it parks again or finishes.  No OS thread is created and no step
// blocks in the kernel (glibc's swapcontext still makes one signal-mask
// system call per switch).  Every SimEnv keeps its own engine context, so a
// SimEnv may be driven from inside another SimEnv's process.  A SimEnv is
// driven from the thread that started it.
//
// Fiber stacks are mmap'ed with a PROT_NONE guard page below them, so an
// overflow faults instead of corrupting memory.  They come from a
// thread-local free list: after a thread's first schedule every schedule
// reuses them, and the list never holds more stacks than the thread had
// live at once (fiber_stack_stats).  Crash and restart unwinding runs on
// the fiber's own stack: ProcessCrashed is thrown from the parked sync and
// caught in the fiber's entry function, no exception ever leaves a fiber,
// and ~SimEnv resumes every still-parked process with a crash so its locals
// are destroyed before its stack goes back to the pool.
//
// One rule follows from the switch: a process may not park while an
// exception is in flight or being handled on its stack (a sync inside a
// catch block, or in a destructor run by unwinding).  The C++ runtime keeps
// that state per thread, and switching away would hand it to another
// context, so such a sync fails with InvariantError instead.
//
// Sanitizers see through the switches.  Under ASan every switch is
// bracketed with __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber; under TSan each process is a
// __tsan_create_fiber fiber entered with __tsan_switch_to_fiber.  Both are
// detected from the compiler, not configured.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/ledger.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"

namespace bss::obs {
class ObsSink;
}  // namespace bss::obs

namespace bss::sim {

class SimEnv;

/// Thrown inside a process body to unwind it when the fault plan (or engine
/// shutdown) kills the process.  Process bodies must not swallow it.
struct ProcessCrashed {};

/// Per-process handle passed to process bodies and shared objects.
class Ctx {
 public:
  int pid() const { return pid_; }
  std::uint64_t steps_taken() const { return steps_taken_; }
  /// 0 for the initial execution, +1 per crash-restart.  Survives restarts
  /// (it lives in the engine, not on the process's stack), so recovery code
  /// — and recovery *mutants* — can tell re-entries apart.
  int incarnation() const { return incarnation_; }
  /// Global step counter at the moment of the call — timestamps for interval
  /// histories (runtime/linearizability.h).  Stable while this process runs.
  std::uint64_t global_step() const;

  /// Reads the virtual clock as a synced shared operation on "@clock"
  /// (footprint: read).  The value is the logical tick count advanced only
  /// by granted timer operations, so it is deterministic per schedule.
  std::uint64_t now();

  /// Parks the process on a {"@clock", "timer", deadline} operation; when
  /// the scheduler grants it, the virtual clock jumps to
  /// max(virtual_now, deadline) and the new now is returned (footprint:
  /// write — timers conflict with every other @clock op, so POR never
  /// prunes a schedule that orders a timeout differently).  The scheduler
  /// may grant the timer at any point, which is exactly the asynchronous-
  /// model reading of a timeout: "at least until `deadline`, then whenever
  /// the adversary feels like it".
  std::uint64_t sleep_until(std::uint64_t deadline);

  /// Announces the pending operation and blocks until the scheduler grants
  /// this process its next step.  Called by shared objects at the start of
  /// every operation.  Throws ProcessCrashed if the process was killed.
  void sync(OpDesc desc);

  /// Records the result of the operation granted by the last sync(), for the
  /// trace.  Optional; at most once per sync.
  void note_result(std::int64_t result);

  /// Consumes the value injected by SimEnv::inject for the operation granted
  /// by the last sync().  Emulated objects (src/emulation) use this to let a
  /// driver dictate operation results; InvariantError if nothing was
  /// injected.
  std::int64_t take_injection();

  /// True iff the operation granted by the last sync() was marked as a
  /// spurious store-conditional failure (FaultPlan::fail_sc or
  /// SimEnv::inject_sc_failure).  Consuming clears the mark; the LL/SC
  /// object calls this once per SC.
  bool take_sc_failure();

  /// Checks out this process's access-ledger stamp for the grant window the
  /// last sync() opened.  Shared objects call token.read/write(name) on
  /// every load/store of shared state; with no observer attached (the
  /// default) the token is inert.  A token checked out with no window open
  /// (body code ahead of its first sync) carries AccessToken::kNoWindow —
  /// using it to touch shared state is exactly the unsynced access the
  /// auditor reports.
  audit::AccessToken access_token() const;

 private:
  friend class SimEnv;
  Ctx(SimEnv* env, int pid) : env_(env), pid_(pid) {}

  SimEnv* env_;
  int pid_;
  std::uint64_t steps_taken_ = 0;  // lifetime count; NOT reset by restarts
  int incarnation_ = 0;
};

enum class ProcOutcome {
  kFinished,   ///< body returned normally
  kCrashed,    ///< killed by the fault plan or engine shutdown
  kFailed,     ///< body threw a non-crash exception (a bug; message kept)
  kUnstarted,  ///< never scheduled (only possible with step limits)
};

struct RunReport {
  std::uint64_t total_steps = 0;
  bool step_limit_hit = false;
  std::vector<ProcOutcome> outcomes;       // indexed by pid
  std::vector<std::string> errors;         // non-empty for kFailed pids
  std::vector<std::uint64_t> steps_by_pid;
  std::vector<int> restarts_by_pid;        // crash-restarts survived, by pid

  int finished_count() const;
  int crashed_count() const;
  /// Processes that survived at least one crash-restart.
  int restarted_count() const;
  /// True iff no process failed with an exception and the step limit held.
  bool clean() const;
  std::string summary() const;
};

struct SimOptions {
  std::uint64_t step_limit = 10'000'000;
  bool record_trace = true;
};

class SimEnv {
 public:
  explicit SimEnv(SimOptions options = {});
  ~SimEnv();

  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;

  /// Registers a process body; returns its pid (dense, starting at 0).
  /// Bodies receive their Ctx and may capture shared objects by reference.
  int add_process(std::function<void(Ctx&)> body);

  /// Registers a crash-*restartable* process: after a restart fault, the
  /// process is re-entered through `restart_hook` (every local of the
  /// unwound body is gone; shared registers persist).  Recovery-safe
  /// programs simply pass their body again — recovery must be derivable
  /// from shared state plus the process's immutable inputs.
  int add_process(std::function<void(Ctx&)> body,
                  std::function<void(Ctx&)> restart_hook);

  /// True iff `pid` was registered with a restart hook.
  bool restart_supported(int pid) const;

  int process_count() const { return static_cast<int>(bodies_.size()); }

  /// Attaches an access-ledger observer (src/audit) before the run: the
  /// engine brackets every granted operation with on_window_begin/end and
  /// instrumented objects stamp their accesses through Ctx::access_token().
  /// Observers are passive — attaching one changes neither scheduling nor
  /// results — and must outlive the run.  Call before run()/start().
  void set_access_observer(audit::AccessObserver* observer);

  /// Attaches a telemetry sink (src/obs) before the run: fault injections
  /// (kill_process, restart_process, inject_sc_failure) emit sim.crash /
  /// sim.restart / sim.sc_failure events stamped with the global step
  /// counter.  Passive, like the access observer: attaching one changes
  /// neither scheduling nor results.  The engine's own shutdown kills in
  /// finish() are NOT events — only explicit injections are.  The explorer
  /// attaches this on counterexample replays only (exploration re-runs the
  /// factory thousands of times and would flood the bounded log).
  void set_obs_sink(obs::ObsSink* sink);

  /// Executes the system to quiescence (all processes finished/crashed) or
  /// to the step limit.  May be called exactly once (and not after start()).
  RunReport run(Scheduler& scheduler, const FaultPlan& faults = {});

  // --- Incremental mode (used by the Section 3 emulation driver) ---
  // start() launches the processes up to their first sync point; the caller
  // then inspects pending operations, optionally injects results, and steps
  // chosen processes one operation at a time.  finish() kills whatever is
  // still parked.  Mutually exclusive with run().

  void start();
  /// True iff `pid` is parked at a pending operation.
  bool is_parked(int pid) const;
  /// The operation `pid` is parked on (valid iff is_parked).
  const OpDesc& pending_of(int pid) const;
  bool is_finished(int pid) const;
  ProcOutcome outcome_of(int pid) const;
  const std::string& error_of(int pid) const;
  /// Supplies the result the next step of `pid` will observe through
  /// Ctx::take_injection().
  void inject(int pid, std::int64_t value);
  /// Grants `pid` exactly one operation; returns the completed trace event.
  TraceEvent step_process(int pid);
  void kill_process(int pid);
  /// Crash-restarts a parked process: its pending operation is ABANDONED
  /// (never performed), its stack unwinds, and it re-enters via its restart
  /// hook, parking at the hook's first shared operation (or finishing).
  /// Requires restart_supported(pid).
  void restart_process(int pid);
  /// Marks the pending store-conditional of a parked process so that its
  /// next step fails spuriously.  Requires pending_of(pid).op == "sc".
  void inject_sc_failure(int pid);
  /// Lifetime shared-operation count of `pid` (the fault-point coordinate).
  std::uint64_t steps_of(int pid) const;
  /// The ascending pids currently parked at a pending operation — the
  /// explorer's runnable set (and the frame-replay validation set when a
  /// checkpointed frontier is re-materialized on a fresh SimEnv).
  std::vector<int> parked_processes() const;
  void finish();

  /// Builds a RunReport from the current process states.  Meaningful once
  /// every process is parked or finished (e.g. after finish()); the caller
  /// sets step_limit_hit, which incremental mode does not track.
  RunReport snapshot_report() const;

  const Trace& trace() const { return trace_; }
  /// Scheduler decisions made during run(), for ReplayScheduler.
  const std::vector<int>& decisions() const { return decisions_; }
  /// The virtual clock: logical ticks advanced only by granted timer
  /// operations (Ctx::sleep_until).  Deterministic per schedule; harness
  /// checkers read it to timestamp reconstructed histories.
  std::uint64_t virtual_now() const { return virtual_now_; }

 private:
  friend class Ctx;

  enum class State : std::uint8_t {
    kCreated,
    kReady,    // blocked in sync with a pending op
    kRunning,  // granted; executing its operation + local code
    kDone,     // finished, crashed or failed
  };

  /// A user-space context and, for a process, its pooled stack
  /// (sim_env.cc).
  struct Fiber;

  struct Proc {
    std::unique_ptr<Ctx> ctx;
    std::unique_ptr<Fiber> fiber;  ///< null before launch and once kDone
    State state = State::kCreated;
    bool crash_requested = false;
    bool restart_requested = false;   // with crash_requested: unwind + re-enter
    bool sc_failure_pending = false;  // next SC step fails spuriously
    int restarts = 0;
    OpDesc pending;
    std::optional<std::int64_t> last_result;
    std::optional<std::int64_t> injection;
    ProcOutcome outcome = ProcOutcome::kUnstarted;
    std::string error;
  };

  static void fiber_entry() noexcept;  // makecontext entry: fiber_main
  void fiber_main(int pid);  // the process's life, on its own fiber
  // Ctx::sync body: park the calling process and hand control to the engine.
  void park(int pid, OpDesc desc);
  // Switches into `proc`'s fiber until it parks or finishes; a finished
  // fiber's stack goes back to the pool.
  void resume(Proc& proc);
  void launch();  // build procs_ and serially enter the fibers

  // Emits a sim.* fault-injection event through obs_sink_ (no-op when
  // detached or during finish()'s shutdown kills).
  void note_fault_event(const char* kind, int pid);

  SimOptions options_;
  audit::AccessObserver* observer_ = nullptr;
  obs::ObsSink* obs_sink_ = nullptr;
  bool finishing_ = false;  ///< suppresses events for shutdown kills
  int window_pid_ = -1;  ///< grantee of the currently open window, or -1
  std::vector<std::function<void(Ctx&)>> bodies_;
  std::vector<std::function<void(Ctx&)>> restart_hooks_;  // empty = fail-stop only
  std::vector<Proc> procs_;
  std::unique_ptr<Fiber> engine_;  ///< the context run()/step_process run on
  /// The exception the engine was handling when it switched into a fiber
  /// (null when none): park() requires the same handler state, so a
  /// process never switches away from a catch block of its own.
  std::exception_ptr engine_handling_;
  Trace trace_;
  std::vector<int> decisions_;
  std::uint64_t step_ = 0;
  std::uint64_t virtual_now_ = 0;  ///< logical clock; timer grants advance it
  bool ran_ = false;
  bool started_ = false;
  bool finished_ = false;
};

/// The calling thread's fiber-stack pool: `mapped` counts the stacks this
/// thread has mapped, `pooled` those idle on its free list.
struct FiberStackStats {
  std::size_t mapped = 0;
  std::size_t pooled = 0;
};
FiberStackStats fiber_stack_stats();

/// Convenience: build, populate and run a SimEnv in one call.
/// `make_body(pid)` must return the body for process `pid`.
///
/// This is also the cheap re-run-from-factory path used by the schedule
/// explorer (src/explore), which re-executes the same factory thousands of
/// times: pass `options.record_trace = false` to skip trace accumulation and
/// `decisions_out` to receive the decision sequence (moved, not copied) for
/// replay or shrinking.
RunReport run_system(int n, const std::function<std::function<void(Ctx&)>(int)>& make_body,
                     Scheduler& scheduler, Trace* trace_out = nullptr,
                     const FaultPlan& faults = {}, SimOptions options = {},
                     std::vector<int>* decisions_out = nullptr);

}  // namespace bss::sim
