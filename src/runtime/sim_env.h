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
// Decisions: the adversary's every move is one int on a decision tape — a
// plain grant (the pid) or an encoded fault (fail-stop, crash-restart,
// spurious store-conditional failure).  SimEnv::apply is the one place a
// decision takes effect: run() turns scheduler picks and FaultPlan events
// into decisions and applies them, and the explorer, its replayer and the
// commutation audit apply their tapes the same way.
//
// Fault model: fail-stop kills a parked process for good; crash-*restart*
// unwinds it (all private state — locals, program counter, the in-flight
// operation — is lost, shared registers persist) and re-enters its program
// through the restart hook registered with the two-argument add_process
// overload.  Spurious store-conditional failures are delivered to the LL/SC
// object through Ctx::take_sc_failure; a mark the granted operation does
// not consume lapses with its step.
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
// user-space context on the thread that drives the engine.  Ctx::sync parks
// the process by switching to the engine's context; start(), step_process,
// kill_process and restart_process switch into the chosen fiber and return
// when it parks again or finishes.  No OS thread is created.  Every SimEnv
// keeps its own engine context, so a SimEnv may be driven from inside
// another SimEnv's process.  A SimEnv is driven from the thread that
// started it.
//
// On x86-64 the switch is about twenty instructions of assembly
// (sim_env.cc): it saves the callee-saved registers, MXCSR and the x87
// control word, and it makes no system call.  Two things do not travel with
// a fiber.  The signal mask belongs to the thread, so a process body that
// changed it would change it for the engine and every other process;
// nothing in the tree calls sigprocmask or pthread_sigmask.  CET shadow
// stacks are not supported: glibc leaves them off unless a tunable turns
// them on, and with them on the first switch would fault.  Other
// architectures use the POSIX user-context calls, which also save the
// signal mask, with one system call per switch.
//
// Fiber stacks are mmap'ed with a PROT_NONE guard page below them, so an
// overflow faults instead of corrupting memory.  They come from a
// thread-local free list: after a thread's first schedule every schedule
// reuses them, and the list never holds more stacks than the thread had
// live at once (fiber_stack_stats).
//
// A crash unwinds the process on its own stack with one forced unwind
// (_Unwind_ForcedUnwind, the mechanism glibc uses for thread cancellation)
// started from the parked sync.  It walks the body's frames once, running
// every destructor and every handler that catches ProcessCrashed, and
// stops below the fiber's entry function; the fiber then switches back to
// the engine for good and its stack goes back to the pool.  A crash-restart
// re-enters the restart hook on a fresh fiber, the way start() enters a
// body.  No exception ever leaves a fiber.  kill_process, restart_process,
// finish() and ~SimEnv all crash this way, so every parked process's
// locals are destroyed before its stack is reused.
//
// finish() abandons each still-parked process with one such unwind, which
// the explorer pays on every schedule it prunes.  The unwind allocates
// nothing: each thread reuses one exception object per nesting level.  The
// park path is kept free of landing pads: Ctx::sync and the register
// operations hold nothing with a destructor across the park (an OpDesc is
// trivially copyable; its names are interned handles, runtime/names.h), so
// the unwinder runs no cleanup between the park and the body's own frames.
//
// One rule follows from the switch: a process may not park while an
// exception is in flight or being handled on its stack (a sync inside a
// catch block, or in a destructor run by unwinding, a crash's included).
// The C++ runtime keeps that state per thread, and switching away would
// hand it to another context, so such a sync fails with InvariantError
// instead.
//
// Sanitizers see through the switches.  Under ASan every switch is
// bracketed with __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber; under TSan each process is a
// __tsan_create_fiber fiber entered with __tsan_switch_to_fiber.  Both are
// detected from the compiler, not configured.
#pragma once

#include <cxxabi.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/ledger.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/trace.h"
#include "util/checked.h"

namespace bss::sim {

// ------------------------------------------------------------ decision tape
//
// A decision is either a plain grant (the pid, >= 0) or an encoded fault
// action (< 0).  The encoding is dense so ddmin shrinking and the artifact
// round-trip treat faults as ordinary tape entries.

enum class ActionKind : int {
  kGrant = 0,      ///< grant the pid one shared-memory step
  kCrash = 1,      ///< fail-stop the pid (terminal)
  kRestart = 2,    ///< crash-restart the pid (needs a restart hook)
  kScFailure = 3,  ///< grant the pid's pending SC, forcing spurious failure
};

struct Action {
  ActionKind kind = ActionKind::kGrant;
  int pid = 0;
};

/// Largest pid the dense encoding carries without overflowing int: the
/// fault encoding maps (kind, pid) to -(pid*3 + kind-1) - 1, so pid*3 + 2
/// must stay representable.  Far above the explorer's own 64-process cap;
/// the guard exists so silent wrap-around can never corrupt a tape.
constexpr int kMaxActionPid = (std::numeric_limits<int>::max() - 3) / 3;

/// Encodes an action as a decision.  Throws InvariantError for pids outside
/// [0, kMaxActionPid] (compile error when evaluated constexpr) instead of
/// silently wrapping into some other action's encoding.
constexpr int encode_action(ActionKind kind, int pid) {
  if (pid < 0 || pid > kMaxActionPid) {
    throw InvariantError("encode_action: pid outside the dense encoding's range");
  }
  return kind == ActionKind::kGrant
             ? pid
             : -(pid * 3 + (static_cast<int>(kind) - 1)) - 1;
}

constexpr Action decode_action(int decision) {
  if (decision >= 0) return Action{ActionKind::kGrant, decision};
  const int index = -(decision + 1);  // no overflow at INT_MIN
  return Action{static_cast<ActionKind>(index % 3 + 1), index / 3};
}

constexpr bool is_fault_action(int decision) { return decision < 0; }

/// True iff applying `decision` grants a shared-memory step (a plain grant
/// or a spurious-failing SC) — exactly when SimEnv::apply returns true.
constexpr bool grants_step(int decision) {
  const ActionKind kind = decode_action(decision).kind;
  return kind == ActionKind::kGrant || kind == ActionKind::kScFailure;
}

class SimEnv;

/// What unwinds a process body when the fault plan (or engine shutdown)
/// kills the process: the forced-unwind tag of thread cancellation, so
/// `catch (const ProcessCrashed&)` and `catch (...)` both see a crash.
/// Process bodies must not swallow it: a handler that catches a crash must
/// rethrow it, and one that ends any other way terminates the program.  As
/// in cancellation, no object is thrown: catch it by reference and do not
/// read the parameter.
using ProcessCrashed = abi::__forced_unwind;

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
  /// every operation.  Unwinds with ProcessCrashed if the process was
  /// killed.
  void sync(const OpDesc& desc);

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
  /// run() only: once this many steps are granted, the run ends through
  /// finish() with RunReport::step_limit_hit set.
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
  /// Only before run()/start().
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

  /// Executes the system to quiescence (all processes finished/crashed) or
  /// to the step limit: start(), then one apply() per due FaultPlan event
  /// (crash or restart) and per scheduler pick (a grant, or an SC-failure
  /// decision where the plan's fail_sc says so), then finish().  May be
  /// called exactly once (and not after start()).
  RunReport run(Scheduler& scheduler, const FaultPlan& faults = {});

  // --- Incremental mode ---
  // start() launches the processes up to their first sync point; the caller
  // then inspects pending operations and applies decisions one at a time —
  // through apply() (run(), the explorer, its replayer and the commutation
  // audit) or the step/kill/restart/inject primitives it is built from (the
  // Section 3 emulation driver, which also injects results).  finish()
  // kills whatever is still parked.  Incremental callers bound depth
  // themselves.

  void start();
  /// True iff `decision` can be applied now: the env is started and not
  /// finished, its pid is parked, a restart has a hook, and a spurious SC
  /// failure meets a pending "sc".
  bool applicable(int decision) const;
  /// Applies one decision (InvariantError unless applicable): a grant steps
  /// the pid, an SC failure marks and steps it, a crash kills it, a restart
  /// crash-restarts it.  Returns true iff it granted a shared step.
  bool apply(int decision);
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
  /// The grant window: observer bracket, trace append, global step bump,
  /// and the lapse of an SC-failure mark the operation did not consume.
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
  /// scheduler's and the explorer's runnable set.
  std::vector<int> parked_processes() const;
  /// The same set written into `out`, reusing its capacity.
  void parked_processes(std::vector<int>& out) const;
  void finish();

  /// Builds a RunReport from the current process states.  Meaningful once
  /// every process is parked or finished (e.g. after finish()); the caller
  /// sets step_limit_hit, which incremental mode does not track.
  RunReport snapshot_report() const;

  const Trace& trace() const { return trace_; }
  /// Scheduler picks made during run() (pids), for ReplayScheduler.
  const std::vector<int>& decisions() const { return decisions_; }
  /// The virtual clock: logical ticks advanced only by granted timer
  /// operations (Ctx::sleep_until).  Deterministic per schedule; harness
  /// checkers read it to timestamp reconstructed histories.
  std::uint64_t virtual_now() const { return virtual_now_; }

 private:
  friend class Ctx;

  /// The env's own lifecycle: processes are added in kSetup, decisions are
  /// applied in kStarted, and finish() moves to kFinished for good.
  enum class Lifecycle : std::uint8_t { kSetup, kStarted, kFinished };

  enum class State : std::uint8_t {
    kCreated,
    kReady,    // blocked in sync with a pending op
    kRunning,  // granted; executing its operation + local code
    kDone,     // finished, crashed or failed
  };

  /// A user-space context and, for a process, its pooled stack
  /// (sim_env.cc).
  struct Fiber;
  /// The forced unwind that crashes a parked process (sim_env.cc).
  struct CrashUnwind;

  struct Proc {
    std::unique_ptr<Ctx> ctx;
    std::unique_ptr<Fiber> fiber;  ///< null before launch and once kDone
    State state = State::kCreated;
    bool crash_requested = false;     // set while a crash unwinds it
    bool sc_failure_pending = false;  // next SC step fails spuriously
    /// run_body's canonical frame address: a crash's unwind stops at the
    /// frame that called it.
    void* entry_cfa = nullptr;
    int restarts = 0;
    OpDesc pending;
    std::optional<std::int64_t> last_result;
    std::optional<std::int64_t> injection;
    ProcOutcome outcome = ProcOutcome::kUnstarted;
    std::string error;
  };

  static void fiber_entry() noexcept;  // a new fiber's entry: fiber_main
  void fiber_main(int pid);  // the process's life, on its own fiber
  void run_body(Proc& proc);  // the body or restart hook, for fiber_main
  // Switches into `proc`'s fiber until it parks or finishes; a finished
  // fiber's stack goes back to the pool.
  void resume(Proc& proc);
  // Runs a process on a fresh fiber up to its first park (or its end).
  void launch(Proc& proc);
  // Unwinds a parked process; its fiber is gone when this returns.
  void crash(Proc& proc);

  SimOptions options_;
  Lifecycle lifecycle_ = Lifecycle::kSetup;
  audit::AccessObserver* observer_ = nullptr;
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
};

/// The calling thread's fiber-stack pool: `mapped` counts the stacks this
/// thread has mapped, `pooled` those idle on its free list.
struct FiberStackStats {
  std::size_t mapped = 0;
  std::size_t pooled = 0;
};
FiberStackStats fiber_stack_stats();

}  // namespace bss::sim
