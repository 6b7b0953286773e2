#include "runtime/sim_env.h"

#include <sys/mman.h>
#include <unistd.h>
#include <unwind.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <utility>

#include "util/checked.h"

// Sanitizer fiber annotations, detected from the compiler: GCC defines
// __SANITIZE_ADDRESS__ / __SANITIZE_THREAD__, clang answers __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define SIM_ENV_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define SIM_ENV_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIM_ENV_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define SIM_ENV_TSAN 1
#endif
#endif
#if defined(SIM_ENV_ASAN)
#include <sanitizer/asan_interface.h>
#endif
#if defined(SIM_ENV_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(__x86_64__)
// The fiber switch.  It saves what the System V ABI makes callee-saved:
// rbp, rbx, r12-r15 and the control bits of MXCSR and the x87 control word.
// It saves no signal mask, so a switch makes no system call.
//
// bss_fiber_switch(save_sp, load_sp) pushes those registers and one 8-byte
// slot holding the two control words, stores rsp through save_sp, loads
// load_sp and pops the same frame there.  The frame looks the same on both
// sides of the rsp swap, so one set of CFI describes the whole function.
//
// bss_fiber_start is where a new fiber's first switch returns to (see
// SwitchFrame).  It calls the entry held in rbx, which never returns.
// `.cfi_undefined rip` makes it the outermost frame: an unwind of a fiber's
// stack ends here instead of walking onto whatever lies above it.
extern "C" {
void bss_fiber_switch(void** save_sp, void* load_sp);
void bss_fiber_start();
}

asm(R"(
  .pushsection .text
  .globl bss_fiber_switch
  .hidden bss_fiber_switch
  .type bss_fiber_switch, @function
  .p2align 4
bss_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_offset %rbp, -16
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_offset %rbx, -24
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r12, -32
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r13, -40
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r14, -48
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_offset %r15, -56
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size bss_fiber_switch, .-bss_fiber_switch

  .globl bss_fiber_start
  .hidden bss_fiber_start
  .type bss_fiber_start, @function
  .p2align 4
bss_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  call *%rbx
  ud2
  .cfi_endproc
  .size bss_fiber_start, .-bss_fiber_start
  .popsection
)");
#else
#include <ucontext.h>

#include <cerrno>
#include <system_error>
#endif

namespace bss::sim {

namespace {

/// Usable bytes per fiber stack.  Pages are touched lazily, so this is an
/// address-space reservation, not memory; a deeper fiber hits the guard.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// One thread's fiber stacks.  A mapping is [guard page | usable stack];
/// released stacks wait on the free list for the next fiber, so the list
/// never holds more stacks than the thread had live at once.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* base : free_) munmap(base, mapping_bytes());
  }

  /// The base of a mapping; its usable stack starts one page above.
  void* acquire() {
    if (!free_.empty()) {
      void* base = free_.back();
      free_.pop_back();
      return base;
    }
    void* base = mmap(nullptr, mapping_bytes(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                      -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    if (mprotect(base, page_bytes(), PROT_NONE) != 0) {
      munmap(base, mapping_bytes());
      throw std::bad_alloc();
    }
    ++mapped_;
    return base;
  }

  void release(void* base) { free_.push_back(base); }

  FiberStackStats stats() const { return {mapped_, free_.size()}; }

 private:
  static std::size_t mapping_bytes() { return page_bytes() + kStackBytes; }

  std::vector<void*> free_;
  std::size_t mapped_ = 0;
};

thread_local StackPool stack_pool;

/// The process launch() is entering on a fresh fiber: a fiber's entry
/// takes no argument, and the first switch runs fiber_entry at once on this
/// thread.
thread_local Ctx* entering = nullptr;

#if defined(__x86_64__)
/// What bss_fiber_switch pops, lowest address first.  A new fiber's stack
/// starts with one at its top, so its first switch "returns" into
/// bss_fiber_start with rsp 16-byte aligned, and bss_fiber_start's call
/// enters the fiber as the ABI expects.
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_control = 0;
  std::uint16_t unused = 0;
  std::uint64_t r15 = 0;
  std::uint64_t r14 = 0;
  std::uint64_t r13 = 0;
  std::uint64_t r12 = 0;
  void (*rbx)() = nullptr;  ///< the entry bss_fiber_start calls
  std::uint64_t rbp = 0;
  void (*return_address)() = &bss_fiber_start;
};
static_assert(sizeof(SwitchFrame) == 64,
              "bss_fiber_switch pops six registers, a control slot and rip");
#endif

[[noreturn]] void crash_unwind_failed(const char* what) {
  std::fprintf(stderr, "bss::sim: %s\n", what);
  std::abort();
}

/// The C++ runtime deletes a caught exception when its handler ends
/// without rethrowing.  For a crash that means a process body swallowed
/// it: the process can then neither finish nor crash, and the object,
/// which the thread reuses, must not be freed.
void crash_swallowed(_Unwind_Reason_Code /*reason*/,
                     _Unwind_Exception* /*header*/) {
  crash_unwind_failed(
      "a process body swallowed ProcessCrashed; a handler that catches a "
      "crash must rethrow it");
}

/// The exception objects crashes unwind with, one per nesting level: a
/// crash's cleanup may crash the processes of a SimEnv its body owns, and
/// the two unwinds must not share a header.  Each object is a native C++
/// exception, so a body's catch-and-rethrow keeps the runtime's per-thread
/// counts balanced.  It is made once per thread and kept alive by an
/// exception_ptr, so a crash allocates nothing.
class CrashObjects {
 public:
  _Unwind_Exception* acquire() {
    if (in_flight_ == held_.size()) held_.push_back(make());
    return held_[in_flight_++].header;
  }
  void release() { --in_flight_; }

 private:
  struct Token {};
  struct Held {
    std::exception_ptr owner;
    _Unwind_Exception* header = nullptr;
  };

  static Held make() {
    Held held{std::make_exception_ptr(Token{}), nullptr};
    try {
      std::rethrow_exception(held.owner);
    } catch (Token& token) {
      // The Itanium C++ ABI puts the unwind header right below the object.
      held.header = reinterpret_cast<_Unwind_Exception*>(&token) - 1;
    }
    held.header->exception_cleanup = &crash_swallowed;
    return held;
  }

  std::vector<Held> held_;
  std::size_t in_flight_ = 0;
};

thread_local CrashObjects crash_objects;

}  // namespace

FiberStackStats fiber_stack_stats() { return stack_pool.stats(); }

/// A user-space context.  A process fiber owns a pooled stack; the engine's
/// fiber is whatever stack run()/step_process were called on, and learns
/// its bounds (for ASan) from each fiber it resumes.
struct SimEnv::Fiber {
#if defined(__x86_64__)
  void* sp = nullptr;  ///< the stack pointer saved while switched out
#else
  ucontext_t context{};
#endif
  void* mapping = nullptr;  ///< pooled stack mapping; null for the engine
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;

  Fiber() = default;  // the engine

  explicit Fiber(void (*entry)()) {
#if !defined(__x86_64__)
    if (getcontext(&context) != 0) {
      throw std::system_error(errno, std::generic_category(), "getcontext");
    }
#endif
    mapping = stack_pool.acquire();
    void* const usable = static_cast<char*>(mapping) + page_bytes();
    stack_bottom = usable;
    stack_size = kStackBytes;
#if defined(__x86_64__)
#if defined(SIM_ENV_ASAN)
    // A reused stack still carries the shadow of its last fiber's frames.
    __asan_unpoison_memory_region(usable, kStackBytes);
#endif
    auto* const frame = new (static_cast<char*>(usable) + kStackBytes -
                             sizeof(SwitchFrame)) SwitchFrame;
    frame->rbx = entry;
    // The control words start as the launching thread's, as they would on
    // a new thread.
    asm("stmxcsr %0\n\tfnstcw %1"
        : "=m"(frame->mxcsr), "=m"(frame->x87_control));
    sp = frame;
#else
    context.uc_stack.ss_sp = usable;
    context.uc_stack.ss_size = stack_size;
    context.uc_link = nullptr;  // fiber_entry never returns
    makecontext(&context, entry, 0);
#if defined(SIM_ENV_ASAN)
    // ASan's swapcontext interceptor clears the shadow of the target's
    // uc_stack on every switch, which would erase the redzones of the
    // frames parked there.  Only makecontext reads uc_stack, so drop it and
    // clear a reused stack's leftover shadow once, here, instead.
    __asan_unpoison_memory_region(usable, kStackBytes);
    context.uc_stack = {};
#endif
#endif
#if defined(SIM_ENV_TSAN)
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() {
    if (mapping == nullptr) return;
#if defined(SIM_ENV_TSAN)
    __tsan_destroy_fiber(tsan_fiber);
#endif
    stack_pool.release(mapping);
  }

  /// Switches from this (running) context to `to`; returns when `to`
  /// switches back.  An engine and its fibers only ever switch to each
  /// other, so whoever resumes this context is `to`.  `exiting`: this
  /// context never resumes, so ASan may drop its fake stack.
  void switch_to(Fiber& to, [[maybe_unused]] bool exiting = false) {
#if defined(SIM_ENV_ASAN)
    __sanitizer_start_switch_fiber(exiting ? nullptr : &asan_fake_stack,
                                   to.stack_bottom, to.stack_size);
#endif
#if defined(SIM_ENV_TSAN)
    // For the engine this is how it learns its own TSan fiber handle.
    tsan_fiber = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if defined(__x86_64__)
    bss_fiber_switch(&sp, to.sp);
#else
    swapcontext(&context, &to.context);
#endif
#if defined(SIM_ENV_ASAN)
    // Records the engine's stack bounds, which a fiber learns no other way.
    __sanitizer_finish_switch_fiber(asan_fake_stack, &to.stack_bottom,
                                    &to.stack_size);
#endif
  }
};

/// A crash unwinds the process's frames once, from its park up to
/// run_body's, running every destructor and every handler that catches
/// ProcessCrashed; stop() ends it before fiber_main's frame and leaves the
/// fiber for good.
struct SimEnv::CrashUnwind {
  /// On the crashed process's fiber.
  [[noreturn]] static void run(Proc& proc) {
    _Unwind_Exception* const header = crash_objects.acquire();
#if defined(SIM_ENV_ASAN)
    // What ASan's __cxa_throw interceptor does, and after acquire(), whose
    // first call per thread runs code of its own: the frames the unwind
    // leaves behind must not keep their redzones.
    __asan_handle_no_return();
#endif
    _Unwind_ForcedUnwind(header, &stop, &proc);
    crash_unwind_failed("the forced unwind of a crashed process failed");
  }

  /// Called before each frame is unwound.  For that frame the unwinder
  /// reports the stack pointer at its call site, which for fiber_main's
  /// frame is run_body's CFA.
  static _Unwind_Reason_Code stop(int /*version*/, _Unwind_Action actions,
                                  _Unwind_Exception_Class /*klass*/,
                                  _Unwind_Exception* /*header*/,
                                  _Unwind_Context* context, void* arg) {
    Proc& proc = *static_cast<Proc*>(arg);
    if (reinterpret_cast<void*>(_Unwind_GetCFA(context)) != proc.entry_cfa) {
      if ((actions & _UA_END_OF_STACK) != 0) {
        crash_unwind_failed("a crash unwound past its fiber's entry");
      }
      return _URC_NO_REASON;
    }
    crash_objects.release();
    proc.state = State::kDone;
    // Only fiber_main's and fiber_entry's frames and the unwinder's are
    // left on this stack, and none of them holds anything with a
    // destructor: the engine may pool it.
    proc.fiber->switch_to(*proc.ctx->env_->engine_, /*exiting=*/true);
    __builtin_unreachable();
  }
};

int RunReport::finished_count() const {
  int n = 0;
  for (const auto outcome : outcomes) {
    if (outcome == ProcOutcome::kFinished) ++n;
  }
  return n;
}

int RunReport::crashed_count() const {
  int n = 0;
  for (const auto outcome : outcomes) {
    if (outcome == ProcOutcome::kCrashed) ++n;
  }
  return n;
}

int RunReport::restarted_count() const {
  int n = 0;
  for (const auto restarts : restarts_by_pid) {
    if (restarts > 0) ++n;
  }
  return n;
}

bool RunReport::clean() const {
  if (step_limit_hit) return false;
  for (const auto outcome : outcomes) {
    if (outcome == ProcOutcome::kFailed) return false;
  }
  return true;
}

std::string RunReport::summary() const {
  std::ostringstream out;
  out << "steps=" << total_steps << " finished=" << finished_count()
      << " crashed=" << crashed_count();
  if (restarted_count() > 0) out << " restarted=" << restarted_count();
  if (step_limit_hit) out << " STEP-LIMIT";
  for (std::size_t pid = 0; pid < outcomes.size(); ++pid) {
    if (outcomes[pid] == ProcOutcome::kFailed) {
      out << "\n  p" << pid << " FAILED: " << errors[pid];
    }
  }
  return out.str();
}

std::uint64_t Ctx::global_step() const { return env_->step_; }

namespace {

/// The pseudo-object timer and clock operations sync on.
ObjectName clock_object() {
  static const ObjectName clock("@clock");
  return clock;
}

}  // namespace

std::uint64_t Ctx::now() {
  sync({clock_object(), "read", 0, 0});
  access_token().read(clock_object());
  const std::uint64_t value = env_->virtual_now_;
  note_result(static_cast<std::int64_t>(value));
  return value;
}

std::uint64_t Ctx::sleep_until(std::uint64_t deadline) {
  sync({clock_object(), "timer", static_cast<std::int64_t>(deadline), 0});
  // The grant IS the timer firing: the adversary chose this moment, so the
  // clock jumps far enough for the deadline to have passed (and no further —
  // other processes' views only move when their own ops are granted).
  access_token().write(clock_object());
  if (deadline > env_->virtual_now_) env_->virtual_now_ = deadline;
  const std::uint64_t value = env_->virtual_now_;
  note_result(static_cast<std::int64_t>(value));
  return value;
}

void Ctx::sync(const OpDesc& desc) {
  // Parks the process.  A crash unwinds from here, so this is the frame
  // nearest the park: one frame fewer for every unwind to walk.
  SimEnv& env = *env_;
  SimEnv::Proc& proc = env.procs_[static_cast<std::size_t>(pid_)];
  // The C++ runtime keeps the in-flight count and the caught-exception
  // stack per thread; switching away mid-exception would hand them to the
  // engine and corrupt both.  A crash's unwind is not counted as in flight,
  // so it is checked by name.
  expects(!proc.crash_requested && std::uncaught_exceptions() == 0 &&
              std::current_exception() == env.engine_handling_,
          "a process may not park while an exception is in flight or being "
          "handled");
  proc.pending = desc;
  proc.state = SimEnv::State::kReady;
  proc.fiber->switch_to(*env.engine_);
  if (proc.crash_requested) SimEnv::CrashUnwind::run(proc);
  ++steps_taken_;
}

void Ctx::note_result(std::int64_t result) {
  env_->procs_[static_cast<std::size_t>(pid_)].last_result = result;
}

std::int64_t Ctx::take_injection() {
  auto& injection = env_->procs_[static_cast<std::size_t>(pid_)].injection;
  expects(injection.has_value(),
          "emulated operation executed without an injected result");
  const std::int64_t value = *injection;
  injection.reset();
  return value;
}

audit::AccessToken Ctx::access_token() const {
  // The window serial is the global step of the grant: step_ is stable for
  // the whole window (the engine increments it only after the op parks
  // again), and every grant bumps it, so serials are unique per window.
  const std::uint64_t window = env_->window_pid_ == pid_
                                   ? env_->step_
                                   : audit::AccessToken::kNoWindow;
  return {env_->observer_, pid_, window};
}

bool Ctx::take_sc_failure() {
  bool& pending = env_->procs_[static_cast<std::size_t>(pid_)].sc_failure_pending;
  const bool fail = pending;
  pending = false;
  return fail;
}

SimEnv::SimEnv(SimOptions options) : options_(options) {}

SimEnv::~SimEnv() {
  // If run() threw (e.g. a scheduler bug), processes may still be parked.
  // Each is unwound on its own stack, so its locals are destroyed before
  // the stack goes back to the pool.
  for (Proc& proc : procs_) {
    if (proc.state == State::kReady) crash(proc);
  }
}

int SimEnv::add_process(std::function<void(Ctx&)> body) {
  expects(lifecycle_ == Lifecycle::kSetup,
          "SimEnv::add_process after run()/start()");
  bodies_.push_back(std::move(body));
  restart_hooks_.emplace_back();  // no hook: restarts unsupported
  return checked_cast<int>(bodies_.size()) - 1;
}

int SimEnv::add_process(std::function<void(Ctx&)> body,
                        std::function<void(Ctx&)> restart_hook) {
  expects(lifecycle_ == Lifecycle::kSetup,
          "SimEnv::add_process after run()/start()");
  expects(static_cast<bool>(restart_hook),
          "add_process: restart hook must be callable");
  bodies_.push_back(std::move(body));
  restart_hooks_.push_back(std::move(restart_hook));
  return checked_cast<int>(bodies_.size()) - 1;
}

void SimEnv::set_access_observer(audit::AccessObserver* observer) {
  expects(lifecycle_ == Lifecycle::kSetup,
          "set_access_observer after the run began");
  observer_ = observer;
}

bool SimEnv::restart_supported(int pid) const {
  return static_cast<bool>(restart_hooks_[static_cast<std::size_t>(pid)]);
}

void SimEnv::fiber_entry() noexcept {
  Ctx* const ctx = entering;
  SimEnv& env = *ctx->env_;
  Fiber& self = *env.procs_[static_cast<std::size_t>(ctx->pid_)].fiber;
#if defined(SIM_ENV_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &env.engine_->stack_bottom,
                                  &env.engine_->stack_size);
#endif
  env.fiber_main(ctx->pid_);
  // Nothing with a destructor is left on this stack: the engine may pool it.
  self.switch_to(*env.engine_, /*exiting=*/true);
}

void SimEnv::fiber_main(int pid) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  try {
    run_body(proc);
    proc.outcome = ProcOutcome::kFinished;
  } catch (const std::exception& e) {
    proc.outcome = ProcOutcome::kFailed;
    proc.error = e.what();
  } catch (...) {
    proc.outcome = ProcOutcome::kFailed;
    proc.error = "unknown exception";
  }
  proc.state = State::kDone;
}

// Out of line: the CFA it records is where a crash's unwind stops, so that
// fiber_main's handlers never see a crash.
__attribute__((noinline)) void SimEnv::run_body(Proc& proc) {
  proc.entry_cfa = __builtin_dwarf_cfa();
  const auto pid = static_cast<std::size_t>(proc.ctx->pid_);
  (proc.ctx->incarnation_ == 0 ? bodies_[pid] : restart_hooks_[pid])(*proc.ctx);
}

void SimEnv::resume(Proc& proc) {
  engine_handling_ = std::current_exception();
  engine_->switch_to(*proc.fiber);
  engine_handling_ = nullptr;
  if (proc.state == State::kDone) proc.fiber.reset();
}

void SimEnv::launch(Proc& proc) {
  proc.fiber = std::make_unique<Fiber>(&SimEnv::fiber_entry);
  entering = proc.ctx.get();
  resume(proc);
}

void SimEnv::crash(Proc& proc) {
  proc.crash_requested = true;
  resume(proc);
  proc.crash_requested = false;
}

void SimEnv::start() {
  expects(lifecycle_ == Lifecycle::kSetup,
          "SimEnv::start conflicts with a previous run");
  const int n = process_count();
  expects(n > 0, "SimEnv started with no processes");
  lifecycle_ = Lifecycle::kStarted;
  procs_.resize(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    procs_[static_cast<std::size_t>(pid)].ctx =
        std::unique_ptr<Ctx>(new Ctx(this, pid));
  }
  engine_ = std::make_unique<Fiber>();
  // Enter the fibers one at a time: each process runs to its first sync
  // point (or completion) before the next starts, so body code ahead of the
  // first shared operation never interleaves — objects may touch shared
  // state anywhere inside an operation's implementation.
  for (Proc& proc : procs_) launch(proc);
}

bool SimEnv::is_parked(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].state == State::kReady;
}

const OpDesc& SimEnv::pending_of(int pid) const {
  const Proc& proc = procs_[static_cast<std::size_t>(pid)];
  expects(proc.state == State::kReady, "pending_of: process is not parked");
  return proc.pending;
}

bool SimEnv::is_finished(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].state == State::kDone;
}

ProcOutcome SimEnv::outcome_of(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].outcome;
}

const std::string& SimEnv::error_of(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].error;
}

void SimEnv::inject(int pid, std::int64_t value) {
  expects(is_parked(pid), "inject: process is not parked");
  procs_[static_cast<std::size_t>(pid)].injection = value;
}

bool SimEnv::applicable(int decision) const {
  const Action action = decode_action(decision);
  if (lifecycle_ != Lifecycle::kStarted || action.pid >= process_count() ||
      !is_parked(action.pid)) {
    return false;
  }
  if (action.kind == ActionKind::kRestart) return restart_supported(action.pid);
  if (action.kind == ActionKind::kScFailure) {
    return pending_of(action.pid).op == OpName("sc");
  }
  return true;
}

bool SimEnv::apply(int decision) {
  expects(applicable(decision), "SimEnv::apply: decision is not applicable");
  const auto [kind, pid] = decode_action(decision);
  switch (kind) {
    case ActionKind::kScFailure:
      inject_sc_failure(pid);
      [[fallthrough]];
    case ActionKind::kGrant:
      step_process(pid);
      return true;
    case ActionKind::kCrash:
      kill_process(pid);
      return false;
    case ActionKind::kRestart:
      restart_process(pid);
      return false;
  }
  return false;
}

TraceEvent SimEnv::step_process(int pid) {
  expects(lifecycle_ == Lifecycle::kStarted,
          "step_process outside start()/finish()");
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  expects(proc.state == State::kReady, "step_process: process is not parked");
  TraceEvent event;
  event.step = step_;
  event.pid = pid;
  event.desc = proc.pending;
  proc.last_result.reset();
  proc.state = State::kRunning;
  window_pid_ = pid;
  if (observer_ != nullptr) observer_->on_window_begin(pid, event.desc, step_);
  resume(proc);  // until the process parks again or finishes
  window_pid_ = -1;
  if (observer_ != nullptr) {
    observer_->on_window_end(
        pid, proc.state == State::kDone && proc.outcome != ProcOutcome::kFinished);
  }
  proc.sc_failure_pending = false;  // a fault the op did not consume lapses
  ++step_;
  if (proc.last_result.has_value()) {
    event.result = *proc.last_result;
    event.has_result = true;
  }
  if (options_.record_trace) trace_.append(event);
  return event;
}

void SimEnv::kill_process(int pid) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  if (proc.state != State::kReady) return;
  crash(proc);
  proc.outcome = ProcOutcome::kCrashed;
}

void SimEnv::restart_process(int pid) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  expects(proc.state == State::kReady, "restart_process: process is not parked");
  expects(restart_supported(pid), "restart_process: process has no restart hook");
  // The unwind took every private local with it; shared registers persist.
  crash(proc);
  proc.injection.reset();
  proc.sc_failure_pending = false;
  ++proc.ctx->incarnation_;
  ++proc.restarts;
  launch(proc);  // until the restarted incarnation parks (or finishes)
}

void SimEnv::inject_sc_failure(int pid) {
  Proc& proc = procs_[static_cast<std::size_t>(pid)];
  expects(proc.state == State::kReady,
          "inject_sc_failure: process is not parked");
  expects(proc.pending.op == OpName("sc"),
          "inject_sc_failure: pending operation is not a store-conditional");
  proc.sc_failure_pending = true;
}

std::uint64_t SimEnv::steps_of(int pid) const {
  return procs_[static_cast<std::size_t>(pid)].ctx->steps_taken();
}

std::vector<int> SimEnv::parked_processes() const {
  std::vector<int> parked;
  parked_processes(parked);
  return parked;
}

void SimEnv::parked_processes(std::vector<int>& out) const {
  out.clear();
  for (int pid = 0; pid < process_count(); ++pid) {
    if (is_parked(pid)) out.push_back(pid);
  }
}

RunReport SimEnv::snapshot_report() const {
  const int n = process_count();
  RunReport report;
  report.total_steps = step_;
  report.outcomes.resize(static_cast<std::size_t>(n));
  report.errors.resize(static_cast<std::size_t>(n));
  report.steps_by_pid.resize(static_cast<std::size_t>(n));
  report.restarts_by_pid.resize(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    const Proc& proc = procs_[static_cast<std::size_t>(pid)];
    report.outcomes[static_cast<std::size_t>(pid)] = proc.outcome;
    report.errors[static_cast<std::size_t>(pid)] = proc.error;
    report.steps_by_pid[static_cast<std::size_t>(pid)] =
        proc.ctx ? proc.ctx->steps_taken() : 0;
    report.restarts_by_pid[static_cast<std::size_t>(pid)] = proc.restarts;
  }
  return report;
}

void SimEnv::finish() {
  if (lifecycle_ != Lifecycle::kStarted) return;
  lifecycle_ = Lifecycle::kFinished;  // shutdown kills are not fault events
  for (int pid = 0; pid < process_count(); ++pid) kill_process(pid);
}

RunReport SimEnv::run(Scheduler& scheduler, const FaultPlan& faults) {
  expects(lifecycle_ == Lifecycle::kSetup, "SimEnv::run may be called once");
  start();
  const int n = process_count();
  std::vector<ProcView> views(static_cast<std::size_t>(n));
  const auto refresh_view = [&](int pid) {
    const Proc& proc = procs_[static_cast<std::size_t>(pid)];
    ProcView& view = views[static_cast<std::size_t>(pid)];
    view.pid = pid;
    view.ready = proc.state == State::kReady;
    view.pending = proc.pending;
    view.steps_taken = proc.ctx->steps_taken();
  };
  for (int pid = 0; pid < n; ++pid) refresh_view(pid);

  // Per-pid cursor into the (sorted) fault event list, and count of granted
  // store-conditionals (the coordinate fail_sc addresses).
  std::vector<std::size_t> fault_cursor(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> sc_granted(static_cast<std::size_t>(n), 0);
  std::vector<int> runnable;
  for (;;) {
    // Due fault events fire first, at every parked process.  A restart
    // leaves the process parked again (at its new first operation) with its
    // lifetime step count intact, so several due events fire back-to-back.
    for (int pid = 0; pid < n; ++pid) {
      const auto& events = faults.events_for(pid);
      std::size_t& cursor = fault_cursor[static_cast<std::size_t>(pid)];
      while (is_parked(pid) && cursor < events.size() &&
             steps_of(pid) >= events[cursor].op_index) {
        const bool crash = events[cursor++].kind == FaultKind::kCrash;
        expects(crash || restart_supported(pid),
                "fault plan restarts a process without a restart hook");
        apply(encode_action(crash ? ActionKind::kCrash : ActionKind::kRestart,
                            pid));
        refresh_view(pid);
      }
    }
    parked_processes(runnable);
    if (runnable.empty()) break;
    if (step_ >= options_.step_limit) {
      finish();
      RunReport report = snapshot_report();
      report.step_limit_hit = true;
      return report;
    }

    const int pid = scheduler.pick(SchedView{step_, runnable, views});
    expects(pid >= 0 && pid < n && is_parked(pid),
            "scheduler picked a non-runnable process");
    decisions_.push_back(pid);
    const bool fail_sc =
        pending_of(pid).op == OpName("sc") &&
        faults.should_fail_sc(pid, sc_granted[static_cast<std::size_t>(pid)]++);
    apply(fail_sc ? encode_action(ActionKind::kScFailure, pid) : pid);
    refresh_view(pid);
  }
  finish();
  return snapshot_report();
}

}  // namespace bss::sim
