// The fault model: fail-stop, crash-restart, and transient faults.
//
// A plan of crash_before_op events alone is the paper's adversary exactly:
// fail-stop, nothing else.  Wait-freedom is a guarantee *against* it — every
// process must finish in a bounded number of its own steps no matter how many
// others stop forever.  The same plan also covers the crash-*recovery* model
// (Aspnes, "Notes on Theory of Distributed Systems", ch. on recoverable
// objects): a faulted process may instead *restart* — it loses every byte of
// private state (locals, program counter, in-flight operation) while all
// shared SWMR/MWMR registers persist, and SimEnv re-enters its program
// through a per-process restart hook.  On top of process faults, a FaultPlan
// can make individual store-conditional operations on the LL/SC object fail
// *spuriously* — the hardware-faithful relaxation real LL/SC exhibits under
// cache evictions and interrupts.
//
// Semantics:
//  * Events for one pid fire in op-index order.  An event fires when the
//    process is about to take its op_index-th (0-based) lifetime shared
//    operation — restarts do NOT reset the count, so "restart before op 3,
//    crash before op 7" means the process runs 3 ops, restarts, runs 4 more
//    (of its restarted program), then dies for good.
//  * A crash is terminal: later events for that pid never fire, so of two
//    crashes registered for one pid the earliest death wins.
//  * Registering the same (pid, op_index) twice keeps the FIRST event.
//  * Restart events require the process to have a restart hook
//    (SimEnv::add_process overload); SimEnv rejects the plan otherwise.
//  * Spurious SC failures are addressed by *SC ordinal*: fail_sc(pid, j)
//    makes pid's j-th (0-based) store-conditional return failure regardless
//    of the link state.  At most one spurious failure per pid is accepted —
//    that is exactly the slack the LL/SC c&s adapter's retry bound tolerates
//    (see core/llsc_election.h).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.h"

namespace bss::sim {

enum class FaultKind : std::uint8_t {
  kCrash,    ///< fail-stop: the process halts forever
  kRestart,  ///< crash-restart: private state lost, program re-entered
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  std::uint64_t op_index = 0;  ///< fires before the pid's op_index-th op
};

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Fail-stop `pid` before its `op_index`-th lifetime shared operation.
  /// op_index 0 means the process never takes a shared step at all.
  FaultPlan& crash_before_op(int pid, std::uint64_t op_index);

  /// Crash-restart `pid` before its `op_index`-th lifetime shared operation.
  FaultPlan& restart_before_op(int pid, std::uint64_t op_index);

  /// Make `pid`'s `sc_ordinal`-th (0-based) store-conditional fail
  /// spuriously.  At most one per pid (re-registration is ignored).
  FaultPlan& fail_sc(int pid, std::uint64_t sc_ordinal);

  /// Randomized plan over pids [0, n): each pid independently crashes with
  /// probability `crash_p`, restarts with probability `restart_p` (both at a
  /// uniform op index in [0, max_op)), and suffers one spurious SC failure
  /// with probability `sc_p` (at a uniform SC ordinal in [0, max_op)).  A
  /// drawn crash + restart pair is ordered by op index; the crash is
  /// terminal, so a restart drawn after it simply never fires.
  static FaultPlan random(int n, double crash_p, double restart_p, double sc_p,
                          std::uint64_t max_op, bss::Rng& rng);

  /// Randomized fail-stop-only plan: each pid in [0, n) crashes with
  /// probability `p`, at a uniformly random op index in [0, max_op).  Draws
  /// one coin per pid plus one op index per victim (random() draws three
  /// coins per pid, so the same seed gives a different plan there).
  static FaultPlan random_crashes(int n, double p, std::uint64_t max_op,
                                  bss::Rng& rng);

  /// Events registered for `pid`, sorted by op_index (firing order).
  const std::vector<FaultEvent>& events_for(int pid) const;

  /// True iff `pid`'s `sc_ordinal`-th store-conditional must fail.
  bool should_fail_sc(int pid, std::uint64_t sc_ordinal) const;

  bool empty() const { return events_.empty() && sc_failures_.empty(); }
  std::size_t victim_count() const;
  std::size_t event_count() const;
  bool has_restarts() const;

 private:
  FaultPlan& add_event(int pid, FaultKind kind, std::uint64_t op_index);

  std::map<int, std::vector<FaultEvent>> events_;
  std::map<int, std::uint64_t> sc_failures_;  // pid -> SC ordinal to fail
};

}  // namespace bss::sim
