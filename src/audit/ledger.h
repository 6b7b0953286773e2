// Access-ledger soundness auditing for the simulator.
//
// Everything the explorer reports rests on two unchecked assumptions: that
// every shared access happens inside a granted Ctx::sync(OpDesc) window with
// an honestly declared object name, and that the POR commutation oracle
// never calls a conflicting pair independent.  This module audits the first
// assumption dynamically (commute_check.h audits the second): registers
// check out a small AccessToken from their Ctx and stamp every load/store of
// shared state with it, and an Auditor attached to the SimEnv verifies each
// stamp against the currently open grant window.
//
//  * Race detection — an access outside any granted window, by a pid other
//    than the grantee, or through a token checked out during an earlier
//    window (stale) is a data race in the model's terms: shared state
//    touched without the scheduler's permission.
//
//  * Footprint conformance (conformance.h) — at window close, the set of
//    objects actually touched is diffed against the declared OpDesc.
//    Under-declaration silently unsounds the explorer's sleep sets;
//    over-declaration wastes pruning and signals a drifting declaration.
//
// Layering: this header is intentionally free of any audit *library*
// dependency for its hot-path types — AccessObserver is an abstract
// interface and AccessToken is fully inline — so runtime/sim_env.h can
// include it and bss_runtime needs no link edge to bss_audit.  Only code
// that instantiates the concrete Auditor (the explorer, tests, benches)
// links bss_audit.
//
// Determinism: observers are passive.  Attaching one never changes
// scheduling, trace content, or results — audit on/off yields byte-identical
// schedules, stats and artifacts (asserted in tests/test_audit.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/trace.h"

namespace bss::audit {

enum class AccessKind : std::uint8_t {
  kRead,   ///< shared state loaded
  kWrite,  ///< shared state stored (or potentially mutated: RMW, CAS, ...)
};

std::string to_string(AccessKind kind);

/// Interface the simulator drives: window brackets from the engine, access
/// stamps from the process fibers.  All of them run on one thread, one at a
/// time, so implementations need no locks.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// A grant window opens: the scheduler granted `pid` the operation it
  /// declared as `op`; `step` is the global step index of the grant (unique
  /// per window — the window's serial number).
  virtual void on_window_begin(int pid, const sim::OpDesc& op,
                               std::uint64_t step) = 0;

  /// The window closes.  `aborted` is true when the operation unwound with
  /// an exception (e.g. a register trapping a discipline violation) instead
  /// of completing — conformance checks skip aborted windows.
  virtual void on_window_end(int pid, bool aborted) = 0;

  /// A shared access stamped by `pid`'s token.  `token_window` is the
  /// window serial captured when the token was checked out, or
  /// AccessToken-no-window when it was checked out with no window open.
  virtual void on_access(int pid, const std::string& object, AccessKind kind,
                         std::uint64_t token_window) = 0;
};

/// The stamp registers use to report their shared accesses.  Checked out
/// from Ctx::access_token() — ideally right after the op's sync() returns —
/// and valid for that granted window only.  When no observer is attached
/// (the default everywhere outside audit mode) every call is a two-word
/// no-op, so the register library carries the instrumentation at zero cost.
class AccessToken {
 public:
  /// Serial carried by tokens checked out while no window was open (body
  /// code ahead of its first sync, restart hooks before re-syncing, ...).
  static constexpr std::uint64_t kNoWindow = ~std::uint64_t{0};

  AccessToken() = default;
  AccessToken(AccessObserver* observer, int pid, std::uint64_t window)
      : observer_(observer), pid_(pid), window_(window) {}

  /// True iff an observer is attached (accesses are actually recorded).
  bool armed() const { return observer_ != nullptr; }

  void read(const std::string& object) const {
    if (observer_ != nullptr) {
      observer_->on_access(pid_, object, AccessKind::kRead, window_);
    }
  }

  void write(const std::string& object) const {
    if (observer_ != nullptr) {
      observer_->on_access(pid_, object, AccessKind::kWrite, window_);
    }
  }

 private:
  AccessObserver* observer_ = nullptr;
  int pid_ = -1;
  std::uint64_t window_ = kNoWindow;
};

// --------------------------------------------------------------- violations

enum class ViolationKind {
  kUnsyncedAccess,      ///< shared access with no grant window open
  kWrongPid,            ///< access inside a window granted to another pid
  kStaleToken,          ///< token checked out under an earlier window
  kUndeclaredTouch,     ///< op touched an object its OpDesc never declared
  kWriteInReadOp,       ///< op declared "read" but wrote its object
  kPhantomDeclaration,  ///< op declared an object it never touched
};

std::string to_string(ViolationKind kind);

/// One audit finding, with a stack-free "who/what/step" description plus
/// the recent-window prefix that led to it.
struct Violation {
  ViolationKind kind = ViolationKind::kUnsyncedAccess;
  int pid = -1;
  std::string object;
  /// Global step of the enclosing window (or of the most recent window for
  /// unsynced accesses, which by definition have none of their own).
  std::uint64_t step = 0;
  std::string detail;  ///< full human-readable description

  std::string to_string() const;
};

// ------------------------------------------------------------------ auditor

struct AuditorOptions {
  /// Keep at most this many Violation records (the count keeps rising
  /// past it); 0 keeps every record.
  std::size_t max_violations = 64;
  /// Grant windows of context prepended to each violation description —
  /// the "offending trace prefix".
  std::size_t trace_context = 8;
  /// Retain every window's footprint for post-run inspection (tests);
  /// off keeps memory flat during long explorations.
  bool keep_footprints = false;
};

/// Forward-declared here, defined in conformance.h: the per-window actual
/// footprint the conformance checker diffs against the declaration.
struct WindowFootprint;

/// The concrete observer: verifies every access stamp against the open
/// window (race detection) and diffs each closed window's actual footprint
/// against its declaration (conformance).  State is a pure function of the
/// observed run, so identical runs produce identical findings — which is
/// what lets ledger violations flow through the explorer's deterministic
/// counterexample machinery.
class Auditor final : public AccessObserver {
 public:
  explicit Auditor(AuditorOptions options = {});
  ~Auditor() override;

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  void on_window_begin(int pid, const sim::OpDesc& op,
                       std::uint64_t step) override;
  void on_window_end(int pid, bool aborted) override;
  void on_access(int pid, const std::string& object, AccessKind kind,
                 std::uint64_t token_window) override;

  bool clean() const { return violation_count_ == 0; }
  /// Total violations observed (may exceed violations().size(), which is
  /// capped by AuditorOptions::max_violations).
  std::uint64_t violation_count() const { return violation_count_; }
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t windows() const { return windows_; }
  std::uint64_t accesses() const { return accesses_; }
  /// Every closed window's footprint (AuditorOptions::keep_footprints).
  const std::vector<WindowFootprint>& footprints() const;

  /// One-line deterministic digest: violation count plus the first finding.
  std::string summary() const;

  /// Forgets everything observed; options are kept.
  void reset();

 private:
  void record(Violation violation);
  std::string context_prefix() const;

  AuditorOptions options_;

  // Current window (at most one: the engine grants one step at a time).
  bool window_open_ = false;
  bool window_dirty_ = false;  ///< a race was already reported in it
  int window_pid_ = -1;
  std::uint64_t window_serial_ = 0;
  sim::OpDesc window_declared_;
  std::vector<std::pair<std::string, AccessKind>> window_touches_;

  // Rolling context of recently closed/open windows ("p0 cas.cas@3").
  std::vector<std::string> recent_windows_;

  std::uint64_t windows_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<Violation> violations_;
  std::vector<WindowFootprint> footprints_;
};

}  // namespace bss::audit
