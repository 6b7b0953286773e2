// The lease ledger: harness-side instrumentation that turns the service's
// own moves into a checkable history.
//
// Every service instance (sim or thread backend) records its lease
// lifecycle here — acquisitions, leader actions, renewals, step-downs —
// and the post-run check reconstructs each process's *reign* as a
// half-open interval [start, end) of virtual time.  The safety property of
// the whole service is one line: no two processes' reigns may overlap.
//
// The records are honest about what the service DID, not what it should
// have done: a mutant that keeps acting on a stale lease records leader
// actions past its expiry, and `led()` folds those into the reign's end,
// which is exactly how the overlap check catches it.  A crashed holder
// leaves its reign open; the check clips it at the recorded expiry (the
// moment the rest of the world was free to take over).
//
// Thread-safe (one mutex): the sim backend serializes all calls anyway,
// and the std::thread backend needs the lock.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/lease_config.h"

namespace bss::service {

enum class StepDownReason {
  kExpired,      ///< woke past the expiry: the lease lapsed while asleep
  kDeposed,      ///< another process legitimately took the holder slot
  kRenewFailed,  ///< renewal SC retries exhausted; vacated gracefully
  kRetired,      ///< served the configured terms and released
};

const char* to_string(StepDownReason reason);

/// One tenure as leader.  `end` stays -1 while the reign is open (the
/// holder crashed or the run was truncated); the check then clips the
/// interval at `expiry`.
struct ReignRecord {
  int pid = -1;
  int incarnation = 0;
  std::uint64_t start = 0;   ///< phase-2 clock reading of the acquisition
  std::uint64_t expiry = 0;  ///< latest CONFIRMED expiry (renewals extend it)
  std::uint64_t acted = 0;   ///< latest recorded leader action (led())
  std::int64_t end = -1;     ///< step-down time; -1 while open
  StepDownReason reason = StepDownReason::kRetired;
};

/// Deterministic aggregate counters — the runreport's `service.*` stats.
struct LeaseStats {
  std::uint64_t leases_acquired = 0;
  std::uint64_t takeovers = 0;       ///< acquisitions over an expired holder
  std::uint64_t renewals = 0;
  std::uint64_t renew_failures = 0;
  std::uint64_t retries = 0;         ///< acquire waits + renewal SC retries
  std::uint64_t step_downs = 0;
  std::uint64_t expirations = 0;     ///< step-downs with kExpired
  std::uint64_t give_ups = 0;        ///< acquisitions abandoned at the budget
  std::uint64_t actions = 0;         ///< leader actions recorded via led()

  void merge_from(const LeaseStats& other);
};

class LeaseLedger {
 public:
  void acquired(int pid, int incarnation, std::uint64_t start,
                std::uint64_t expiry, bool takeover);
  /// A leader action ("served a request") at virtual time `t`.  The service
  /// must only call this while it believes its lease valid; the record is
  /// folded into the reign's effective end either way.
  void led(int pid, std::uint64_t t);
  void renewed(int pid, std::uint64_t new_expiry);
  void renew_failed(int pid);
  void retried(int pid);
  void gave_up(int pid, std::uint64_t t);
  void stepped_down(int pid, std::uint64_t end, StepDownReason reason);

  /// The safety check: no two DIFFERENT pids' effective reign intervals
  /// may overlap.  Effective interval: [start, max(end-or-clip, acted)),
  /// where an open reign clips at its recorded expiry.  Returns the
  /// violation description, or nullopt when the history is safe.
  std::optional<std::string> check() const;

  LeaseStats stats() const;

  /// Deterministic serialization for the audit layer's commutation
  /// cross-check: reigns sorted by (start, pid, incarnation) plus the
  /// aggregate counters, so histories reached through swapped independent
  /// operations fingerprint identically.
  std::string fingerprint() const;

 private:
  ReignRecord* open_reign_locked(int pid);

  mutable std::mutex mutex_;
  std::vector<ReignRecord> reigns_;
  LeaseStats stats_;
};

}  // namespace bss::service
