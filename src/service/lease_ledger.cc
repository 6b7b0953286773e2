#include "service/lease_ledger.h"

#include <algorithm>
#include <sstream>

#include "util/checked.h"

namespace bss::service {

const char* to_string(LeaseMutant mutant) {
  switch (mutant) {
    case LeaseMutant::kNone:
      return "none";
    case LeaseMutant::kRenewAfterExpiry:
      return "renew-after-expiry";
    case LeaseMutant::kNoStepDownOnRenewFailure:
      return "no-step-down";
  }
  return "?";
}

const char* to_string(StepDownReason reason) {
  switch (reason) {
    case StepDownReason::kExpired:
      return "expired";
    case StepDownReason::kDeposed:
      return "deposed";
    case StepDownReason::kRenewFailed:
      return "renew-failed";
    case StepDownReason::kRetired:
      return "retired";
  }
  return "?";
}

void LeaseStats::merge_from(const LeaseStats& other) {
  leases_acquired += other.leases_acquired;
  takeovers += other.takeovers;
  renewals += other.renewals;
  renew_failures += other.renew_failures;
  retries += other.retries;
  step_downs += other.step_downs;
  expirations += other.expirations;
  give_ups += other.give_ups;
  actions += other.actions;
}

ReignRecord* LeaseLedger::open_reign_locked(int pid) {
  // Reigns per pid are sequential: at most the LAST record of a pid can be
  // open (a new incarnation only acquires after the old reign closed or its
  // holder crashed — and a crash leaves exactly one open record behind).
  for (auto it = reigns_.rbegin(); it != reigns_.rend(); ++it) {
    if (it->pid == pid && it->end < 0) return &*it;
  }
  return nullptr;
}

void LeaseLedger::acquired(int pid, int incarnation, std::uint64_t start,
                           std::uint64_t expiry, bool takeover) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ReignRecord record;
  record.pid = pid;
  record.incarnation = incarnation;
  record.start = start;
  record.expiry = expiry;
  record.acted = start;
  reigns_.push_back(record);
  ++stats_.leases_acquired;
  if (takeover) ++stats_.takeovers;
}

void LeaseLedger::led(int pid, std::uint64_t t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.actions;
  ReignRecord* reign = open_reign_locked(pid);
  if (reign != nullptr) reign->acted = std::max(reign->acted, t);
}

void LeaseLedger::renewed(int pid, std::uint64_t new_expiry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.renewals;
  ReignRecord* reign = open_reign_locked(pid);
  if (reign != nullptr) reign->expiry = std::max(reign->expiry, new_expiry);
}

void LeaseLedger::renew_failed(int pid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.renew_failures;
  (void)pid;
}

void LeaseLedger::retried(int pid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.retries;
  (void)pid;
}

void LeaseLedger::gave_up(int pid, std::uint64_t t) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.give_ups;
  (void)pid;
  (void)t;
}

void LeaseLedger::stepped_down(int pid, std::uint64_t end,
                               StepDownReason reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.step_downs;
  if (reason == StepDownReason::kExpired) ++stats_.expirations;
  ReignRecord* reign = open_reign_locked(pid);
  expects(reign != nullptr, "lease ledger: step-down without an open reign");
  reign->end = static_cast<std::int64_t>(end);
  reign->reason = reason;
}

namespace {

/// The effective half-open interval a record claims: an open reign (crash,
/// truncation) clips at its recorded expiry; a recorded leader action past
/// the closed end extends it (that is the mutants' tell — the correct
/// service never acts past its believed validity).  Granularity rule: the
/// tick is the clock's resolution, so intervals are compared half-open and
/// a within-tick handoff (predecessor ends at the tick the successor
/// starts) counts as disjoint — the holder register, not the clock, is
/// what orders records inside one tick.
std::pair<std::uint64_t, std::uint64_t> effective_interval(
    const ReignRecord& record) {
  std::uint64_t hi =
      record.end >= 0 ? static_cast<std::uint64_t>(record.end) : record.expiry;
  hi = std::max(hi, record.acted);
  return {record.start, hi};
}

}  // namespace

std::optional<std::string> LeaseLedger::check() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < reigns_.size(); ++i) {
    for (std::size_t j = i + 1; j < reigns_.size(); ++j) {
      const ReignRecord& a = reigns_[i];
      const ReignRecord& b = reigns_[j];
      if (a.pid == b.pid) continue;
      const auto [a_lo, a_hi] = effective_interval(a);
      const auto [b_lo, b_hi] = effective_interval(b);
      if (a_lo < b_hi && b_lo < a_hi) {
        std::ostringstream out;
        out << "overlapping leases: p" << a.pid << " held [" << a_lo << ", "
            << a_hi << ") while p" << b.pid << " held [" << b_lo << ", "
            << b_hi << ")";
        return out.str();
      }
    }
  }
  return std::nullopt;
}

LeaseStats LeaseLedger::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string LeaseLedger::fingerprint() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ReignRecord> sorted = reigns_;
  std::sort(sorted.begin(), sorted.end(),
            [](const ReignRecord& a, const ReignRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.incarnation < b.incarnation;
            });
  std::ostringstream out;
  out << "reigns=[";
  for (const ReignRecord& record : sorted) {
    out << record.pid << ':' << record.incarnation << ':' << record.start
        << ':' << record.expiry << ':' << record.acted << ':' << record.end
        << ':' << to_string(record.reason) << ',';
  }
  out << "];acquired=" << stats_.leases_acquired
      << ";takeovers=" << stats_.takeovers << ";renewals=" << stats_.renewals
      << ";renew_failures=" << stats_.renew_failures
      << ";retries=" << stats_.retries << ";step_downs=" << stats_.step_downs
      << ";expirations=" << stats_.expirations
      << ";give_ups=" << stats_.give_ups << ";actions=" << stats_.actions
      << ';';
  return out.str();
}

}  // namespace bss::service
