#include "audit/ledger.h"

#include <sstream>
#include <utility>

#include "audit/conformance.h"

namespace bss::audit {

std::string to_string(AccessKind kind) {
  return kind == AccessKind::kRead ? "read" : "write";
}

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUnsyncedAccess:
      return "unsynced-access";
    case ViolationKind::kWrongPid:
      return "wrong-pid";
    case ViolationKind::kStaleToken:
      return "stale-token";
    case ViolationKind::kUndeclaredTouch:
      return "undeclared-touch";
    case ViolationKind::kWriteInReadOp:
      return "write-in-read-op";
    case ViolationKind::kPhantomDeclaration:
      return "phantom-declaration";
  }
  return "?";
}

std::string Violation::to_string() const {
  std::ostringstream out;
  out << audit::to_string(kind) << ": " << detail;
  return out.str();
}

Auditor::Auditor(AuditorOptions options) : options_(options) {}

// Out of line so the Auditor vtable anchors in this translation unit.
Auditor::~Auditor() = default;

void Auditor::record(Violation violation) {
  ++violation_count_;
  if (options_.max_violations == 0 ||
      violations_.size() < options_.max_violations) {
    violations_.push_back(std::move(violation));
  }
}

std::string Auditor::context_prefix() const {
  if (recent_windows_.empty()) return "at the start of the run";
  std::ostringstream out;
  out << "after [";
  for (std::size_t i = 0; i < recent_windows_.size(); ++i) {
    if (i > 0) out << " ";
    out << recent_windows_[i];
  }
  out << "]";
  return out.str();
}

void Auditor::on_window_begin(int pid, const sim::OpDesc& op,
                              std::uint64_t step) {
  window_open_ = true;
  window_dirty_ = false;
  window_pid_ = pid;
  window_serial_ = step;
  window_declared_ = op;
  window_touches_.clear();
  ++windows_;

  std::ostringstream label;
  label << "p" << pid << " " << op.object << "." << op.op << "@" << step;
  recent_windows_.push_back(label.str());
  if (options_.trace_context > 0 &&
      recent_windows_.size() > options_.trace_context) {
    recent_windows_.erase(recent_windows_.begin());
  }
}

void Auditor::on_window_end(int pid, bool aborted) {
  if (!window_open_ || pid != window_pid_) return;  // defensive; engine-paired
  window_open_ = false;

  WindowFootprint footprint;
  footprint.pid = window_pid_;
  footprint.step = window_serial_;
  footprint.declared = window_declared_;
  footprint.touched = std::move(window_touches_);
  footprint.aborted = aborted;
  window_touches_.clear();

  // A window that already raced (wrong pid / stale token inside it) gets no
  // conformance verdict: the race report supersedes and a confused footprint
  // would only produce noise findings for the same root cause.
  if (!window_dirty_) {
    for (auto& violation : check_footprint(footprint)) {
      violation.detail += "; " + context_prefix();
      record(std::move(violation));
    }
  }
}

void Auditor::on_access(int pid, sim::ObjectName object, AccessKind kind,
                        std::uint64_t token_window) {
  ++accesses_;
  const auto describe = [&](const char* what) {
    std::ostringstream out;
    out << "p" << pid << " " << to_string(kind) << " of '" << object << "' "
        << what << "; " << context_prefix();
    return out.str();
  };

  if (!window_open_) {
    Violation violation;
    violation.kind = ViolationKind::kUnsyncedAccess;
    violation.pid = pid;
    violation.object = object.view();
    violation.step = window_serial_;  // most recent window, for orientation
    violation.detail = describe("outside any granted sync window");
    record(std::move(violation));
    return;
  }
  if (pid != window_pid_) {
    Violation violation;
    violation.kind = ViolationKind::kWrongPid;
    violation.pid = pid;
    violation.object = object.view();
    violation.step = window_serial_;
    std::ostringstream what;
    what << "inside a window granted to p" << window_pid_;
    violation.detail = describe(what.str().c_str());
    window_dirty_ = true;
    record(std::move(violation));
    return;
  }
  if (token_window != window_serial_) {
    Violation violation;
    violation.kind = ViolationKind::kStaleToken;
    violation.pid = pid;
    violation.object = object.view();
    violation.step = window_serial_;
    std::ostringstream what;
    what << "with a token from ";
    if (token_window == AccessToken::kNoWindow) {
      what << "outside any window";
    } else {
      what << "the window at step " << token_window;
    }
    what << " (current window opened at step " << window_serial_ << ")";
    violation.detail = describe(what.str().c_str());
    window_dirty_ = true;
    record(std::move(violation));
    return;
  }
  window_touches_.emplace_back(object, kind);
}

std::string Auditor::summary() const {
  std::ostringstream out;
  out << "audit: " << violation_count_ << " violation(s) across " << windows_
      << " window(s)";
  if (!violations_.empty()) {
    out << "; first: " << violations_.front().to_string();
  }
  return out.str();
}

void Auditor::reset() {
  window_open_ = false;
  window_dirty_ = false;
  window_pid_ = -1;
  window_serial_ = 0;
  window_declared_ = {};
  window_touches_.clear();
  recent_windows_.clear();
  windows_ = 0;
  accesses_ = 0;
  violation_count_ = 0;
  violations_.clear();
}

}  // namespace bss::audit
