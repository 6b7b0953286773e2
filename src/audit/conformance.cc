#include "audit/conformance.h"

#include <algorithm>
#include <sstream>

namespace bss::audit {

namespace {

std::string window_label(const WindowFootprint& window) {
  std::ostringstream out;
  out << "p" << window.pid << " " << window.declared.object << "."
      << window.declared.op << "@" << window.step;
  return out.str();
}

}  // namespace

std::vector<Violation> check_footprint(const WindowFootprint& window) {
  std::vector<Violation> found;
  // No stamps at all: the object is not instrumented (emulated objects
  // drive sync() directly); nothing to conform against.
  if (window.touched.empty()) return found;

  bool declared_touched = false;
  bool declared_written = false;
  std::vector<sim::ObjectName> undeclared;  // distinct, first-touch order
  for (const auto& [object, kind] : window.touched) {
    if (object == window.declared.object) {
      declared_touched = true;
      if (kind == AccessKind::kWrite) declared_written = true;
      continue;
    }
    if (std::find(undeclared.begin(), undeclared.end(), object) ==
        undeclared.end()) {
      undeclared.push_back(object);
    }
  }

  for (const sim::ObjectName object : undeclared) {
    Violation violation;
    violation.kind = ViolationKind::kUndeclaredTouch;
    violation.pid = window.pid;
    violation.object = object.view();
    violation.step = window.step;
    violation.detail = window_label(window) + " touched undeclared object '" +
                       violation.object +
                       "' (sleep-set soundness depends on declared "
                       "footprints)";
    found.push_back(std::move(violation));
  }
  if (window.declared.op == sim::OpName("read") && declared_written) {
    Violation violation;
    violation.kind = ViolationKind::kWriteInReadOp;
    violation.pid = window.pid;
    violation.object = window.declared.object.view();
    violation.step = window.step;
    violation.detail = window_label(window) +
                       " declared a read but wrote '" + violation.object +
                       "' (read/read commutation no longer holds)";
    found.push_back(std::move(violation));
  }
  if (!declared_touched && !window.aborted) {
    Violation violation;
    violation.kind = ViolationKind::kPhantomDeclaration;
    violation.pid = window.pid;
    violation.object = window.declared.object.view();
    violation.step = window.step;
    violation.detail = window_label(window) + " never touched declared object '" +
                       violation.object + "' (declaration drift)";
    found.push_back(std::move(violation));
  }
  return found;
}

}  // namespace bss::audit
