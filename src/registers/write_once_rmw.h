// Write-once k-valued read-modify-write register — the Burns-Cruz-Loui model
// [5].  Their two assumptions, enforced here at runtime:
//   (1) each register may be *written* (changed) at most once;
//   (2) systems in this model contain only such registers, no R/W registers
//       (enforced by src/burns, which builds systems exclusively from these).
// Under those assumptions a k-valued register elects a leader among at most
// k-1 processes, and several registers compose multiplicatively — the
// baseline the paper contrasts with its own (k-1)! algorithm to conclude
// that adding read/write registers increases the power of a bounded object.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "registers/footprint.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::sim {

class WriteOnceRmwK {
  BSS_FOOTPRINT(WriteOnceRmwK, rmw1);

 public:
  WriteOnceRmwK(std::string_view name, int k, int initial = 0)
      : name_(name), k_(k), value_(initial) {
    expects(k >= 1, "write-once RMW needs at least one value");
    expects(initial >= 0 && initial < k, "initial value outside domain");
  }

  /// Atomically applies f; if f changes the value, this must be the first
  /// change ever (write-once), otherwise an invariant violation is raised.
  /// Identity applications (reads in RMW form) are always allowed.
  int read_modify_write(Ctx& ctx, const std::function<int(int)>& f) {
    ctx.sync({name_, "rmw1", 0, 0});
    ctx.access_token().write(name_);
    const int prev = value_;
    const int next = f(prev);
    expects(next >= 0 && next < k_, "RMW modification left the value domain");
    if (next != prev) {
      expects(!written_, "write-once RMW register changed twice");
      written_ = true;
      value_ = next;
      writer_ = ctx.pid();
    }
    ctx.note_result(prev);
    return prev;
  }

  int k() const { return k_; }
  std::string_view name() const { return name_.view(); }
  int peek() const { return value_; }
  bool written() const { return written_; }
  int writer() const { return writer_; }

 private:
  ObjectName name_;
  int k_;
  int value_;
  bool written_ = false;
  int writer_ = -1;
};

}  // namespace bss::sim
