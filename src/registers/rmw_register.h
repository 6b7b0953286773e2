// Generic bounded read-modify-write register.
//
// The paper: "we see [compare&swap] as a test case and believe that the
// results can be generalized to an arbitrary read-modify-write register
// type."  RmwRegisterK is that arbitrary type: the caller supplies the
// modification function per operation; the register enforces a k-value
// domain, like CasRegisterK, and keeps the same transition history.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "registers/footprint.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::sim {

class RmwRegisterK {
  BSS_FOOTPRINT(RmwRegisterK, read, rmw);

 public:
  struct Transition {
    int pid = -1;
    int from = 0;
    int to = 0;
  };

  RmwRegisterK(std::string_view name, int k, int initial = 0)
      : name_(name), k_(k), value_(initial) {
    expects(k >= 1, "RMW register needs at least one value");
    expects(initial >= 0 && initial < k, "RMW initial value outside domain");
  }

  /// Atomically replaces the value v with f(v); returns the previous value.
  /// f's result must stay inside the k-value domain.
  int read_modify_write(Ctx& ctx, const std::function<int(int)>& f) {
    ctx.sync({name_, "rmw", 0, 0});
    ctx.access_token().write(name_);
    const int prev = value_;
    const int next = f(prev);
    expects(next >= 0 && next < k_, "RMW modification left the value domain");
    if (next != prev) {
      value_ = next;
      history_.push_back({ctx.pid(), prev, next});
    }
    ctx.note_result(prev);
    return prev;
  }

  int read(Ctx& ctx) const {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    ctx.note_result(value_);
    return value_;
  }

  int k() const { return k_; }
  std::string_view name() const { return name_.view(); }
  int peek() const { return value_; }
  const std::vector<Transition>& history() const { return history_; }

 private:
  ObjectName name_;
  int k_;
  int value_;
  std::vector<Transition> history_;
};

}  // namespace bss::sim
