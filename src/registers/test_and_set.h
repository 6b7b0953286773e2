// Single-bit test&set — consensus number exactly 2.
//
// The paper's introduction: with test&set, 2 processes can elect a leader and
// solve consensus, 3 can do neither [10,13,18].  Both facts are exercised in
// src/hierarchy and verified exhaustively in src/checker.
#pragma once

#include <string_view>

#include "registers/footprint.h"
#include "runtime/sim_env.h"

namespace bss::sim {

class TestAndSet {
  BSS_FOOTPRINT(TestAndSet, read, tas);

 public:
  explicit TestAndSet(std::string_view name) : name_(name) {}

  /// Atomically sets the bit; returns the *previous* value (false for the
  /// unique winner).
  bool test_and_set(Ctx& ctx) {
    ctx.sync({name_, "tas", 0, 0});
    ctx.access_token().write(name_);
    const bool prev = set_;
    set_ = true;
    ctx.note_result(prev ? 1 : 0);
    return prev;
  }

  bool read(Ctx& ctx) const {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    ctx.note_result(set_ ? 1 : 0);
    return set_;
  }

  std::string_view name() const { return name_.view(); }
  bool peek() const { return set_; }

 private:
  ObjectName name_;
  bool set_ = false;
};

}  // namespace bss::sim
