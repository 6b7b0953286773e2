// Atomic swap register — consensus number 2, like test&set and fetch&add.
// Rounds out the hierarchy's level-2 row: three different level-2 objects,
// all certified/refuted identically by the checker.
#pragma once

#include <cstdint>
#include <string_view>

#include "registers/footprint.h"
#include "runtime/sim_env.h"

namespace bss::sim {

class SwapRegister {
  BSS_FOOTPRINT(SwapRegister, read, swap);

 public:
  SwapRegister(std::string_view name, std::int64_t initial = 0)
      : name_(name), value_(initial) {}

  /// Atomically writes `next` and returns the previous value.
  std::int64_t swap(Ctx& ctx, std::int64_t next) {
    ctx.sync({name_, "swap", next, 0});
    ctx.access_token().write(name_);
    const std::int64_t prev = value_;
    value_ = next;
    ctx.note_result(prev);
    return prev;
  }

  std::int64_t read(Ctx& ctx) const {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    ctx.note_result(value_);
    return value_;
  }

  std::string_view name() const { return name_.view(); }
  std::int64_t peek() const { return value_; }

 private:
  ObjectName name_;
  std::int64_t value_;
};

}  // namespace bss::sim
