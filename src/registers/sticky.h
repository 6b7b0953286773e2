// Plotkin's sticky bit / sticky register [20] — the classic universal
// write-once object.  A sticky register accepts the first value proposed to
// it and rejects (but reveals the winner on) every later proposal; it is a
// one-shot consensus object for any number of processes.
#pragma once

#include <cstdint>
#include <string_view>

#include "registers/footprint.h"
#include "runtime/sim_env.h"

namespace bss::sim {

class StickyRegister {
  BSS_FOOTPRINT(StickyRegister, propose, read);

 public:
  static constexpr std::int64_t kUnset = -1;

  explicit StickyRegister(std::string_view name) : name_(name) {}

  /// Proposes `value` (must be >= 0).  Returns the value the register stuck
  /// at — `value` itself iff this proposal won.
  std::int64_t propose(Ctx& ctx, std::int64_t value) {
    ctx.sync({name_, "propose", value, 0});
    ctx.access_token().write(name_);
    if (value_ == kUnset) value_ = value;
    ctx.note_result(value_);
    return value_;
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
  std::int64_t value_ = kUnset;
};

}  // namespace bss::sim
