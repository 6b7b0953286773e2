// fetch&add register — consensus number 2 in Herlihy's hierarchy.
//
// Included for hierarchy-table completeness and as a ticket dispenser for
// examples; unbounded (no value-domain cap), unlike the paper's bounded
// objects.
#pragma once

#include <cstdint>
#include <string_view>

#include "registers/footprint.h"
#include "runtime/sim_env.h"

namespace bss::sim {

class FetchAdd {
  BSS_FOOTPRINT(FetchAdd, faa, read);

 public:
  FetchAdd(std::string_view name, std::int64_t initial = 0)
      : name_(name), value_(initial) {}

  /// Atomically adds `delta`; returns the previous value.
  std::int64_t fetch_add(Ctx& ctx, std::int64_t delta) {
    ctx.sync({name_, "faa", delta, 0});
    ctx.access_token().write(name_);
    const std::int64_t prev = value_;
    value_ += delta;
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
