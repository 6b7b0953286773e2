// Multi-writer multi-reader atomic register.
//
// Constructible from SWMR registers (Peterson-Burns [19], Bloom [3]); the
// simulator provides it directly since every granted operation is atomic.
// Still consensus number 1.
#pragma once

#include <string_view>
#include <utility>

#include "registers/footprint.h"
#include "registers/value.h"
#include "runtime/sim_env.h"

namespace bss::sim {

template <class T>
class MwmrRegister {
  BSS_FOOTPRINT(MwmrRegister, read, write);

 public:
  MwmrRegister(std::string_view name, T initial)
      : name_(name), value_(std::move(initial)) {}

  T read(Ctx& ctx) const {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    ctx.note_result(trace_encode(value_));
    return value_;
  }

  void write(Ctx& ctx, T value) {
    ctx.sync({name_, "write", trace_encode(value), 0});
    ctx.access_token().write(name_);
    value_ = std::move(value);
  }

  std::string_view name() const { return name_.view(); }
  const T& peek() const { return value_; }

 private:
  ObjectName name_;
  T value_;
};

}  // namespace bss::sim
