// Single-writer multi-reader atomic register.
//
// The weakest object in the model: consensus number 1 (FLP/Loui-Abu-Amara),
// and the building block everything else layers on.  The paper assumes
// w.l.o.g. that all of algorithm A's read/write registers are SWMR [3,17,19,
// 22]; we enforce the single-writer discipline at runtime.
#pragma once

#include <string_view>
#include <utility>

#include "registers/footprint.h"
#include "registers/value.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::sim {

template <class T>
class SwmrRegister {
  BSS_FOOTPRINT(SwmrRegister, read, write);

 public:
  /// `writer` is the only pid allowed to write; pass kAnyWriter to defer the
  /// binding to the first write (the writer is then fixed forever).
  static constexpr int kAnyWriter = -1;

  SwmrRegister(std::string_view name, int writer, T initial)
      : name_(name), writer_(writer), value_(std::move(initial)) {}

  T read(Ctx& ctx) const {
    ctx.sync({name_, "read", 0, 0});
    ctx.access_token().read(name_);
    ctx.note_result(trace_encode(value_));
    return value_;
  }

  void write(Ctx& ctx, T value) {
    ctx.sync({name_, "write", trace_encode(value), 0});
    ctx.access_token().write(name_);
    if (writer_ == kAnyWriter) writer_ = ctx.pid();
    expects(writer_ == ctx.pid(), "SWMR register written by a second writer");
    value_ = std::move(value);
  }

  std::string_view name() const { return name_.view(); }
  /// Checker access: current value without taking a simulation step.
  const T& peek() const { return value_; }

 private:
  ObjectName name_;
  int writer_;
  T value_;
};

}  // namespace bss::sim
