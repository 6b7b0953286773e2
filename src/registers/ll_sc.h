// Load-link / store-conditional — the other top-of-hierarchy object the paper
// names ("compare&swap, or load-link-store-conditional").  Bounded to k
// values like CasRegisterK.  By default this is the idealized LL/SC (SC
// fails iff some other store-conditional succeeded since this process's
// load-link); a FaultPlan (fail_sc) or SimEnv::inject_sc_failure relaxes it
// to the hardware-faithful variant where an individual SC may also fail
// *spuriously* — reported as failure although nothing intervened and the
// link stays intact.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "registers/footprint.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace bss::sim {

class LlScRegisterK {
  BSS_FOOTPRINT(LlScRegisterK, ll, sc);

 public:
  LlScRegisterK(std::string_view name, int k, int initial = 0)
      : name_(name), k_(k), value_(initial) {
    expects(k >= 1, "LL/SC register needs at least one value");
    expects(initial >= 0 && initial < k, "LL/SC initial value outside domain");
  }

  /// load-link: reads the value and links this process to the current
  /// version.
  int load_link(Ctx& ctx) {
    ctx.sync({name_, "ll", 0, 0});
    // An LL mutates the object's hidden link state, so it is a write for
    // commutation purposes — exactly how ops_commute treats it.
    ctx.access_token().write(name_);
    link(ctx.pid()) = version_;
    ctx.note_result(value_);
    return value_;
  }

  /// store-conditional: writes iff no successful SC intervened since this
  /// process's last LL — unless the engine marked this SC as a spurious
  /// failure, in which case it fails with the link left intact (a retry
  /// after a fresh LL may succeed).  Returns true on success.
  bool store_conditional(Ctx& ctx, int next) {
    expects(next >= 0 && next < k_, "LL/SC store outside value domain");
    ctx.sync({name_, "sc", next, 0});
    ctx.access_token().write(name_);
    const bool spurious = ctx.take_sc_failure();
    const bool ok = !spurious && link(ctx.pid()) == version_;
    if (ok) {
      value_ = next;
      ++version_;
    }
    ctx.note_result(ok ? 1 : 0);
    return ok;
  }

  int k() const { return k_; }
  std::string_view name() const { return name_.view(); }
  int peek() const { return value_; }

 private:
  std::uint64_t& link(int pid) {
    const auto index = static_cast<std::size_t>(pid);
    if (links_.size() <= index) links_.resize(index + 1, kNeverLinked);
    return links_[index];
  }

  static constexpr std::uint64_t kNeverLinked = ~std::uint64_t{0};

  ObjectName name_;
  int k_;
  int value_;
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> links_;
};

}  // namespace bss::sim
