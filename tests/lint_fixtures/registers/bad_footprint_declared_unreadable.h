// Fixture: a sync op the rule cannot read.  The op names come from a
// constant and from a prebuilt descriptor instead of string literals at the
// sync site, so the declared set cannot be checked against them; each such
// sync must be a finding, not a silent pass.
#pragma once

#include <string>

#define BSS_FOOTPRINT(...) static_assert(true, "fixture annotation")

namespace fixture {

struct Ctx;     // stand-in for bss::sim::Ctx
struct OpDesc;  // stand-in for bss::sim::OpDesc

class OpaqueRegister {
  BSS_FOOTPRINT(OpaqueRegister, read, write);

 public:
  int read(Ctx& ctx) const {
    ctx.sync({name_, kReadOp, 0, 0});
    ctx.access_token().read(name_);
    return value_;
  }

  void write(Ctx& ctx, const OpDesc& desc, int value) {
    ctx.sync(desc);
    ctx.access_token().write(name_);
    value_ = value;
  }

 private:
  static constexpr const char* kReadOp = "read";
  std::string name_;
  int value_ = 0;
};

}  // namespace fixture
