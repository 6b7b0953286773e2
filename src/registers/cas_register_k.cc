#include "registers/cas_register_k.h"

#include <string>

#include "registers/footprint.h"
#include "util/checked.h"

namespace bss::sim {

BSS_FOOTPRINT(CasRegisterK, cas, read);

CasRegisterK::CasRegisterK(std::string_view name, int k)
    : name_(name), k_(k) {
  expects(k >= 2, "compare&swap-(k) needs at least two values");
}

void CasRegisterK::check_symbol(int symbol, const char* what) const {
  // Runs twice per c&s: the message is formatted only once the check fails.
  expects(symbol >= 0 && symbol < k_, [&] {
    return std::string("compare&swap-(") + std::to_string(k_) + "): " + what +
           " symbol " + std::to_string(symbol) + " outside value domain";
  });
}

void CasRegisterK::count_access(int pid) const {
  if (pid >= 0) {
    const auto index = static_cast<std::size_t>(pid);
    if (accesses_.size() <= index) accesses_.resize(index + 1, 0);
    ++accesses_[index];
  }
  ++total_accesses_;
}

int CasRegisterK::compare_and_swap(Ctx& ctx, int expect, int next) {
  check_symbol(expect, "expected");
  check_symbol(next, "new");
  ctx.sync({name_, "cas", expect, next});
  ctx.access_token().write(name_);
  count_access(ctx.pid());
  const int prev = value_;
  if (prev == expect && next != prev) {
    value_ = next;
    history_.push_back({ctx.pid(), prev, next});
  }
  ctx.note_result(prev);
  return prev;
}

int CasRegisterK::read(Ctx& ctx) const {
  ctx.sync({name_, "read", 0, 0});
  ctx.access_token().read(name_);
  count_access(ctx.pid());
  ctx.note_result(value_);
  return value_;
}

std::uint64_t CasRegisterK::accesses_by(int pid) const {
  const auto index = static_cast<std::size_t>(pid);
  return index < accesses_.size() ? accesses_[index] : 0;
}

}  // namespace bss::sim
