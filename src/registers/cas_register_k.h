// compare&swap-(k): the paper's object of study.
//
// A compare&swap register whose value domain is Σ = {⊥, 0, 1, …, k-2},
// represented here as the integers {0, 1, …, k-1} with 0 playing ⊥.  The
// operation is exactly the paper's definition:
//
//   c&s(a -> b)(r):  prev := r;  if prev = a then r := b;  return prev
//
// An operation *succeeds* if it changes the register's value.  The register
// enforces its value domain at runtime — feeding it a symbol outside Σ is an
// invariant violation, which is how "bounded size" is made a hard constraint
// rather than a convention.  The register also records its transition
// history (the sequence of successful operations), which is the "history" /
// "label" backbone of Section 3; validators use it to check that election
// runs never reuse a symbol.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "runtime/sim_env.h"

namespace bss::sim {

class CasRegisterK {
 public:
  /// The initial symbol ⊥.
  static constexpr int kBottom = 0;

  struct Transition {
    int pid = -1;
    int from = 0;
    int to = 0;
  };

  /// Constructs a register holding `k` distinct values (k >= 2).
  CasRegisterK(std::string_view name, int k);

  /// The paper's c&s(expect -> next); returns the previous value.
  int compare_and_swap(Ctx& ctx, int expect, int next);

  /// Plain read, provided for convenience (equivalent to a c&s(x -> x) for
  /// any x; counts as one access to the object).
  int read(Ctx& ctx) const;

  int k() const { return k_; }
  std::string_view name() const { return name_.view(); }

  // --- checker access (no simulation step) ---
  int peek() const { return value_; }
  /// All successful operations, in order: the object's value history.
  const std::vector<Transition>& history() const { return history_; }
  /// Total accesses (successful or not) performed by `pid`.
  std::uint64_t accesses_by(int pid) const;
  std::uint64_t total_accesses() const { return total_accesses_; }

 private:
  void check_symbol(int symbol, const char* what) const;
  void count_access(int pid) const;

  ObjectName name_;
  int k_;
  int value_ = kBottom;
  std::vector<Transition> history_;
  mutable std::vector<std::uint64_t> accesses_;  // grown on demand, by pid
  mutable std::uint64_t total_accesses_ = 0;
};

}  // namespace bss::sim
