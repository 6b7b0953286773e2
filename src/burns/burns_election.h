// The Burns-Cruz-Loui comparison model [5] (experiment T4).
//
// Model restrictions, both enforced at runtime: (1) every register is a
// k-valued read-modify-write register that may be CHANGED at most once
// (write-once); (2) the system contains ONLY such registers — no read/write
// helpers (these election routines receive nothing else).  Validity is the
// fail-stop closed-group kind used by Burns et al.: the elected leader is
// one of the n designated processes (not necessarily one that took a step) —
// weaker than the paper's LE validity, which is exactly why the model's
// capacity collapses from (k-1)! to k-1.
//
//   * one k-valued register elects among n <= k-1 processes (tight: the
//     checker refutes the natural n = k protocol, matching their bound);
//   * r registers of sizes k_1..k_r elect among prod (k_i - 1) processes —
//     the multiplicative composition (Burns et al. state the upper bound as
//     the product of the sizes; the algorithm achieves the product of the
//     usable-symbol counts, one symbol per register being the initial ⊥).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "checker/protocol.h"
#include "registers/write_once_rmw.h"
#include "runtime/fault_plan.h"
#include "runtime/scheduler.h"
#include "runtime/sim_env.h"

namespace bss::burns {

/// Single-register election: pid in [0, k-1) claims symbol pid+1 with one
/// RMW; the register's settled value names the leader.  Exactly one shared
/// operation per process.
int single_register_elect(sim::WriteOnceRmwK& reg, sim::Ctx& ctx, int pid);

struct SingleReport {
  sim::RunReport run;
  std::vector<std::optional<int>> elected;  // leader pid, by process
  bool consistent = true;
};

SingleReport run_single_register_election(int k, int n,
                                          sim::Scheduler& scheduler,
                                          const sim::FaultPlan& crashes = {});

/// Multi-register election over registers of sizes `sizes`: capacity
/// prod(sizes[i] - 1).  Process identity = mixed-radix digits, one digit per
/// register; every process performs exactly one RMW per register.
struct MultiState {
  explicit MultiState(const std::vector<int>& sizes);
  std::vector<sim::WriteOnceRmwK> regs;
  std::uint64_t capacity() const;
};

std::uint64_t multi_register_elect(MultiState& state, sim::Ctx& ctx,
                                   std::uint64_t pid);

struct MultiReport {
  sim::RunReport run;
  std::vector<std::optional<std::uint64_t>> elected;
  bool consistent = true;
};

MultiReport run_multi_register_election(const std::vector<int>& sizes, int n,
                                        sim::Scheduler& scheduler,
                                        const sim::FaultPlan& crashes = {});

/// Checker protocol for the single-register model, with n possibly past the
/// k-1 capacity (symbols then collide: pid % (k-1) + 1).  The checker
/// certifies n <= k-1 and refutes n = k — the measured form of the Burns
/// bound.
class BurnsProtocol final : public check::Protocol {
 public:
  BurnsProtocol(int n, int k);
  std::string name() const override;
  int process_count() const override { return n_; }
  int shared_words() const override { return 1; }
  int local_words() const override { return 3; }
  std::vector<int> initial_shared() const override { return {0}; }
  std::vector<int> initial_locals(int pid, int input) const override;
  std::optional<int> step(int pid, std::span<int> shared,
                          std::span<int> locals) const override;

 private:
  int n_;
  int k_;
};

}  // namespace bss::burns
