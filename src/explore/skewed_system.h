// A deliberately skewed exploration workload: one long writer and several
// short writers hammering ONE shared multi-writer register.  Every pair of
// operations conflicts (same object, all writes), so sleep-set POR prunes
// nothing and the DFS branches fully at every node — but the long writer's
// subtrees are far deeper than the short writers', so any split fixed up
// front produces wildly unequal pieces.  This is the stress shape the
// work-stealing engine exists for, and the workload the steal and fastpath
// tests and bench_explore's skewed campaign run.
#pragma once

#include <memory>
#include <string>

#include "explore/system.h"

namespace bss::explore {

/// `long_writes` operations by process 0 and `short_writes` by each of the
/// other `n - 1` processes, all on one MwmrRegister.  The property checks
/// that every process finished cleanly and the register holds some
/// process's final value — trivially true, so exploration is violation-free
/// and every schedule counts (the jobs-invariance tests compare exact
/// schedule totals across worker counts).
class SkewedWriterSystem final : public ExplorableSystem {
 public:
  SkewedWriterSystem(int n, int long_writes, int short_writes);

  std::string name() const override;
  int process_count() const override { return n_; }
  std::unique_ptr<SystemInstance> make() const override;

 private:
  int n_;
  int long_writes_;
  int short_writes_;
};

}  // namespace bss::explore
