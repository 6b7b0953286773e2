// The allocation gate for the explorer's step path.
//
// This executable replaces the global operator new with one that counts its
// calls, so a heap allocation that creeps back onto the step path fails a
// test instead of showing up later as lost throughput:
//
//  - After warm-up, granting a step on a SimEnv with record_trace off makes
//    no operator-new call, for every operation kind the registers offer
//    (c&s, MWMR, SWMR, LL/SC including a spurious SC failure, and the
//    virtual clock's read and timer).
//  - An object name longer than the small-string buffer costs a step
//    nothing: OpDesc holds interned names, not strings.
//  - A quiet atomic-snapshot scan allocates only its working vectors,
//    whatever the length of its name.
//  - A jobs=1 collect-all exploration of OneShotSystem(5,3) under each
//    mutant (the mutant-refutation workload's member) stays under a stated
//    per-schedule bound, which the test prints next to its measurement.
//
// Fiber stacks are mmap'ed from a per-thread pool, not operator new, so
// they are outside what this gate sees; tests/test_runtime_incremental.cc
// pins their reuse (fiber_stack_stats).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <type_traits>

#include "core/mutant_elections.h"
#include "explore/election_systems.h"
#include "explore/explore.h"
#include "registers/cas_register_k.h"
#include "registers/ll_sc.h"
#include "registers/mwmr_register.h"
#include "registers/snapshot.h"
#include "registers/swmr_register.h"
#include "runtime/sim_env.h"
#include "util/checked.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  return p;
}

void* counted_new(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable allocation function, so nothing bypasses the count;
// every deallocation function frees, since all of them came from malloc or
// posix_memalign.
void* operator new(std::size_t size) {
  return counted_new(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_new(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_new(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bss::sim {
namespace {

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

constexpr int kWarmup = 16;
constexpr int kMeasured = 240;

/// Starts `processes` copies of `body` on a record_trace=false SimEnv,
/// grants every process `kWarmup` steps, and returns the operator-new
/// calls made by the next `kMeasured` rounds of grants.  Bodies loop
/// forever; finish() unwinds them.
std::uint64_t news_while_granting(int processes,
                                  const std::function<void(Ctx&)>& body) {
  SimEnv env({.record_trace = false});
  for (int pid = 0; pid < processes; ++pid) env.add_process(body);
  env.start();
  const auto round = [&] {
    for (int pid = 0; pid < processes; ++pid) env.apply(pid);
  };
  for (int i = 0; i < kWarmup; ++i) round();
  const std::uint64_t before = news();
  for (int i = 0; i < kMeasured; ++i) round();
  const std::uint64_t made = news() - before;
  env.finish();
  return made;
}

// The zero counts below are only worth something if the counter is live:
// a sanitizer runtime that kept its own operator new would leave it at 0.
// (A direct call, unlike a new-expression, is never elided.)
TEST(AllocGate, CounterSeesAnAllocation) {
  const std::uint64_t before = news();
  void* p = ::operator new(sizeof(std::uint64_t));
  EXPECT_EQ(news() - before, 1u);
  ::operator delete(p);
}

TEST(AllocGate, PassingExpectsAllocatesNothing) {
  const std::string owned = "a message longer than the small-string buffer";
  const std::uint64_t before = news();
  expects(!owned.empty(), "a literal longer than the small-string buffer");
  expects(!owned.empty(), owned);
  expects(!owned.empty(), [&] { return owned + ", formatted on failure"; });
  EXPECT_EQ(news() - before, 0u);
}

TEST(AllocGate, CasReadAndCasStepsAllocateNothing) {
  CasRegisterK cas("cas", 4);
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (;;) (void)cas.read(ctx);
            }),
            0u)
      << "c&s read";
  // A c&s that changes the value appends to the register's history, a
  // vector that grows with the run; these two leave the value at ⊥ (the
  // first matches and writes ⊥ back, the second fails), so every
  // allocation counted would be the step path's own.
  EXPECT_EQ(news_while_granting(2,
                                [&](Ctx& ctx) {
                                  for (;;) {
                                    (void)cas.compare_and_swap(ctx, 0, 0);
                                    (void)cas.compare_and_swap(ctx, 1, 2);
                                  }
                                }),
            0u)
      << "c&s cas";
}

TEST(AllocGate, MwmrReadAndWriteStepsAllocateNothing) {
  MwmrRegister<int> reg("mwmr", 0);
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (;;) (void)reg.read(ctx);
            }),
            0u)
      << "MWMR read";
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (int v = 0;; ++v) reg.write(ctx, v);
            }),
            0u)
      << "MWMR write";
}

TEST(AllocGate, SwmrReadAndWriteStepsAllocateNothing) {
  SwmrRegister<int> reg("swmr", SwmrRegister<int>::kAnyWriter, 0);
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (;;) (void)reg.read(ctx);
            }),
            0u)
      << "SWMR read";
  EXPECT_EQ(news_while_granting(1, [&](Ctx& ctx) {
              for (int v = 0;; ++v) reg.write(ctx, v);
            }),
            0u)
      << "SWMR write";
}

TEST(AllocGate, LlScStepsAllocateNothing) {
  LlScRegisterK reg("llsc", 3);
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (;;) (void)reg.load_link(ctx);
            }),
            0u)
      << "ll";
  const auto ll_then_sc = [&](Ctx& ctx) {
    for (int v = 0;; v = (v + 1) % 3) {
      (void)reg.load_link(ctx);
      (void)reg.store_conditional(ctx, v);
    }
  };
  EXPECT_EQ(news_while_granting(2, ll_then_sc), 0u) << "ll + sc";
}

TEST(AllocGate, SpuriousScFailureStepAllocatesNothing) {
  LlScRegisterK reg("llsc", 3);
  SimEnv env({.record_trace = false});
  env.add_process([&](Ctx& ctx) {
    for (;;) {
      (void)reg.load_link(ctx);
      (void)reg.store_conditional(ctx, 1);
    }
  });
  env.start();
  const int fail_sc = encode_action(ActionKind::kScFailure, 0);
  const auto round = [&] {
    env.apply(0);        // ll
    env.apply(fail_sc);  // sc, failing spuriously
  };
  for (int i = 0; i < kWarmup; ++i) round();
  const std::uint64_t before = news();
  for (int i = 0; i < kMeasured; ++i) round();
  EXPECT_EQ(news() - before, 0u);
  env.finish();
  EXPECT_EQ(reg.peek(), 0) << "every SC failed";
}

// A grant copies the pending OpDesc into its trace event, and a parked
// process holds one across the unwind that abandons it: both must be plain
// bytes.
static_assert(std::is_trivially_copyable_v<OpDesc>);
static_assert(std::is_trivially_copyable_v<decltype(TraceEvent::desc)>);

TEST(AllocGate, LongObjectNameStepsAllocateNothing) {
  // Forty characters, well past the 15-character small-string buffer: held
  // as a string, the name would be copied to the heap by every sync and by
  // every grant's trace event.
  const std::string name = "a-register-whose-name-outgrows-the-sso-buf";
  ASSERT_GT(name.size(), std::string().capacity());
  MwmrRegister<int> reg(name, 0);
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (;;) (void)reg.read(ctx);
            }),
            0u)
      << "read of a long-named register";
  EXPECT_EQ(news_while_granting(2, [&](Ctx& ctx) {
              for (int v = 0;; ++v) reg.write(ctx, v);
            }),
            0u)
      << "write of a long-named register";
}

TEST(AllocGate, ClockReadAndTimerStepsAllocateNothing) {
  EXPECT_EQ(news_while_granting(2, [](Ctx& ctx) {
              for (;;) (void)ctx.now();
            }),
            0u)
      << "@clock read";
  EXPECT_EQ(news_while_granting(2, [](Ctx& ctx) {
              for (std::uint64_t t = 1;; ++t) (void)ctx.sleep_until(t);
            }),
            0u)
      << "sleep_until";
}

/// Operator-new calls per quiet scan of a `components`-cell snapshot, over
/// whole scans after a warm-up scan.  A lone scanner sees two identical
/// collects, so each scan is exactly 2 * components reads.
std::uint64_t news_per_quiet_scan(const std::string& name, int components) {
  AtomicSnapshot snap(name, components);
  SimEnv env({.record_trace = false});
  env.add_process([&](Ctx& ctx) {
    for (;;) (void)snap.scan(ctx);
  });
  env.start();
  const int reads = 2 * components;
  constexpr int kScans = 32;
  for (int i = 0; i < reads; ++i) env.apply(0);
  const std::uint64_t before = news();
  for (int i = 0; i < kScans * reads; ++i) env.apply(0);
  const std::uint64_t made = news() - before;
  env.finish();
  EXPECT_EQ(made % kScans, 0u) << "every scan allocates alike";
  return made / kScans;
}

TEST(AllocGate, SnapshotScanAllocatesOnlyItsVectors) {
  // The scan's own working vectors: the moved bits, two collects and the
  // returned view.  Cell names are built once, in the constructor.
  constexpr std::uint64_t kScanVectors = 4;
  EXPECT_EQ(news_per_quiet_scan("s", 3), kScanVectors);
  // "snapshot-long-name[i]" does not fit the small-string buffer; its cells
  // are interned once, in the constructor, so the reads copy handles only.
  EXPECT_EQ(news_per_quiet_scan("snapshot-long-name", 3), kScanVectors);
}

// ------------------------------------------- per-schedule exploration bound

/// The mutant-refutation workload's options: naive DFS, collect every
/// violation, no ddmin.
explore::ExploreOptions mutant_refutation_options() {
  explore::ExploreOptions options;
  options.jobs = 1;
  options.use_por = false;
  options.stop_at_first_violation = false;
  options.max_violations = std::size_t{1} << 30;
  options.minimize = false;
  return options;
}

/// Operator-new calls per explored schedule, covering everything explore()
/// does: instantiating the system, launching its processes, the steps, the
/// checks, and every counterexample kept in the result.  The counts are
/// deterministic: 24.4 (claim-after-cas) and 23.6 (split-cas) when this
/// bound was set, against 98.5 and 101.3 when every passing `expects`
/// built its message.  One allocation per step more (a schedule is about
/// ten steps) breaks the bound.
constexpr double kMaxNewsPerSchedule = 32.0;

void expect_schedule_bound(core::OneShotMutant mutant) {
  const explore::ExploreOptions options = mutant_refutation_options();
  // Warm-up: one-time allocations (the fiber-stack free list, lazily
  // built statics) happen in a 20-schedule campaign, not the measured one.
  (void)explore::explore(explore::OneShotSystem(3, 2, mutant), options);
  const explore::OneShotSystem system(5, 3, mutant);
  const std::uint64_t before = news();
  const explore::ExploreResult result = explore::explore(system, options);
  const std::uint64_t made = news() - before;
  ASSERT_GT(result.stats.schedules, 0u);
  ASSERT_FALSE(result.violations.empty());
  const double per_schedule =
      static_cast<double>(made) / static_cast<double>(result.stats.schedules);
  std::printf("[ alloc    ] %s: %.1f operator-new calls per schedule "
              "(bound %.1f) over %llu schedules\n",
              system.name().c_str(), per_schedule, kMaxNewsPerSchedule,
              static_cast<unsigned long long>(result.stats.schedules));
  ::testing::Test::RecordProperty("news_per_schedule",
                                  std::to_string(per_schedule));
  EXPECT_LE(per_schedule, kMaxNewsPerSchedule) << system.name();
}

TEST(AllocGate, MutantRefutationClaimAfterCasStaysUnderScheduleBound) {
  expect_schedule_bound(core::OneShotMutant::kClaimAfterCas);
}

TEST(AllocGate, MutantRefutationSplitCasStaysUnderScheduleBound) {
  expect_schedule_bound(core::OneShotMutant::kSplitCas);
}

}  // namespace
}  // namespace bss::sim
