// A narrated run of the Section 3 reduction at k = 3.
//
// Watch two emulators — armed with only read/write memory — cooperatively
// construct runs of the FirstValueTree election (which uses a
// compare&swap-(3)), split into first-value groups, and come out with a
// 2-set consensus: at most (k-1)! = 2 distinct decisions.  Then watch the
// operational face of Theorem 1: algorithm A simply does not have enough
// process slots to feed (k-1)!+1 = 3 emulators.
#include <cstdio>
#include <exception>
#include <string>

#include "emulation/driver.h"
#include "emulation/reduction_check.h"
#include "util/checked.h"

namespace {

const char* event_name(bss::emu::EmuEventKind kind) {
  switch (kind) {
    case bss::emu::EmuEventKind::kSuspend:
      return "suspend";
    case bss::emu::EmuEventKind::kRelease:
      return "release";
    case bss::emu::EmuEventKind::kInstall:
      return "install";
    case bss::emu::EmuEventKind::kSplit:
      return "split  ";
    case bss::emu::EmuEventKind::kMigrate:
      return "migrate";
  }
  return "?";
}

}  // namespace

int main() try {
  std::printf(
      "Reduction walkthrough (k=3): 2 emulators, 1 v-process each, A = "
      "FirstValueTree\n"
      "=========================================================================\n\n");
  bss::emu::EmuParams params;
  params.k = 3;
  params.m = 2;
  params.vps_per_emulator = 1;
  bss::emu::EmulationDriver driver(params, bss::emu::fvt_vp_factory());
  const bss::emu::EmuStats stats = driver.run();

  std::printf("--- emulator events ---\n");
  for (const auto& event : driver.events()) {
    std::printf("  e%d [%s] %s  %s\n", event.emulator,
                bss::emu::label_string(event.label).c_str(),
                event_name(event.kind), event.detail.c_str());
  }

  std::printf("\n--- virtual operations (the constructed runs) ---\n");
  for (const auto& step : driver.step_log()) {
    std::printf("  vp%d (e%d, label %-8s) %s.%s(%lld,%lld)", step.vp,
                step.emulator, bss::emu::label_string(step.label).c_str(),
                std::string(step.desc.object.view()).c_str(),
                std::string(step.desc.op.view()).c_str(),
                static_cast<long long>(step.desc.arg0),
                static_cast<long long>(step.desc.arg1));
    if (step.has_result) {
      std::printf(" -> %lld", static_cast<long long>(step.result));
    }
    std::printf("\n");
  }

  std::printf("\n--- histories per group ---\n");
  for (const auto& label : driver.forest().active_labels()) {
    std::printf("  t_%-8s h = %s\n", bss::emu::label_string(label).c_str(),
                bss::emu::label_string(
                    driver.forest().compute_history(label))
                    .c_str());
  }

  std::printf("\n--- outcome ---\n");
  for (std::size_t id = 0; id < stats.decisions.size(); ++id) {
    if (stats.decisions[id].has_value()) {
      std::printf("  emulator %zu decided %lld (group %s)\n", id,
                  static_cast<long long>(*stats.decisions[id]),
                  bss::emu::label_string(stats.final_labels[id]).c_str());
    }
  }
  std::printf("  distinct decisions: %d  — the (k-1)! = 2 set-consensus "
              "bound, tight.\n",
              stats.distinct_decisions);
  const auto verdict = bss::emu::verify_reduction(driver, stats);
  std::printf("  run legality (Lemma 1.2 checks): %s%s\n",
              verdict.ok() ? "all pass" : "FAIL: ",
              verdict.ok() ? "" : verdict.diagnosis.c_str());

  std::printf(
      "\n--- and the theorem ---\n"
      "  feeding (k-1)!+1 = 3 emulators needs 3 v-processes, but A has only\n"
      "  (k-1)! = 2 slots: ");
  try {
    bss::emu::EmuParams impossible = params;
    impossible.m = 3;
    bss::emu::EmulationDriver third(impossible, bss::emu::fvt_vp_factory());
    third.run();
    std::printf("UNEXPECTEDLY RAN\n");
    return 1;
  } catch (const bss::InvariantError& error) {
    std::printf("rejected —\n  \"%s\"\n", error.what());
  }
  std::printf(
      "  were an election for more processes to exist, this reduction would\n"
      "  hand (k-1)!+1 read/write processes an impossible (k-1)!-set\n"
      "  consensus.  Hence n_k is bounded: Theorem 1.\n");
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "reduction_walkthrough: error: %s\n", error.what());
  return 2;
}
