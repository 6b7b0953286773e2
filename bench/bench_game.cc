// T2 — the move/jump game versus Lemma 1.1's m^k bound.
//
// For tiny instances the exhaustive solver gives the exact maximum number of
// moves; for larger ones the greedy and random strategies give achieved
// lower bounds.  Shape: the exact maximum never exceeds m^k, grows quickly
// with k, and the bound is loose for small instances (the Lemma needs only
// an upper bound; its role in the paper is to cap UpdateC&S's walk).
#include <cstdio>

#include "bench_flags.h"
#include "bench_report.h"
#include "game/exhaustive.h"
#include "game/game.h"
#include "game/potential.h"
#include "game/strategy.h"

namespace {

using bss::game::ExhaustiveResult;
using bss::game::GreedyDescentStrategy;
using bss::game::MoveJumpGame;
using bss::game::PlayResult;
using bss::game::RandomStrategy;

std::uint64_t best_random(int k, int m, int trials) {
  std::uint64_t best = 0;
  for (int trial = 0; trial < trials; ++trial) {
    MoveJumpGame game(k, m);
    RandomStrategy strategy(static_cast<std::uint64_t>(trial), 0.55);
    const PlayResult result = play(game, strategy);
    if (result.moves > best) best = result.moves;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bss::bench::BenchFlags flags =
      bss::bench::parse_flags(argc, argv, /*accepts_jobs=*/false);
  bss::bench::BenchReport report(flags, "bench_game");
  std::printf("T2a — exact maxima (exhaustive) vs the m^k bound\n");
  std::printf("%3s %3s %10s %12s %14s\n", "k", "m", "exact-max", "bound=m^k",
              "states");
  struct Instance {
    int k;
    int m;
  };
  const Instance small[] = {{2, 2}, {2, 3}, {2, 4}, {3, 2}, {3, 3}, {4, 2}};
  for (const auto& instance : small) {
    MoveJumpGame game(instance.k, instance.m);
    const ExhaustiveResult result = bss::game::solve_exhaustive(game);
    std::printf("%3d %3d %10llu %12llu %14llu\n", instance.k, instance.m,
                static_cast<unsigned long long>(result.max_moves),
                static_cast<unsigned long long>(game.bound()),
                static_cast<unsigned long long>(result.states_explored));
    bss::obs::json::Object object;
    object.emplace("kind", "exact");
    object.emplace("k", instance.k);
    object.emplace("m", instance.m);
    object.emplace("exact_max", result.max_moves);
    object.emplace("bound", game.bound());
    object.emplace("states_explored", result.states_explored);
    report.row(std::move(object));
  }

  std::printf("\nT2b — achieved lower bounds (strategies) vs m^k, larger instances\n");
  std::printf("%3s %3s %10s %10s %12s\n", "k", "m", "greedy", "random*",
              "bound=m^k");
  const Instance large[] = {{4, 3}, {5, 2}, {5, 3}, {6, 2}, {6, 4}, {7, 3}};
  for (const auto& instance : large) {
    MoveJumpGame greedy_game(instance.k, instance.m);
    GreedyDescentStrategy greedy;
    const PlayResult greedy_result = play(greedy_game, greedy);
    const std::uint64_t random_best =
        best_random(instance.k, instance.m, 40);
    std::printf("%3d %3d %10llu %10llu %12llu\n", instance.k, instance.m,
                static_cast<unsigned long long>(greedy_result.moves),
                static_cast<unsigned long long>(random_best),
                static_cast<unsigned long long>(greedy_game.bound()));
    bss::obs::json::Object object;
    object.emplace("kind", "strategy");
    object.emplace("k", instance.k);
    object.emplace("m", instance.m);
    object.emplace("greedy", greedy_result.moves);
    object.emplace("random_best", random_best);
    object.emplace("bound", greedy_game.bound());
    report.row(std::move(object));
  }

  std::printf("\nT2c — the potential argument on a played game (k=4, m=3)\n");
  MoveJumpGame game(4, 3);
  RandomStrategy strategy(7);
  play(game, strategy);
  const auto replay = bss::game::analyze_potential(game);
  std::printf("phi_start=%llu (<= bound %llu), moves=%llu, every move "
              "descended=%s, min drop per move >= 1: %s\n",
              static_cast<unsigned long long>(replay.phi_start),
              static_cast<unsigned long long>(replay.bound),
              static_cast<unsigned long long>(game.move_count()),
              replay.all_moves_descend ? "yes" : "NO",
              [&] {
                for (const auto drop : replay.move_drops) {
                  if (drop < 1) return "NO";
                }
                return "yes";
              }());
  bool all_drops_positive = true;
  for (const auto drop : replay.move_drops) {
    if (drop < 1) all_drops_positive = false;
  }
  bss::obs::json::Object object;
  object.emplace("kind", "potential");
  object.emplace("k", 4);
  object.emplace("m", 3);
  object.emplace("phi_start", replay.phi_start);
  object.emplace("bound", replay.bound);
  object.emplace("moves", game.move_count());
  object.emplace("all_moves_descend", replay.all_moves_descend);
  object.emplace("min_drop_ge_1", all_drops_positive);
  report.row(std::move(object));
  std::printf(
      "\nshape: exact maxima and all strategies stay below m^k, and every\n"
      "move pays >= 1 potential — Lemma 1.1 as measured data.\n");
  report.finalize();
  return 0;
}
