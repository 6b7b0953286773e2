// The excess graph (Definition 1) and its cycle machinery.
//
// For a group with history h(l), the excess of edge (a -> b) is
//   w(a->b) = f(a->b) - (p(a->b) - s(a->b))
// where f counts suspended-and-unreleased virtual processes whose next
// operation is c&s(a -> b) (with labels compatible with l), p counts a->b
// transitions in h(l), and s counts successful c&s(a -> b) operations
// already emulated in the run.  Positive excess = suspended processes the
// history has not yet consumed: the budget UpdateC&S spends when it splices
// value reuse into the history, and the currency of Lemma 1.1's game (an
// agent Move = spending an excess edge; a Jump = an emulator relocating its
// attack after another's move).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace bss::emu {

class ExcessGraph {
 public:
  explicit ExcessGraph(int k);

  int k() const { return k_; }
  std::int64_t weight(int from, int to) const;
  void set_weight(int from, int to, std::int64_t weight);
  void add_weight(int from, int to, std::int64_t delta);

 private:
  int k_;
  std::vector<std::int64_t> weights_;  // k*k, row-major
};

/// A cycle through `a` and `x` in the excess graph restricted to edges of
/// weight >= width: the path a ~> x and back.  Paths are full node
/// sequences including both endpoints.
struct CyclePaths {
  std::int64_t width = 0;
  std::vector<int> a_to_x;
  std::vector<int> x_to_a;
};

/// The widest such cycle (maximal minimum edge weight), or nullopt if no
/// positive-width cycle through both nodes exists.  a == x is allowed and
/// yields the trivial cycle of infinite width (paths {a}).
std::optional<CyclePaths> best_cycle(const ExcessGraph& graph, int a, int x);

/// Shortest path from `from` to `to` using edges of weight >= min_weight;
/// nullopt if unreachable.  Full node sequence including endpoints.
std::optional<std::vector<int>> path_with_min_weight(const ExcessGraph& graph,
                                                     int from, int to,
                                                     std::int64_t min_weight);

}  // namespace bss::emu
