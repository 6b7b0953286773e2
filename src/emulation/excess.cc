#include "emulation/excess.h"

#include <algorithm>
#include <limits>
#include <set>

#include "util/checked.h"

namespace bss::emu {

ExcessGraph::ExcessGraph(int k)
    : k_(k), weights_(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                      0) {
  expects(k >= 2, "excess graph needs k >= 2");
}

std::int64_t ExcessGraph::weight(int from, int to) const {
  return weights_[static_cast<std::size_t>(from * k_ + to)];
}

void ExcessGraph::set_weight(int from, int to, std::int64_t weight) {
  weights_[static_cast<std::size_t>(from * k_ + to)] = weight;
}

void ExcessGraph::add_weight(int from, int to, std::int64_t delta) {
  weights_[static_cast<std::size_t>(from * k_ + to)] += delta;
}

std::optional<std::vector<int>> path_with_min_weight(const ExcessGraph& graph,
                                                     int from, int to,
                                                     std::int64_t min_weight) {
  const int k = graph.k();
  if (from == to) return std::vector<int>{from};
  std::vector<int> parent(static_cast<std::size_t>(k), -2);
  parent[static_cast<std::size_t>(from)] = -1;
  std::vector<int> frontier{from};
  while (!frontier.empty()) {
    std::vector<int> next_frontier;
    for (const int node : frontier) {
      for (int next = 0; next < k; ++next) {
        if (next == node || graph.weight(node, next) < min_weight) continue;
        if (parent[static_cast<std::size_t>(next)] != -2) continue;
        parent[static_cast<std::size_t>(next)] = node;
        if (next == to) {
          std::vector<int> path;
          for (int at = to; at != -1; at = parent[static_cast<std::size_t>(at)]) {
            path.push_back(at);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        next_frontier.push_back(next);
      }
    }
    frontier = std::move(next_frontier);
  }
  return std::nullopt;
}

std::optional<CyclePaths> best_cycle(const ExcessGraph& graph, int a, int x) {
  if (a == x) {
    CyclePaths trivial;
    trivial.width = std::numeric_limits<std::int64_t>::max();
    trivial.a_to_x = {a};
    trivial.x_to_a = {a};
    return trivial;
  }
  // Candidate widths: the distinct positive edge weights, tried widest
  // first (k is tiny, so this is cheap and obviously correct).
  std::set<std::int64_t, std::greater<>> widths;
  for (int from = 0; from < graph.k(); ++from) {
    for (int to = 0; to < graph.k(); ++to) {
      if (from != to && graph.weight(from, to) > 0) {
        widths.insert(graph.weight(from, to));
      }
    }
  }
  for (const std::int64_t width : widths) {
    const auto forward = path_with_min_weight(graph, a, x, width);
    if (!forward.has_value()) continue;
    const auto backward = path_with_min_weight(graph, x, a, width);
    if (!backward.has_value()) continue;
    CyclePaths cycle;
    cycle.width = width;
    cycle.a_to_x = *forward;
    cycle.x_to_a = *backward;
    return cycle;
  }
  return std::nullopt;
}

}  // namespace bss::emu
