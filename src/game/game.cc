#include "game/game.h"

namespace bss::game {

MoveJumpGame::MoveJumpGame(int k, int m, int start)
    : MoveJumpGame(k, m,
                   std::vector<int>(static_cast<std::size_t>(m),
                                    start == -1 ? k - 1 : start)) {}

MoveJumpGame::MoveJumpGame(int k, int m, std::vector<int> positions)
    : k_(k),
      m_(m),
      positions_(std::move(positions)),
      painted_(static_cast<std::size_t>(k),
               std::vector<bool>(static_cast<std::size_t>(k), false)),
      jump_enabled_(static_cast<std::size_t>(m),
                    std::vector<bool>(static_cast<std::size_t>(k), false)) {
  expects(k >= 2, "game needs at least 2 nodes");
  expects(m >= 1, "game needs at least 1 agent");
  expects(positions_.size() == static_cast<std::size_t>(m),
          "one starting node per agent");
  for (const int node : positions_) {
    expects(node >= 0 && node < k, "starting node out of range");
  }
}

std::uint64_t MoveJumpGame::bound() const {
  std::uint64_t value = 1;
  for (int i = 0; i < k_; ++i) {
    expects(value <= ~std::uint64_t{0} / static_cast<std::uint64_t>(m_),
            "m^k overflows uint64 for this instance");
    value *= static_cast<std::uint64_t>(m_);
  }
  return value;
}

int MoveJumpGame::position(int agent) const {
  expects(agent >= 0 && agent < m_, "agent out of range");
  return positions_[static_cast<std::size_t>(agent)];
}

bool MoveJumpGame::edge_painted(int from, int to) const {
  return painted_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)];
}

bool MoveJumpGame::reachable(int from, int to) const {
  if (from == to) return true;
  std::vector<bool> seen(static_cast<std::size_t>(k_), false);
  std::vector<int> stack{from};
  seen[static_cast<std::size_t>(from)] = true;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    for (int next = 0; next < k_; ++next) {
      if (!painted_[static_cast<std::size_t>(node)][static_cast<std::size_t>(next)] ||
          seen[static_cast<std::size_t>(next)]) {
        continue;
      }
      if (next == to) return true;
      seen[static_cast<std::size_t>(next)] = true;
      stack.push_back(next);
    }
  }
  return false;
}

bool MoveJumpGame::can_move(int agent, int to) const {
  if (cycle_closed_) return false;
  if (agent < 0 || agent >= m_ || to < 0 || to >= k_) return false;
  return positions_[static_cast<std::size_t>(agent)] != to;
}

bool MoveJumpGame::move_closes_cycle(int agent, int to) const {
  const int from = position(agent);
  if (edge_painted(from, to)) return false;  // nothing new is painted
  // Painting from -> to closes a cycle iff to already reaches from.
  return reachable(to, from);
}

bool MoveJumpGame::can_jump(int agent, int to) const {
  if (cycle_closed_) return false;
  if (agent < 0 || agent >= m_ || to < 0 || to >= k_) return false;
  if (positions_[static_cast<std::size_t>(agent)] == to) return false;
  return jump_enabled_[static_cast<std::size_t>(agent)][static_cast<std::size_t>(to)];
}

void MoveJumpGame::arrive(int agent, int node) {
  positions_[static_cast<std::size_t>(agent)] = node;
  // The agent is now visiting `node`; only a future move into it by another
  // agent can re-enable a jump back.
  jump_enabled_[static_cast<std::size_t>(agent)][static_cast<std::size_t>(node)] =
      false;
}

bool MoveJumpGame::move(int agent, int to) {
  expects(can_move(agent, to), "illegal move");
  const int from = position(agent);
  if (move_closes_cycle(agent, to)) {
    cycle_closed_ = true;
    return false;  // the cycle-closing move is not counted
  }
  painted_[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)] = true;
  ++move_count_;
  log_.push_back({ActionKind::kMove, agent, from, to});
  // This move enables every OTHER agent to jump to `to`.
  for (int other = 0; other < m_; ++other) {
    if (other != agent) {
      jump_enabled_[static_cast<std::size_t>(other)][static_cast<std::size_t>(to)] =
          true;
    }
  }
  arrive(agent, to);
  return true;
}

void MoveJumpGame::jump(int agent, int to) {
  expects(can_jump(agent, to), "illegal jump");
  const int from = position(agent);
  log_.push_back({ActionKind::kJump, agent, from, to});
  arrive(agent, to);
}

}  // namespace bss::game
