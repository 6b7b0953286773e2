// The move/jump agent game of Lemma 1.1 (proof due to Noga Alon).
//
// A complete directed graph on k nodes holds m agents.  Repeatedly, an agent
// may either
//   Move: travel from its node v to another node u, painting edge v -> u;
//   Jump: teleport to node u, allowed only if some OTHER agent has moved
//         into u since this agent's last visit to u (or ever, if unvisited).
// The question: how many Moves can happen before the painted edges contain a
// (directed) cycle?  Lemma 1.1: at most m^k — the combinatorial heart of the
// paper's key invariant (every tree node keeps heavy excess-graph paths to
// its ancestors), i.e. the reason UpdateC&S's threshold walk terminates.
//
// This module is the exact game: legality of both actions, painted-edge
// bookkeeping, cycle detection, and a full event log that the potential
// analysis (potential.h) replays.
#pragma once

#include <cstdint>
#include <vector>

#include "util/checked.h"

namespace bss::game {

enum class ActionKind { kMove, kJump };

struct Action {
  ActionKind kind = ActionKind::kMove;
  int agent = -1;
  int from = -1;
  int to = -1;
};

class MoveJumpGame {
 public:
  /// All agents start at node `start` (default: the top node k-1).
  MoveJumpGame(int k, int m, int start = -1);
  /// Arbitrary initial placement: positions[a] = starting node of agent a.
  MoveJumpGame(int k, int m, std::vector<int> positions);

  int k() const { return k_; }
  int m() const { return m_; }

  /// Lemma 1.1's bound on the number of Moves: m^k.
  std::uint64_t bound() const;

  int position(int agent) const;
  bool edge_painted(int from, int to) const;
  /// True once the painted edges contain a directed cycle; no further
  /// actions are accepted after this.
  bool cycle_closed() const { return cycle_closed_; }
  std::uint64_t move_count() const { return move_count_; }
  const std::vector<Action>& log() const { return log_; }

  /// Move legality: agent is at `from` != `to`, and the game is live.  Note
  /// a move may be legal and still close a cycle; strategies that want to
  /// stay alive should also consult move_closes_cycle().
  bool can_move(int agent, int to) const;
  /// Whether painting (position(agent) -> to) would close a cycle.
  bool move_closes_cycle(int agent, int to) const;
  /// Jump legality: another agent moved into `to` since this agent's last
  /// visit there (visits by moves, jumps or initial placement all count).
  bool can_jump(int agent, int to) const;

  /// Performs the action; returns false (and rejects the action) if a Move
  /// closed a cycle — the game then ends and that move is not counted, per
  /// the Lemma's phrasing ("moves ... before the painted edges contain a
  /// cycle").
  bool move(int agent, int to);
  void jump(int agent, int to);

 private:
  void arrive(int agent, int node);
  bool reachable(int from, int to) const;  // over painted edges

  int k_;
  int m_;
  std::vector<int> positions_;
  std::vector<std::vector<bool>> painted_;       // [from][to]
  std::vector<std::vector<bool>> jump_enabled_;  // [agent][node]
  bool cycle_closed_ = false;
  std::uint64_t move_count_ = 0;
  std::vector<Action> log_;
};

}  // namespace bss::game
