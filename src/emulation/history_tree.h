// The history data structure of Section 3: the tree-of-trees T.
//
// Each node of T is a "small tree" t_l, one per group label l; the label of
// a group is the sequence of first-values its run has installed in the
// compare&swap (all labels start with ⊥).  Each small tree records how the
// group's run revisits previously-used values: a node per appended symbol,
// with FromParent/ToParent splice strings — the short value sequences the
// register passes through when moving between the node's symbol and its
// parent's (drawn from excess-graph paths, i.e. backed by suspended
// v-processes).
//
// The history h(l) of the run labeled l is the concatenation of the
// depth-first traversals of the small trees on the path from t_⊥ to t_l,
// the last one truncated at its rightmost leaf (Figure 4): for each edge
// traversed downward we emit FromParent ++ child symbol, upward ToParent ++
// parent symbol — so one tree node can contribute its symbol to the history
// several times, which is exactly how bounded-size values get reused without
// re-splitting groups.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "emulation/board.h"

namespace bss::emu {

struct TreeNode {
  int symbol = 0;
  /// Intermediate symbols the register passes from parent->symbol (both
  /// endpoints excluded); empty = direct transition.
  std::vector<int> from_parent;
  /// Intermediate symbols from symbol->parent.
  std::vector<int> to_parent;
  TreeNode* parent = nullptr;
  std::vector<std::unique_ptr<TreeNode>> children;

  int depth() const;
};

/// One small tree t_l.
class GroupTree {
 public:
  explicit GroupTree(Label label);

  const Label& label() const { return label_; }
  TreeNode* root() { return &root_; }
  const TreeNode* root() const { return &root_; }

  /// The DFS-last node: the node holding the run's current symbol.
  TreeNode* rightmost();

  /// Attaches `symbol` as the new last child of `parent` with the given
  /// splice strings; it becomes the rightmost node.
  TreeNode* attach(TreeNode* parent, int symbol, std::vector<int> from_parent,
                   std::vector<int> to_parent);

  /// Appends this tree's Figure-4 DFS sequence to `history`; when
  /// `truncate_at_rightmost`, stops at the rightmost node's visit (the last
  /// tree on the label path ends at the run's current value).
  void append_history(std::vector<int>& history,
                      bool truncate_at_rightmost) const;

  int node_count() const;

 private:
  Label label_;
  TreeNode root_;
};

/// The shared tree T: all group trees, indexed by label.
class LabelForest {
 public:
  explicit LabelForest(int k);

  int k() const { return k_; }

  GroupTree* find(const Label& label);
  const GroupTree* find(const Label& label) const;

  /// Activates t_{label}; the label must extend an existing label by one
  /// fresh symbol.  Returns the new tree (or the existing one if another
  /// emulator already activated it — the paper's concurrent-activation case).
  GroupTree* activate(const Label& label);

  /// Figure 4 line 1: the longest activated label having `label` as prefix
  /// (following first children when branching; deterministic: smallest
  /// next symbol).  Emulators whose tree is no longer a leaf migrate down.
  Label extend_to_leaf(const Label& label) const;

  /// h(l): the full value history of the run labeled l.
  std::vector<int> compute_history(const Label& label) const;

  /// Count of (from, to) transitions in h(l).
  static int transition_count(const std::vector<int>& history, int from,
                              int to);

  std::vector<Label> active_labels() const;
  std::size_t tree_count() const { return trees_.size(); }

 private:
  int k_;
  std::map<Label, std::unique_ptr<GroupTree>> trees_;
};

}  // namespace bss::emu
