#include "emulation/history_tree.h"

#include "util/checked.h"
#include "util/permutation.h"

namespace bss::emu {

int TreeNode::depth() const {
  int d = 0;
  for (const TreeNode* node = parent; node != nullptr; node = node->parent) {
    ++d;
  }
  return d;
}

GroupTree::GroupTree(Label label) : label_(std::move(label)) {
  expects(!label_.empty(), "group label must start with ⊥");
  root_.symbol = label_.back();
}

TreeNode* GroupTree::rightmost() {
  TreeNode* node = &root_;
  while (!node->children.empty()) node = node->children.back().get();
  return node;
}

TreeNode* GroupTree::attach(TreeNode* parent, int symbol,
                            std::vector<int> from_parent,
                            std::vector<int> to_parent) {
  expects(parent != nullptr, "attach needs a parent node");
  auto child = std::make_unique<TreeNode>();
  child->symbol = symbol;
  child->from_parent = std::move(from_parent);
  child->to_parent = std::move(to_parent);
  child->parent = parent;
  TreeNode* raw = child.get();
  parent->children.push_back(std::move(child));
  return raw;
}

namespace {

// Figure 4 DFS: emits node.symbol on arrival; descending into a child emits
// child.from_parent first; ascending emits child.to_parent then the parent's
// symbol again.  Records the output index of the LAST arrival emission so
// the caller can truncate at the rightmost node.
void dfs(const TreeNode& node, std::vector<int>& out,
         std::size_t& last_arrival) {
  out.push_back(node.symbol);
  last_arrival = out.size() - 1;
  for (const auto& child : node.children) {
    out.insert(out.end(), child->from_parent.begin(),
               child->from_parent.end());
    dfs(*child, out, last_arrival);
    out.insert(out.end(), child->to_parent.begin(), child->to_parent.end());
    out.push_back(node.symbol);
  }
}

}  // namespace

void GroupTree::append_history(std::vector<int>& history,
                               bool truncate_at_rightmost) const {
  std::vector<int> sequence;
  std::size_t last_arrival = 0;
  dfs(root_, sequence, last_arrival);
  if (truncate_at_rightmost) {
    sequence.resize(last_arrival + 1);
  }
  history.insert(history.end(), sequence.begin(), sequence.end());
}

int GroupTree::node_count() const {
  int count = 0;
  // Tail-recursive walk without an explicit visitor type.
  std::vector<const TreeNode*> stack{&root_};
  while (!stack.empty()) {
    const TreeNode* node = stack.back();
    stack.pop_back();
    ++count;
    for (const auto& child : node->children) stack.push_back(child.get());
  }
  return count;
}

LabelForest::LabelForest(int k) : k_(k) {
  expects(k >= 2, "history forest needs k >= 2");
  trees_.emplace(Label{0}, std::make_unique<GroupTree>(Label{0}));
}

GroupTree* LabelForest::find(const Label& label) {
  const auto it = trees_.find(label);
  return it == trees_.end() ? nullptr : it->second.get();
}

const GroupTree* LabelForest::find(const Label& label) const {
  const auto it = trees_.find(label);
  return it == trees_.end() ? nullptr : it->second.get();
}

GroupTree* LabelForest::activate(const Label& label) {
  if (GroupTree* existing = find(label)) return existing;
  expects(label.size() >= 2, "cannot activate the root label");
  expects(is_permutation_prefix(
              std::vector<int>(label.begin() + 1, label.end()), 1, k_) &&
              label.front() == 0,
          "label must be ⊥ followed by distinct symbols");
  Label parent_label(label.begin(), label.end() - 1);
  expects(find(parent_label) != nullptr,
          "parent label not active: labels grow one symbol at a time");
  auto tree = std::make_unique<GroupTree>(label);
  GroupTree* raw = tree.get();
  trees_.emplace(label, std::move(tree));
  return raw;
}

Label LabelForest::extend_to_leaf(const Label& label) const {
  expects(find(label) != nullptr, "unknown label");
  Label current = label;
  for (;;) {
    bool extended = false;
    for (int symbol = 1; symbol < k_; ++symbol) {
      Label candidate = current;
      candidate.push_back(symbol);
      if (find(candidate) != nullptr) {
        current = std::move(candidate);
        extended = true;
        break;
      }
    }
    if (!extended) return current;
  }
}

std::vector<int> LabelForest::compute_history(const Label& label) const {
  expects(find(label) != nullptr, "unknown label");
  std::vector<int> history;
  for (std::size_t depth = 1; depth <= label.size(); ++depth) {
    const Label prefix(label.begin(),
                       label.begin() + checked_cast<long>(depth));
    const GroupTree* tree = find(prefix);
    expects(tree != nullptr, "missing tree on the label path");
    tree->append_history(history, /*truncate_at_rightmost=*/depth ==
                                      label.size());
  }
  return history;
}

int LabelForest::transition_count(const std::vector<int>& history, int from,
                                  int to) {
  int count = 0;
  for (std::size_t i = 1; i < history.size(); ++i) {
    if (history[i - 1] == from && history[i] == to) ++count;
  }
  return count;
}

std::vector<Label> LabelForest::active_labels() const {
  std::vector<Label> labels;
  labels.reserve(trees_.size());
  for (const auto& [label, tree] : trees_) {
    (void)tree;
    labels.push_back(label);
  }
  return labels;
}

}  // namespace bss::emu
