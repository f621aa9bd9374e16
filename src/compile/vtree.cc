#include "compile/vtree.h"

#include <algorithm>
#include <cstring>

#include "logic/incidence.h"
#include "util/check.h"

namespace gmc {

const char* OrderHeuristicName(OrderHeuristic order) {
  switch (order) {
    case OrderHeuristic::kDefault:
      return "default";
    case OrderHeuristic::kMinFill:
      return "minfill";
    case OrderHeuristic::kBalanced:
      return "balanced";
  }
  return "default";
}

bool ParseOrderHeuristic(const char* name, OrderHeuristic* out) {
  if (name == nullptr) return false;
  for (OrderHeuristic order :
       {OrderHeuristic::kDefault, OrderHeuristic::kMinFill,
        OrderHeuristic::kBalanced}) {
    if (std::strcmp(name, OrderHeuristicName(order)) == 0) {
      *out = order;
      return true;
    }
  }
  return false;
}

int Vtree::AddLeaf(int var) {
  GMC_CHECK(var >= 0);
  Node node;
  node.var = var;
  nodes_.push_back(node);
  ++num_leaves_;
  return static_cast<int>(nodes_.size()) - 1;
}

int Vtree::AddInternal(int left, int right) {
  GMC_CHECK(left >= 0 && left < static_cast<int>(nodes_.size()));
  GMC_CHECK(right >= 0 && right < static_cast<int>(nodes_.size()));
  Node node;
  node.left = left;
  node.right = right;
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size()) - 1;
}

Vtree Vtree::FromLinearOrder(int num_vars, const std::vector<int>& order) {
  Vtree vtree;
  vtree.rank_.assign(static_cast<size_t>(num_vars), -1);
  if (order.empty()) return vtree;
  // Build bottom-up so children precede parents: the LAST variable of the
  // order is the deepest leaf, and each earlier variable hangs off the
  // left of a new internal node above it.
  int subtree = -1;
  for (size_t i = order.size(); i-- > 0;) {
    const int var = order[i];
    GMC_CHECK(var >= 0 && var < num_vars);
    GMC_CHECK(vtree.rank_[var] == -1);  // distinct variables
    vtree.rank_[var] = static_cast<int>(i);
    const int leaf = vtree.AddLeaf(var);
    subtree = (subtree == -1) ? leaf : vtree.AddInternal(leaf, subtree);
  }
  vtree.root_ = subtree;
  return vtree;
}

int Vtree::BuildBalanced(const std::vector<std::vector<int>>& adjacency,
                         const std::vector<int>& var_of,
                         std::vector<int> vars, int* next_rank) {
  GMC_CHECK(!vars.empty());
  if (vars.size() == 1) {
    rank_[var_of[vars[0]]] = (*next_rank)++;
    return AddLeaf(var_of[vars[0]]);
  }
  // Split the (BFS-ordered) list at the midpoint. BFS keeps each half
  // geometrically contiguous in the primal graph, so the boundary — the
  // vertex separator we decide first — stays small on path- and
  // grid-shaped gadget lineages.
  const size_t mid = vars.size() / 2;
  std::vector<char> in_b(adjacency.size(), 0);
  for (size_t i = mid; i < vars.size(); ++i) in_b[vars[i]] = 1;
  std::vector<char> in_a(adjacency.size(), 0);
  for (size_t i = 0; i < mid; ++i) in_a[vars[i]] = 1;

  std::vector<int> boundary_a, boundary_b;
  for (size_t i = 0; i < mid; ++i) {
    for (int u : adjacency[vars[i]]) {
      if (in_b[u]) {
        boundary_a.push_back(vars[i]);
        break;
      }
    }
  }
  for (size_t i = mid; i < vars.size(); ++i) {
    for (int u : adjacency[vars[i]]) {
      if (in_a[u]) {
        boundary_b.push_back(vars[i]);
        break;
      }
    }
  }
  // The smaller boundary is the separator (ties toward the left half).
  // Deciding it first disconnects the remainder of its side from the
  // other half, so the compiler's component split fires right after.
  const bool cut_from_a = boundary_a.size() <= boundary_b.size();
  std::vector<int>& cut = cut_from_a ? boundary_a : boundary_b;
  // Rank separators in ascending ORIGINAL variable id, so determinism
  // does not depend on how ids were compacted.
  std::sort(cut.begin(), cut.end(),
            [&var_of](int a, int b) { return var_of[a] < var_of[b]; });
  std::vector<char> in_cut(adjacency.size(), 0);
  for (int v : cut) {
    in_cut[v] = 1;
    rank_[var_of[v]] = (*next_rank)++;
  }
  std::vector<int> left_vars, right_vars;
  for (size_t i = 0; i < mid; ++i) {
    if (!in_cut[vars[i]]) left_vars.push_back(vars[i]);
  }
  for (size_t i = mid; i < vars.size(); ++i) {
    if (!in_cut[vars[i]]) right_vars.push_back(vars[i]);
  }

  int rest;
  if (left_vars.empty()) {
    rest = BuildBalanced(adjacency, var_of, std::move(right_vars), next_rank);
  } else if (right_vars.empty()) {
    rest = BuildBalanced(adjacency, var_of, std::move(left_vars), next_rank);
  } else {
    const int left =
        BuildBalanced(adjacency, var_of, std::move(left_vars), next_rank);
    const int right =
        BuildBalanced(adjacency, var_of, std::move(right_vars), next_rank);
    rest = AddInternal(left, right);
  }
  // The separator variables chain right-linearly above the bisection, in
  // rank order top-down (build bottom-up, so iterate in reverse).
  for (size_t i = cut.size(); i-- > 0;) {
    rest = AddInternal(AddLeaf(var_of[cut[i]]), rest);
  }
  return rest;
}

Vtree Vtree::Build(const Cnf& cnf, OrderHeuristic heuristic) {
  GMC_CHECK(heuristic != OrderHeuristic::kDefault);
  PrimalGraph graph = PrimalGraph::FromClauses(cnf.num_vars, cnf.clauses);
  if (heuristic == OrderHeuristic::kMinFill) {
    // Reverse elimination order: the last variable eliminated sits at the
    // top of the induced tree decomposition, so it is decided FIRST.
    std::vector<int> order = MinFillOrder(graph);
    std::reverse(order.begin(), order.end());
    return FromLinearOrder(cnf.num_vars, order);
  }
  Vtree vtree;
  vtree.rank_.assign(static_cast<size_t>(cnf.num_vars), -1);
  // Compact to dense ids (BFS position = dense id) so the recursion's
  // scratch arrays scale with the occurring variables, not with however
  // many ids the lineage interned.
  const std::vector<int> var_of = BfsOrder(graph);
  if (var_of.empty()) return vtree;
  std::vector<int> dense_of(graph.num_vars, -1);
  for (size_t i = 0; i < var_of.size(); ++i) {
    dense_of[var_of[i]] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> adjacency(var_of.size());
  std::vector<int> vars(var_of.size());
  for (size_t i = 0; i < var_of.size(); ++i) {
    vars[i] = static_cast<int>(i);
    adjacency[i].reserve(graph.adjacency[var_of[i]].size());
    for (int u : graph.adjacency[var_of[i]]) {
      adjacency[i].push_back(dense_of[u]);
    }
  }
  int next_rank = 0;
  vtree.root_ =
      vtree.BuildBalanced(adjacency, var_of, std::move(vars), &next_rank);
  return vtree;
}

bool Vtree::CheckWellFormed() const {
  if (root_ == -1) return nodes_.empty() && num_leaves_ == 0;
  if (root_ != static_cast<int>(nodes_.size()) - 1) return false;
  int leaves_seen = 0;
  std::vector<char> has_leaf(rank_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.IsLeaf()) {
      if (node.left != -1 || node.right != -1) return false;
      if (node.var >= static_cast<int>(rank_.size())) return false;
      if (has_leaf[node.var]) return false;  // one leaf per variable
      has_leaf[node.var] = 1;
      if (rank_[node.var] < 0 || rank_[node.var] >= num_leaves_) return false;
      ++leaves_seen;
    } else {
      // Children precede parents.
      if (node.left < 0 || node.left >= static_cast<int>(i)) return false;
      if (node.right < 0 || node.right >= static_cast<int>(i)) return false;
    }
  }
  if (leaves_seen != num_leaves_) return false;
  // Ranks are a permutation of 0..num_leaves-1 over the leaf variables.
  std::vector<char> rank_used(num_leaves_, 0);
  for (size_t v = 0; v < rank_.size(); ++v) {
    if (has_leaf[v]) {
      if (rank_used[rank_[v]]) return false;
      rank_used[rank_[v]] = 1;
    } else if (rank_[v] != -1) {
      return false;
    }
  }
  return true;
}

}  // namespace gmc
