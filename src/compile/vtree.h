// Vtree-guided variable orders for the d-DNNF compiler.
//
// The compiler's circuit SIZE — not its correctness — is at the mercy of
// the Shannon-expansion variable order: deciding the variables of a small
// vertex separator first makes the residual CNF fall apart into connected
// components (decomposable ANDs) instead of deep decision chains. This is
// the classic vtree/dtree lever of the knowledge-compilation literature
// (d-DNNF, SDD). A Vtree here is a full binary tree whose leaves are the
// CNF's variables; its top-down dissection induces the decision order the
// compiler follows: at every Shannon step, branch on the occurring
// variable whose dissection point is highest in the tree.
//
// Two constructions, both built from the CNF's primal graph
// (logic/incidence.h):
//   kMinFill   — reverse min-fill elimination order (the treewidth
//                heuristic), realized as a right-linear vtree; degrades to
//                min-degree ("dtree-style") on dense/huge graphs.
//   kBalanced  — recursive balanced bisection of the clause–variable
//                incidence structure: split the BFS-ordered variables in
//                half, decide the smaller boundary (a vertex separator)
//                first, recurse on the halves.
// kDefault keeps the legacy most-occurring-variable heuristic and builds
// no vtree at all.
//
// Everything here is deterministic: same CNF + same heuristic → same
// vtree, same ranks, same circuit. Evaluation results are bit-identical
// under every heuristic (only the circuit's shape moves); the order-
// invariance tests pin this.

#ifndef GMC_COMPILE_VTREE_H_
#define GMC_COMPILE_VTREE_H_

#include <cstdint>
#include <vector>

#include "lineage/boolean_formula.h"

namespace gmc {

/// Which Shannon-expansion order the compiler uses. kDefault is the legacy
/// most-occurring-variable choice; kMinFill and kBalanced build a Vtree
/// from the CNF's primal graph and follow its dissection.
enum class OrderHeuristic : uint8_t { kDefault = 0, kMinFill, kBalanced };

/// Stable lowercase name of a heuristic: "default" / "minfill" /
/// "balanced" — the vocabulary of the GMC_ORDER environment knob.
const char* OrderHeuristicName(OrderHeuristic order);

/// Parses a heuristic name (the GMC_ORDER vocabulary above). Returns false
/// and leaves *out untouched on unknown or null input.
bool ParseOrderHeuristic(const char* name, OrderHeuristic* out);

/// A vtree: full binary tree over the occurring variables of one CNF,
/// plus the decision ranks its dissection induces. Value type — no
/// internal sharing; safe to copy and to read concurrently. Building is
/// polynomial (min-fill dominates at O(n²·d²) worst case, far below the
/// compilation it steers) and entirely deterministic.
class Vtree {
 public:
  /// Tree node: a leaf holds `var` >= 0 and no children; an internal node
  /// holds var == -1 and two valid child indices. Children always precede
  /// parents in nodes().
  struct Node {
    int var = -1;
    int left = -1;
    int right = -1;
    bool IsLeaf() const { return var >= 0; }
  };

  /// Builds the vtree for `cnf` under `heuristic` (must not be kDefault —
  /// the legacy order has no vtree). Constant CNFs yield an empty tree
  /// (root() == -1, no ranks).
  static Vtree Build(const Cnf& cnf, OrderHeuristic heuristic);

  /// Right-linear vtree realizing a linear decision order: order[0] is
  /// decided first. Exposed for tests and for callers with a precomputed
  /// order; `order` must name distinct variables in [0, num_vars).
  static Vtree FromLinearOrder(int num_vars, const std::vector<int>& order);

  /// Root node index, or -1 for the empty tree.
  int root() const { return root_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Number of variable leaves (== number of occurring variables).
  int num_leaves() const { return num_leaves_; }

  /// Per-variable decision rank: rank 0 is decided first; -1 for
  /// variables without a leaf (non-occurring). Ranks are a permutation of
  /// 0..num_leaves()-1. The compiler branches on the minimum-rank
  /// occurring variable of every sub-CNF — top-down vtree dissection.
  const std::vector<int>& decision_rank() const { return rank_; }

  /// Structural audit (tests): every occurring variable has exactly one
  /// leaf, internal nodes have two valid children, children precede
  /// parents, and ranks are a permutation.
  bool CheckWellFormed() const;

 private:
  int AddLeaf(int var);
  int AddInternal(int left, int right);
  /// Recursive balanced-bisection builder over a BFS-ordered variable
  /// subset, in COMPACTED id space (dense ids 0..num_leaves-1, so the
  /// per-call scratch is O(occurring), not O(id space)); `var_of` maps a
  /// dense id back to the original variable for leaves and ranks. Assigns
  /// ranks to separators first. Returns the subtree root.
  int BuildBalanced(const std::vector<std::vector<int>>& adjacency,
                    const std::vector<int>& var_of, std::vector<int> vars,
                    int* next_rank);

  std::vector<Node> nodes_;
  std::vector<int> rank_;
  int root_ = -1;
  int num_leaves_ = 0;
};

}  // namespace gmc

#endif  // GMC_COMPILE_VTREE_H_
