#include "compile/minimize.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "util/check.h"

namespace gmc {

namespace {

bool IsAnd(const NnfCircuit& circuit, int id) {
  return static_cast<NnfKind>(circuit.nodes()[id].kind) == NnfKind::kAnd;
}

// The branch as a set of conjunct ids: an AND contributes its (sorted)
// children, anything else contributes itself.
std::vector<int> ConjunctsOf(const NnfCircuit& circuit, int id) {
  const std::span<const int32_t> children = circuit.children(id);
  if (children.empty()) return {id};
  return {children.begin(), children.end()};
}

}  // namespace

NnfCircuit Minimizer::Rebuild(const NnfCircuit& circuit, bool factor,
                              Stats* delta) {
  const std::vector<FlatNode>& nodes = circuit.nodes();

  // Dead-node sweep: only nodes reachable from the root are rebuilt. The
  // reference counts feed the factoring rewrite's orphan prediction.
  std::vector<bool> reachable(nodes.size(), false);
  std::vector<int> refs(nodes.size(), 0);
  std::vector<int> stack = {circuit.root()};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (reachable[id]) continue;
    reachable[id] = true;
    const FlatNode& node = nodes[id];
    for (int child : circuit.children(id)) {
      ++refs[child];
      stack.push_back(child);
    }
    if (static_cast<NnfKind>(node.kind) == NnfKind::kDecision) {
      ++refs[node.a];
      ++refs[node.b];
      stack.push_back(node.a);
      stack.push_back(node.b);
    }
  }

  // Bottom-up rebuild: ascending id order visits children before parents,
  // so every node is reconstructed over already-rewritten children and the
  // hash-consing constructors fold and merge as the sweep cascades upward.
  NnfCircuit out;
  std::vector<int> remap(nodes.size(), -1);
  remap[circuit.False()] = out.False();
  remap[circuit.True()] = out.True();
  for (size_t id = 2; id < nodes.size(); ++id) {
    if (!reachable[id]) continue;
    const FlatNode& node = nodes[id];
    const size_t count_before = out.num_nodes();
    int rebuilt = -1;
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
      case NnfKind::kTrue:
        GMC_CHECK_MSG(false, "constants live at ids 0 and 1 only");
        break;
      case NnfKind::kVar:
        rebuilt = out.Var(node.var);
        break;
      case NnfKind::kAnd: {
        std::vector<int> children;
        children.reserve(node.b);
        for (int child : circuit.children(id)) {
          const int mapped = remap[child];
          if (IsAnd(out, mapped)) {
            // Splice a decomposable AND child into its parent
            // (associativity; supports stay pairwise disjoint because the
            // child's support is their union). The spliced child is pruned
            // below if nothing else references it.
            ++delta->flattened_ands;
            const std::span<const int32_t> inner = out.children(mapped);
            children.insert(children.end(), inner.begin(), inner.end());
          } else {
            children.push_back(mapped);
          }
        }
        rebuilt = out.And(std::move(children));
        break;
      }
      case NnfKind::kDecision: {
        const int high = remap[node.a];
        const int low = remap[node.b];
        if (factor && high != low) {
          // Common-factor extraction:  v ? X∧r1 : X∧r2  =  X ∧ (v ? r1 : r2).
          // The conjuncts X shared by both branches hoist above the
          // decision; the residual decision is smaller and often merges
          // with a structural twin the compiler's per-CNF memo could not
          // see (different sub-CNFs, identical circuits). Decomposability
          // and determinism survive: X was disjoint from the residuals in
          // the original ANDs and cannot mention the decision variable.
          const std::vector<int> s1 = ConjunctsOf(out, high);
          const std::vector<int> s2 = ConjunctsOf(out, low);
          std::vector<int> shared;
          std::set_intersection(s1.begin(), s1.end(), s2.begin(), s2.end(),
                                std::back_inserter(shared));
          if (!shared.empty()) {
            std::vector<int> r1, r2;
            std::set_difference(s1.begin(), s1.end(), shared.begin(),
                                shared.end(), std::back_inserter(r1));
            std::set_difference(s2.begin(), s2.end(), shared.begin(),
                                shared.end(), std::back_inserter(r2));
            // Only rewrite when the node arithmetic cannot lose: the new
            // cluster (decision + hoisted AND + any residual AND of size
            // ≥ 2) must fit within what dissolving this decision and its
            // single-parent branch ANDs frees up. Hash-consing can only
            // shrink the "added" side further; the final prune deletes the
            // freed nodes.
            const int added = 2 + (r1.size() >= 2 ? 1 : 0) +
                              (r2.size() >= 2 ? 1 : 0);
            const int removed =
                1 + (IsAnd(out, high) && refs[node.a] == 1 ? 1 : 0) +
                (IsAnd(out, low) && refs[node.b] == 1 ? 1 : 0);
            if (added <= removed) {
              const int residual = out.Decision(node.var, out.And(r1),
                                                out.And(r2));
              shared.push_back(residual);
              rebuilt = out.And(std::move(shared));
              ++delta->factored_decisions;
            }
          }
        }
        if (rebuilt < 0) {
          rebuilt = out.Decision(node.var, high, low);
        }
        break;
      }
    }
    if (out.num_nodes() == count_before) {
      if (out.nodes()[rebuilt].kind == node.kind) {
        ++delta->merged_nodes;  // hash-cons hit on a structural twin
      } else {
        ++delta->folded_nodes;  // constructor fold (constant, x?a:a, ...)
      }
    }
    remap[id] = rebuilt;
  }
  out.SetRoot(remap[circuit.root()]);
  // Rewrites orphan nodes (a spliced AND no other parent shares, the
  // branches of a factored decision); drop them so every Evaluate pass
  // touches live nodes only.
  out.PruneUnreachable();
  return out;
}

NnfCircuit Minimizer::Minimize(const NnfCircuit& circuit) {
  Stats delta;
  NnfCircuit out = Rebuild(circuit, /*factor=*/true, &delta);
  if (out.num_nodes() > circuit.num_nodes()) {
    // The factoring guard reasons about single-parent orphans locally;
    // adversarial sharing can still defeat it. The plain canonical rebuild
    // provably never grows (each reachable input node yields at most one
    // output node), so fall back to it — minimization must never make a
    // circuit slower to evaluate.
    delta = Stats();
    out = Rebuild(circuit, /*factor=*/false, &delta);
  }
  GMC_CHECK(out.num_nodes() <= circuit.num_nodes());
  stats_.nodes_before += circuit.num_nodes();
  stats_.nodes_after += out.num_nodes();
  stats_.merged_nodes += delta.merged_nodes;
  stats_.folded_nodes += delta.folded_nodes;
  stats_.flattened_ands += delta.flattened_ands;
  stats_.factored_decisions += delta.factored_decisions;
  return out;
}

}  // namespace gmc
