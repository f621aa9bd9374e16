// The Rational walks over CircuitWalkView: the single-vector reference
// (WalkEvaluate) and the batch walk, which runs arena_pass.h's pass with
// the Rational inner loops below — the same operations in the same order
// as every earlier release, so results stay bit-identical. The dyadic
// kernel and its width choice live in nnf_fixed.cc.

#include "compile/nnf_walk.h"

#include <utility>

#include "compile/arena_pass.h"
#include "compile/nnf.h"
#include "util/check.h"

namespace gmc {

namespace {

// The Rational arithmetic of the arena pass (arena_pass.h).
struct RationalKernel {
  using Value = Rational;
  const Rational* probability;  // the weight matrix's own columns
  const Rational* complement;

  static Rational One() { return Rational::One(); }
  static void And(Rational* out, const Rational* child, int num_w) {
    for (int k = 0; k < num_w; ++k) {
      if (out[k].IsZero()) continue;
      out[k] *= child[k];
    }
  }
  static void Decision(size_t /*id*/, const FlatNode& /*node*/,
                       const Rational* p, const Rational* q,
                       const Rational* high, const Rational* low,
                       Rational* out, int num_w) {
    for (int k = 0; k < num_w; ++k) {
      // p·high + q·low through the in-place operators: no allocation
      // beyond the two products.
      Rational t = p[k];
      t *= high[k];
      Rational u = q[k];
      u *= low[k];
      t += u;
      out[k] = std::move(t);
    }
  }
};

}  // namespace

namespace walk_internal {

std::vector<bool> WalkDecisionVars(const CircuitWalkView& view) {
  std::vector<bool> decides(static_cast<size_t>(view.num_vars), false);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const FlatNode& node = view.nodes[id];
    if (static_cast<NnfKind>(node.kind) == NnfKind::kDecision) {
      decides[node.var] = true;
    }
  }
  return decides;
}

}  // namespace walk_internal

Rational WalkEvaluate(const CircuitWalkView& view,
                      const std::vector<Rational>& probabilities) {
  GMC_CHECK(static_cast<int32_t>(probabilities.size()) >= view.num_vars);
  std::vector<Rational> value(view.num_nodes);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const FlatNode& node = view.nodes[id];
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
        value[id] = Rational::Zero();
        break;
      case NnfKind::kTrue:
        value[id] = Rational::One();
        break;
      case NnfKind::kVar:
        value[id] = probabilities[node.var];
        break;
      case NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        Rational product = Rational::One();
        for (int32_t c = 0; c < node.b; ++c) {
          product *= value[child_ids[c]];
          if (product.IsZero()) break;
        }
        value[id] = product;
        break;
      }
      case NnfKind::kDecision: {
        const Rational& p = probabilities[node.var];
        value[id] = p * value[node.a] + (Rational::One() - p) * value[node.b];
        break;
      }
    }
  }
  return value[view.root];
}

std::vector<Rational> WalkEvaluateBatch(const CircuitWalkView& view,
                                        const WeightMatrix& weights,
                                        int num_threads,
                                        const CancelToken* cancel) {
  GMC_CHECK(weights.num_vars() >= view.num_vars);
  const int num_k = weights.num_vectors();

  // Complements 1 − p, computed once per (variable, vector) for exactly the
  // variables that head a decision node. Column layout mirrors the weight
  // matrix.
  const std::vector<bool> decides = walk_internal::WalkDecisionVars(view);
  std::vector<Rational> complement(static_cast<size_t>(view.num_vars) * num_k);
  walk_internal::ForEachVariable(view.num_vars, num_threads, [&](int v) {
    if (!decides[v]) return;
    const Rational* p = weights.Column(v);
    Rational* out = complement.data() + static_cast<size_t>(v) * num_k;
    for (int k = 0; k < num_k; ++k) out[k] = Rational::One() - p[k];
  });
  return walk_internal::ArenaPass(
      view, num_k, num_threads,
      RationalKernel{weights.Column(0), complement.data()}, cancel);
}

uint64_t WalkFingerprint(const CircuitWalkView& view) {
  // Bottom-up structural hashes: a node's hash depends only on its kind,
  // its variable, and its children's HASHES — never on arena ids — so any
  // renumbering of the same DAG fingerprints identically. AND children
  // combine by unordered sum (AND is commutative; the builder's sorted-by-
  // id canonical order is an arena artifact); decision branches combine
  // ordered (high and low are semantically distinct).
  constexpr uint64_t kFnvPrime = 1099511628211ull;
  auto mix = [](uint64_t h, uint64_t word) { return (h ^ word) * kFnvPrime; };
  std::vector<uint64_t> hash(view.num_nodes);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const FlatNode& node = view.nodes[id];
    uint64_t h = 14695981039346656037ull;
    h = mix(h, static_cast<uint64_t>(node.kind) + 1);
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
      case NnfKind::kTrue:
        break;
      case NnfKind::kVar:
        h = mix(h, static_cast<uint64_t>(node.var) + 1);
        break;
      case NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        uint64_t sum = 0;
        for (int32_t c = 0; c < node.b; ++c) {
          sum += hash[child_ids[c]];  // unordered: wrapping sum commutes
        }
        h = mix(h, static_cast<uint64_t>(node.b));
        h = mix(h, sum);
        break;
      }
      case NnfKind::kDecision:
        h = mix(h, static_cast<uint64_t>(node.var) + 1);
        h = mix(h, hash[node.a]);
        h = mix(h, hash[node.b]);
        break;
    }
    hash[id] = h;
  }
  // Only the DAG under the root counts: arenas differing in orphaned
  // nodes (or in nothing but numbering) fingerprint identically.
  uint64_t out = 0x9e3779b97f4a7c15ull;
  out = mix(out, hash[view.root]);
  out = mix(out, static_cast<uint64_t>(view.num_vars));
  return out;
}

}  // namespace gmc
