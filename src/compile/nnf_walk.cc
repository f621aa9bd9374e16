// The Rational walk bodies over CircuitWalkView. Ported verbatim
// (same operations, same order) from the former NnfCircuit member
// templates, so results are bit-identical to every pre-refactor release;
// the dyadic kernel and its width choice live in nnf_fixed.cc.

#include "compile/nnf_walk.h"

#include <utility>

#include "compile/nnf.h"
#include "util/check.h"
#include "util/parallel.h"

namespace gmc {

namespace {

// Columns per parallel slice, at minimum: below this, slice setup (one
// arena allocation per slice) costs more than the columns it covers.
constexpr int64_t kMinColumnsPerSlice = 4;
// Variables per chunk for the parallel complement preamble.
constexpr int64_t kMinVarsPerChunk = 8;
// Arena nodes between deadline polls (see util/cancel.h): the poll is one
// relaxed load on the common path, so the stride exists only to amortize
// the clock read of the worker that happens to observe expiry first.
constexpr size_t kCancelNodeStride = 64;

// One contiguous row-major arena per slice: within a slice of width
// W = k1 - k0, the W values of node `id` live at value[id * W .. id*W + W).
// A fired cancel token abandons the slice mid-pass: out_roots keeps its
// previous (meaningless) contents and the CALLER discards the batch — see
// the contract in nnf_walk.h.
void EvaluateBatchSlice(const CircuitWalkView& view,
                        const WeightMatrix& weights, int k0, int k1,
                        const Rational* complement, Rational* out_roots,
                        const CancelToken* cancel) {
  const int num_k = weights.num_vectors();
  const int num_w = k1 - k0;
  const Rational one = Rational::One();
  std::vector<Rational> value(view.num_nodes * num_w);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    if (cancel != nullptr && (id % kCancelNodeStride) == 0 && cancel->Poll()) {
      return;
    }
    const FlatNode& node = view.nodes[id];
    Rational* out = value.data() + id * num_w;
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
        break;  // arena default-constructs to zero
      case NnfKind::kTrue:
        for (int k = 0; k < num_w; ++k) out[k] = one;
        break;
      case NnfKind::kVar: {
        const Rational* p = weights.Column(node.var) + k0;
        for (int k = 0; k < num_w; ++k) out[k] = p[k];
        break;
      }
      case NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        const Rational* first =
            value.data() + static_cast<size_t>(child_ids[0]) * num_w;
        for (int k = 0; k < num_w; ++k) out[k] = first[k];
        for (int32_t c = 1; c < node.b; ++c) {
          const Rational* child =
              value.data() + static_cast<size_t>(child_ids[c]) * num_w;
          for (int k = 0; k < num_w; ++k) {
            if (out[k].IsZero()) continue;
            out[k] *= child[k];
          }
        }
        break;
      }
      case NnfKind::kDecision: {
        const Rational* p = weights.Column(node.var) + k0;
        const Rational* q =
            complement + static_cast<size_t>(node.var) * num_k + k0;
        const Rational* high =
            value.data() + static_cast<size_t>(node.a) * num_w;
        const Rational* low =
            value.data() + static_cast<size_t>(node.b) * num_w;
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
        break;
      }
    }
  }
  Rational* root = value.data() + static_cast<size_t>(view.root) * num_w;
  for (int k = 0; k < num_w; ++k) out_roots[k0 + k] = std::move(root[k]);
}

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
  const int num_vars = view.num_vars;

  // Complements 1 − p, computed once per (variable, vector) for exactly the
  // variables that head a decision node. Column layout mirrors the weight
  // matrix. Chunked over variables: each chunk owns a disjoint slice.
  const std::vector<bool> decides = walk_internal::WalkDecisionVars(view);
  std::vector<Rational> complement(static_cast<size_t>(num_vars) * num_k);
  ParallelFor(num_vars, num_threads, kMinVarsPerChunk,
              [&](int64_t v0, int64_t v1, int /*chunk*/) {
                for (int64_t v = v0; v < v1; ++v) {
                  if (!decides[v]) continue;
                  const Rational* p = weights.Column(static_cast<int>(v));
                  Rational* out =
                      complement.data() + static_cast<size_t>(v) * num_k;
                  for (int k = 0; k < num_k; ++k) {
                    out[k] = Rational::One() - p[k];
                  }
                }
              });

  // Splits the K columns into contiguous slices (at most `num_threads`;
  // 0 = process default), one arena pass per slice.
  std::vector<Rational> result(num_k);
  ParallelFor(num_k, num_threads, kMinColumnsPerSlice,
              [&](int64_t k0, int64_t k1, int /*chunk*/) {
                EvaluateBatchSlice(view, weights, static_cast<int>(k0),
                                   static_cast<int>(k1), complement.data(),
                                   result.data(), cancel);
              });
  return result;
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
