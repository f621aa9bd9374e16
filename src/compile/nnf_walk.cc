// The Rational / double walk bodies over CircuitWalkView. Ported verbatim
// (same operations, same order) from the former NnfCircuit member
// templates, so results are bit-identical to every pre-refactor release;
// the dyadic kernel and its width choice live in nnf_fixed.cc.

#include "compile/nnf_walk.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "compile/nnf.h"
#include "util/check.h"
#include "util/parallel.h"

namespace gmc {

namespace {

// The arena walk's zero test, uniform across the two value types.
bool IsZeroValue(const Rational& v) { return v.IsZero(); }
bool IsZeroValue(double v) { return v == 0.0; }

// Columns per parallel slice, at minimum: below this, slice setup (one
// arena allocation per slice) costs more than the columns it covers.
constexpr int64_t kMinColumnsPerSlice = 4;
// Variables per chunk for the parallel conversion/complement preambles.
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
template <typename Value, typename ColumnFn>
void EvaluateBatchSlice(const CircuitWalkView& view, int k0, int k1,
                        int num_k, ColumnFn column, const Value* complement,
                        const Value& one, Value* out_roots,
                        const CancelToken* cancel) {
  const int num_w = k1 - k0;
  std::vector<Value> value(view.num_nodes * num_w);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    if (cancel != nullptr && (id % kCancelNodeStride) == 0 && cancel->Poll()) {
      return;
    }
    const FlatNode& node = view.nodes[id];
    Value* out = value.data() + id * num_w;
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
        break;  // arena default-constructs to zero
      case NnfKind::kTrue:
        for (int k = 0; k < num_w; ++k) out[k] = one;
        break;
      case NnfKind::kVar: {
        const Value* p = column(node.var) + k0;
        for (int k = 0; k < num_w; ++k) out[k] = p[k];
        break;
      }
      case NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        const Value* first =
            value.data() + static_cast<size_t>(child_ids[0]) * num_w;
        for (int k = 0; k < num_w; ++k) out[k] = first[k];
        for (int32_t c = 1; c < node.b; ++c) {
          const Value* child =
              value.data() + static_cast<size_t>(child_ids[c]) * num_w;
          for (int k = 0; k < num_w; ++k) {
            if (IsZeroValue(out[k])) continue;
            out[k] *= child[k];
          }
        }
        break;
      }
      case NnfKind::kDecision: {
        const Value* p = column(node.var) + k0;
        const Value* q =
            complement + static_cast<size_t>(node.var) * num_k + k0;
        const Value* high = value.data() + static_cast<size_t>(node.a) * num_w;
        const Value* low = value.data() + static_cast<size_t>(node.b) * num_w;
        for (int k = 0; k < num_w; ++k) {
          // p·high + q·low through the in-place operators: no allocation
          // beyond the two products for Value types with heap state.
          Value t = p[k];
          t *= high[k];
          Value u = q[k];
          u *= low[k];
          t += u;
          out[k] = std::move(t);
        }
        break;
      }
    }
  }
  Value* root = value.data() + static_cast<size_t>(view.root) * num_w;
  for (int k = 0; k < num_w; ++k) out_roots[k0 + k] = std::move(root[k]);
}

// Parallel driver: splits the K columns into contiguous slices (at most
// `num_threads`; 0 = process default) and runs EvaluateBatchSlice per
// slice. Returns the K root values in input order.
template <typename Value, typename ColumnFn>
std::vector<Value> EvaluateBatchArena(const CircuitWalkView& view, int num_k,
                                      int num_threads, ColumnFn column,
                                      const Value* complement,
                                      const Value& one,
                                      const CancelToken* cancel = nullptr) {
  std::vector<Value> result(num_k);
  ParallelFor(num_k, num_threads, kMinColumnsPerSlice,
              [&](int64_t k0, int64_t k1, int /*chunk*/) {
                EvaluateBatchSlice<Value>(view, static_cast<int>(k0),
                                          static_cast<int>(k1), num_k, column,
                                          complement, one, result.data(),
                                          cancel);
              });
  return result;
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

  return EvaluateBatchArena<Rational>(
      view, num_k, num_threads,
      [&weights](int var) { return weights.Column(var); }, complement.data(),
      Rational::One(), cancel);
}

std::vector<double> WalkEvaluateBatchDouble(const CircuitWalkView& view,
                                            const WeightMatrix& weights,
                                            int recheck_stride,
                                            double recheck_tolerance,
                                            int num_threads,
                                            const CancelToken* cancel) {
  GMC_CHECK(weights.num_vars() >= view.num_vars);
  const int num_k = weights.num_vectors();
  const int num_vars = view.num_vars;

  // The weight columns, converted once; BigInt never appears in the pass.
  std::vector<double> probability(static_cast<size_t>(num_vars) * num_k);
  const std::vector<bool> decides = walk_internal::WalkDecisionVars(view);
  std::vector<double> complement(static_cast<size_t>(num_vars) * num_k, 0.0);
  ParallelFor(num_vars, num_threads, kMinVarsPerChunk,
              [&](int64_t v0, int64_t v1, int /*chunk*/) {
                for (int64_t v = v0; v < v1; ++v) {
                  const Rational* p = weights.Column(static_cast<int>(v));
                  double* out =
                      probability.data() + static_cast<size_t>(v) * num_k;
                  for (int k = 0; k < num_k; ++k) out[k] = p[k].ToDouble();
                  if (!decides[v]) continue;
                  double* comp =
                      complement.data() + static_cast<size_t>(v) * num_k;
                  for (int k = 0; k < num_k; ++k) comp[k] = 1.0 - out[k];
                }
              });

  std::vector<double> result = EvaluateBatchArena<double>(
      view, num_k, num_threads,
      [&probability, num_k](int var) {
        return probability.data() + static_cast<size_t>(var) * num_k;
      },
      complement.data(), 1.0, cancel);

  if (recheck_stride > 0 && (cancel == nullptr || !cancel->cancelled())) {
    // Re-checks are the expensive half (one exact Evaluate each), and each
    // checks one column independently — chunk them over the pool too. A
    // cancelled main pass skips them (partial values would trip the drift
    // abort on data the caller is about to discard); a cancellation DURING
    // the re-checks only skips the remaining checks — never the abort on a
    // check that already ran against real values.
    const int num_checks = (num_k + recheck_stride - 1) / recheck_stride;
    ParallelFor(num_checks, num_threads, 1,
                [&](int64_t c0, int64_t c1, int /*chunk*/) {
                  for (int64_t c = c0; c < c1; ++c) {
                    if (cancel != nullptr && cancel->Poll()) return;
                    const int k = static_cast<int>(c) * recheck_stride;
                    const double exact =
                        WalkEvaluate(view, weights.Row(k)).ToDouble();
                    const double scale = std::max(1.0, std::abs(exact));
                    GMC_CHECK_MSG(
                        std::abs(result[k] - exact) <=
                            recheck_tolerance * scale,
                        "EvaluateBatchDouble drifted from the exact "
                        "evaluator");
                  }
                });
  }
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
