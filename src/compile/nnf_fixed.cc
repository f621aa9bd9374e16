// Fixed-width dyadic batch kernels and the width-routing front end of the
// dyadic walk (WalkEvaluateBatchDyadic, which NnfCircuit::
// EvaluateBatchDyadic runs on the circuit's own arrays and the store's
// MappedCircuitView on a mapped file — one record layout, one walk).
//
// The key invariant (see util/dyadic_fixed.h): every node value of a
// weighted model count over probabilities in [0, 1] is itself a
// probability, so a node holding v = m · 2^-E has 0 <= m <= 2^E. Node
// exponents depend only on the circuit and the per-variable weight
// exponents — NOT on the weights' mantissas — so one bottom-up fold
// (FoldDyadicExponents) bounds every mantissa the pass will ever hold
// BEFORE evaluating. When the bound fits a machine word, the whole batch
// runs on structure-of-arrays mantissa columns:
//
//   * per-node uniform exponents — the alignment shifts of a decision
//     node's two products are the same for all K columns, so the inner
//     loops carry no per-element branches and no per-element overflow
//     checks (the fold already proved overflow impossible);
//   * complements 2^E − m are a branch-free subtract from a hoisted
//     constant;
//   * products and sums are single (uint64) or two-limb (UInt128) integer
//     ops on contiguous arrays — the form compilers auto-vectorize.
//
// Batches whose global bound is too wide are re-examined per column (a
// column's own weight exponents give a private, often much smaller bound):
// columns that fit a fixed width individually run through the fixed kernel
// one at a time, and only the remainder pays for the BigInt Dyadic arena.
// Every path is exact; results are bit-identical across paths, widths, and
// thread counts.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "util/check.h"
#include "util/dyadic_fixed.h"
#include "util/parallel.h"

namespace gmc {

namespace {

// Exponent saturation cap: far above any width the fixed kernels accept,
// far below uint64 wraparound even when summed over a whole circuit.
constexpr uint64_t kExponentCap = uint64_t{1} << 32;

constexpr uint64_t kFixed64MaxExponent = 63;
constexpr uint64_t kFixed128MaxExponent = 127;

// Columns per slice for the fixed kernels: cheaper per column than the
// BigInt arena, so slices need more columns to amortize their arena.
constexpr int64_t kMinFixedColumnsPerSlice = 16;
// Deadline-poll stride, mirroring nnf_walk.cc's arena loops.
constexpr size_t kCancelNodeStride = 64;

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return std::min(kExponentCap, std::min(kExponentCap, a) + b);
}

// Exponent of a dyadic Rational's denominator (0 for integers). The
// caller has checked AllDyadic, so the denominator is 1 or a power of two.
uint64_t DenominatorExponent(const Rational& value) {
  const BigInt& den = value.denominator();
  return den.IsOne() ? 0 : den.BitLength() - 1;
}

// ----- word-level ops, uniform across uint64_t and UInt128 ---------------

inline uint64_t WordMul(uint64_t a, uint64_t b) { return a * b; }
inline UInt128 WordMul(UInt128 a, UInt128 b) { return UInt128::Mul(a, b); }
inline uint64_t WordShl(uint64_t a, unsigned s) { return a << s; }
inline UInt128 WordShl(UInt128 a, unsigned s) { return a.Shl(s); }

template <typename M>
M WordFromBigInt(const BigInt& value);
template <>
uint64_t WordFromBigInt<uint64_t>(const BigInt& value) {
  return value.Bits64At(0);
}
template <>
UInt128 WordFromBigInt<UInt128>(const BigInt& value) {
  return UInt128::FromBigInt(value);
}

Rational WordToRational(uint64_t mantissa, uint64_t exponent) {
  if (mantissa == 0) return Rational::Zero();
  const uint64_t strip = std::min(
      static_cast<uint64_t>(std::countr_zero(mantissa)), exponent);
  const uint64_t m = mantissa >> strip;
  // m is odd or the denominator is 1, so the parts are already coprime.
  BigInt numerator(static_cast<int64_t>(m >> 1));
  numerator.ShiftLeftInPlace(1);
  numerator += BigInt(static_cast<int64_t>(m & 1));
  return Rational::FromReducedParts(std::move(numerator),
                                    BigInt(1).ShiftLeft(exponent - strip));
}

Rational WordToRational(UInt128 mantissa, uint64_t exponent) {
  if (mantissa.IsZero()) return Rational::Zero();
  const uint64_t strip =
      std::min(static_cast<uint64_t>(mantissa.CountTrailingZeros()), exponent);
  return Rational::FromReducedParts(
      mantissa.Shr(static_cast<unsigned>(strip)).ToBigInt(),
      BigInt(1).ShiftLeft(exponent - strip));
}

// FoldDyadicExponents propagates per-variable weight exponents bottom-up
// (saturating), filling one exponent per node, and returns the maximum —
// the mantissa-width bound that picks the kernel.
uint64_t FoldDyadicExponents(const CircuitWalkView& view,
                             const std::vector<uint64_t>& var_exp,
                             std::vector<uint64_t>* node_exp) {
  node_exp->assign(view.num_nodes, 0);
  uint64_t max_exp = 0;
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const FlatNode& node = view.nodes[id];
    uint64_t e = 0;
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
      case NnfKind::kTrue:
        break;
      case NnfKind::kVar:
        e = var_exp[node.var];
        break;
      case NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        for (int32_t c = 0; c < node.b; ++c) {
          e = SaturatingAdd(e, (*node_exp)[child_ids[c]]);
        }
        break;
      }
      case NnfKind::kDecision:
        e = SaturatingAdd(
            var_exp[node.var],
            std::max((*node_exp)[node.a], (*node_exp)[node.b]));
        break;
    }
    (*node_exp)[id] = e;
    max_exp = std::max(max_exp, e);
  }
  return max_exp;
}

// EvaluateBatchDyadicFixed runs the whole batch on `M` mantissas
// (uint64_t or UInt128) under the folded exponents.
template <typename M>
std::vector<Rational> EvaluateBatchDyadicFixed(
    const CircuitWalkView& view, const WeightMatrix& weights, int num_threads,
    const std::vector<uint64_t>& var_exp,
    const std::vector<uint64_t>& node_exp, const CancelToken* cancel) {
  const int num_k = weights.num_vectors();
  const int num_vars = view.num_vars;

  // SoA weight columns, aligned per variable to var_exp[v], plus the
  // complement columns 2^E − m for decision variables — all branch-free.
  // Variables no node mentions are skipped: the pass never reads them, and
  // their exponents are outside the fold's width guarantee.
  std::vector<bool> used(static_cast<size_t>(num_vars), false);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const FlatNode& node = view.nodes[id];
    const NnfKind kind = static_cast<NnfKind>(node.kind);
    if (kind == NnfKind::kVar || kind == NnfKind::kDecision) {
      used[node.var] = true;
    }
  }
  std::vector<M> probability(static_cast<size_t>(num_vars) * num_k);
  std::vector<M> complement(static_cast<size_t>(num_vars) * num_k);
  const std::vector<bool> decides = walk_internal::WalkDecisionVars(view);
  ParallelFor(
      num_vars, num_threads, 8,
      [&](int64_t v0, int64_t v1, int /*chunk*/) {
        for (int64_t v = v0; v < v1; ++v) {
          if (!used[v]) continue;
          const Rational* column = weights.Column(static_cast<int>(v));
          const uint64_t target = var_exp[v];
          M* out = probability.data() + static_cast<size_t>(v) * num_k;
          for (int k = 0; k < num_k; ++k) {
            const uint64_t e = DenominatorExponent(column[k]);
            out[k] = WordShl(WordFromBigInt<M>(column[k].numerator()),
                             static_cast<unsigned>(target - e));
          }
          if (!decides[v]) continue;
          const M one_at_e = WordShl(M(1), static_cast<unsigned>(target));
          M* comp = complement.data() + static_cast<size_t>(v) * num_k;
          for (int k = 0; k < num_k; ++k) comp[k] = one_at_e - out[k];
        }
      });

  // The topological pass, column-sliced over the pool. Each slice owns a
  // contiguous nodes × W mantissa arena; exponents are shared per node.
  std::vector<M> roots(num_k);
  ParallelFor(
      num_k, num_threads, kMinFixedColumnsPerSlice,
      [&](int64_t k0_64, int64_t k1_64, int /*chunk*/) {
        const int k0 = static_cast<int>(k0_64);
        const int num_w = static_cast<int>(k1_64 - k0_64);
        std::vector<M> value(view.num_nodes * num_w);
        for (size_t id = 0; id < view.num_nodes; ++id) {
          if (cancel != nullptr && (id % kCancelNodeStride) == 0 &&
              cancel->Poll()) {
            return;  // caller discards the batch — nnf_walk.h contract
          }
          const FlatNode& node = view.nodes[id];
          M* out = value.data() + id * num_w;
          switch (static_cast<NnfKind>(node.kind)) {
            case NnfKind::kFalse:
              break;  // zero-initialized
            case NnfKind::kTrue:
              for (int k = 0; k < num_w; ++k) out[k] = M(1);
              break;
            case NnfKind::kVar: {
              const M* p = probability.data() +
                           static_cast<size_t>(node.var) * num_k + k0;
              for (int k = 0; k < num_w; ++k) out[k] = p[k];
              break;
            }
            case NnfKind::kAnd: {
              const int32_t* child_ids = view.children + node.a;
              const M* first =
                  value.data() + static_cast<size_t>(child_ids[0]) * num_w;
              for (int k = 0; k < num_w; ++k) out[k] = first[k];
              for (int32_t c = 1; c < node.b; ++c) {
                const M* child =
                    value.data() + static_cast<size_t>(child_ids[c]) * num_w;
                for (int k = 0; k < num_w; ++k) {
                  out[k] = WordMul(out[k], child[k]);
                }
              }
              break;
            }
            case NnfKind::kDecision: {
              const M* p = probability.data() +
                           static_cast<size_t>(node.var) * num_k + k0;
              const M* q = complement.data() +
                           static_cast<size_t>(node.var) * num_k + k0;
              const M* high =
                  value.data() + static_cast<size_t>(node.a) * num_w;
              const M* low =
                  value.data() + static_cast<size_t>(node.b) * num_w;
              // Shift amounts are per NODE, not per element: both branch
              // products rise to the node exponent with one uniform shift
              // each (one of the two is always zero).
              const uint64_t ve = var_exp[node.var];
              const unsigned sa = static_cast<unsigned>(
                  node_exp[id] - (ve + node_exp[node.a]));
              const unsigned sb = static_cast<unsigned>(
                  node_exp[id] - (ve + node_exp[node.b]));
              for (int k = 0; k < num_w; ++k) {
                out[k] = WordShl(WordMul(p[k], high[k]), sa) +
                         WordShl(WordMul(q[k], low[k]), sb);
              }
              break;
            }
          }
        }
        const M* root = value.data() + static_cast<size_t>(view.root) * num_w;
        for (int k = 0; k < num_w; ++k) roots[k0 + k] = root[k];
      });

  // Keep the size contract on cancellation (the caller discards) without
  // converting partial mantissas.
  if (cancel != nullptr && cancel->cancelled()) {
    return std::vector<Rational>(num_k);
  }
  const uint64_t root_exp = node_exp[view.root];
  std::vector<Rational> result;
  result.reserve(num_k);
  for (int k = 0; k < num_k; ++k) {
    result.push_back(WordToRational(roots[k], root_exp));
  }
  return result;
}

}  // namespace

std::vector<Rational> WalkEvaluateBatchDyadic(const CircuitWalkView& view,
                                              const WeightMatrix& weights,
                                              int num_threads,
                                              DyadicBatchStats* stats,
                                              const CancelToken* cancel) {
  GMC_CHECK(weights.num_vars() >= view.num_vars);
  const int num_k = weights.num_vectors();
  const int num_vars = view.num_vars;
  auto report = [stats](int fixed64, int fixed128, int bigint) {
    if (stats == nullptr) return;
    stats->fixed64_vectors += fixed64;
    stats->fixed128_vectors += fixed128;
    stats->bigint_vectors += bigint;
  };

  // The fixed kernels' probability invariant needs weights in [0, 1];
  // anything else (legal for plain WMC) keeps the BigInt arena.
  bool unit_range = true;
  std::vector<uint64_t> var_exp(static_cast<size_t>(num_vars), 0);
  for (int v = 0; v < num_vars && unit_range; ++v) {
    const Rational* column = weights.Column(v);
    for (int k = 0; k < num_k; ++k) {
      const Rational& p = column[k];
      GMC_CHECK_MSG(p.denominator().IsOne() || p.denominator().IsPowerOfTwo(),
                    "EvaluateBatchDyadic needs all-dyadic weights "
                    "(WeightMatrix::AllDyadic)");
      if (p.sign() < 0 || p.denominator() < p.numerator()) {
        unit_range = false;
        break;
      }
      var_exp[v] = std::max(var_exp[v], DenominatorExponent(p));
    }
  }
  if (!unit_range) {
    report(0, 0, num_k);
    return walk_internal::WalkEvaluateBatchDyadicBig(view, weights,
                                                     num_threads, cancel);
  }

  // Width selection: one fold with the batch-wide per-variable exponents.
  std::vector<uint64_t> node_exp;
  const uint64_t bound = FoldDyadicExponents(view, var_exp, &node_exp);
  if (bound <= kFixed64MaxExponent) {
    report(num_k, 0, 0);
    return EvaluateBatchDyadicFixed<uint64_t>(view, weights, num_threads,
                                              var_exp, node_exp, cancel);
  }
  if (bound <= kFixed128MaxExponent) {
    report(0, num_k, 0);
    return EvaluateBatchDyadicFixed<UInt128>(view, weights, num_threads,
                                             var_exp, node_exp, cancel);
  }

  // Too wide as one batch — classify per column: a column's private
  // exponents often fit a fixed width even when the batch-wide max does
  // not (mixed-precision sweeps). This is the per-column fallback: fixed
  // width where the fold proves it safe, BigInt Dyadic for the rest.
  std::vector<uint64_t> col_exp(static_cast<size_t>(num_vars));
  std::vector<uint64_t> col_node_exp;
  std::vector<int> fits64, fits128, needs_big;
  for (int k = 0; k < num_k; ++k) {
    for (int v = 0; v < num_vars; ++v) {
      col_exp[v] = DenominatorExponent(weights.Column(v)[k]);
    }
    const uint64_t col_bound =
        FoldDyadicExponents(view, col_exp, &col_node_exp);
    if (col_bound <= kFixed64MaxExponent) {
      fits64.push_back(k);
    } else if (col_bound <= kFixed128MaxExponent) {
      fits128.push_back(k);
    } else {
      needs_big.push_back(k);
    }
  }
  // Splitting pays only if it diverts real work off the BigInt arena: when
  // most columns need BigInt anyway, the gather/scatter and the sub-batch
  // bookkeeping cost more than the few diverted columns save — run the
  // whole batch on the arena and keep the pass monolithic.
  if ((fits64.size() + fits128.size()) * 4 < static_cast<size_t>(num_k)) {
    report(0, 0, num_k);
    return walk_internal::WalkEvaluateBatchDyadicBig(view, weights,
                                                     num_threads, cancel);
  }
  report(static_cast<int>(fits64.size()), static_cast<int>(fits128.size()),
         static_cast<int>(needs_big.size()));

  // Gather a column subset into a dense sub-batch.
  auto gather = [&](const std::vector<int>& columns) {
    WeightMatrix sub(static_cast<int>(columns.size()), weights.num_vars());
    for (size_t m = 0; m < columns.size(); ++m) {
      for (int v = 0; v < weights.num_vars(); ++v) {
        sub.Set(static_cast<int>(m), v, weights.Column(v)[columns[m]]);
      }
    }
    return sub;
  };
  std::vector<Rational> result(num_k);
  auto scatter = [&](const std::vector<int>& columns,
                     std::vector<Rational> values) {
    for (size_t m = 0; m < columns.size(); ++m) {
      result[columns[m]] = std::move(values[m]);
    }
  };

  // A gathered fixed-width class re-folds with the CLASS's max exponents:
  // usually the class is exponent-homogeneous and one batch suffices; if
  // the joint bound spills anyway, its columns run one at a time (each
  // one's private fold already proved it safe).
  auto run_fixed_class = [&](const std::vector<int>& columns,
                             uint64_t max_exponent) {
    if (columns.empty()) return;
    WeightMatrix sub = gather(columns);
    std::vector<uint64_t> sub_exp(static_cast<size_t>(num_vars), 0);
    for (int v = 0; v < num_vars; ++v) {
      for (size_t m = 0; m < columns.size(); ++m) {
        sub_exp[v] = std::max(sub_exp[v], DenominatorExponent(
                                              weights.Column(v)[columns[m]]));
      }
    }
    std::vector<uint64_t> sub_node_exp;
    const uint64_t sub_bound =
        FoldDyadicExponents(view, sub_exp, &sub_node_exp);
    if (sub_bound <= max_exponent) {
      std::vector<Rational> values =
          max_exponent <= kFixed64MaxExponent
              ? EvaluateBatchDyadicFixed<uint64_t>(view, sub, num_threads,
                                                   sub_exp, sub_node_exp,
                                                   cancel)
              : EvaluateBatchDyadicFixed<UInt128>(view, sub, num_threads,
                                                  sub_exp, sub_node_exp,
                                                  cancel);
      scatter(columns, std::move(values));
      return;
    }
    for (int k : columns) {
      if (cancel != nullptr && cancel->cancelled()) return;
      std::vector<Rational> one = WalkEvaluateBatchDyadic(
          view, gather({k}), num_threads, nullptr, cancel);
      result[k] = std::move(one[0]);
    }
  };
  run_fixed_class(fits64, kFixed64MaxExponent);
  run_fixed_class(fits128, kFixed128MaxExponent);
  if (!needs_big.empty() && (cancel == nullptr || !cancel->cancelled())) {
    scatter(needs_big, walk_internal::WalkEvaluateBatchDyadicBig(
                           view, gather(needs_big), num_threads, cancel));
  }
  return result;
}

}  // namespace gmc
