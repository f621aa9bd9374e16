// The dyadic batch kernel and its width choice (WalkEvaluateBatchDyadic,
// which NnfCircuit::EvaluateBatchDyadic runs on the circuit's own arrays).
//
// A dyadic weight is m · 2^-e. Node exponents depend only on the circuit
// and the per-variable weight exponents — NOT on the weights' mantissas —
// so one bottom-up fold (FoldDyadicExponents) fixes every node's exponent
// BEFORE evaluating, and the whole batch runs on structure-of-arrays
// mantissa columns under those exponents:
//
//   * per-node uniform exponents — the alignment shifts of a decision
//     node's two products are the same for all K columns, so the inner
//     loops carry no per-element branches;
//   * complements 2^E − m are one subtract from a hoisted constant;
//   * products and sums are plain integer ops on contiguous arrays.
//
// The same fold picks the mantissa width, once per batch. Every node value
// of a weighted model count over probabilities in [0, 1] is itself a
// probability, so a node with exponent E holds 0 <= m <= 2^E. With every
// weight in [0, 1], a bound of at most 63 (resp. 127) bits runs the kernel
// on raw uint64 (resp. two-limb UInt128) mantissas, with no per-element
// overflow checks and nothing that blocks auto-vectorization (see
// util/dyadic_fixed.h). Any other batch — a wider bound, or a weight
// outside [0, 1] — runs the same kernel on signed BigInt mantissas. The
// fold also picks the exact route: a weight without a power-of-two
// denominator in a column it reads saturates it, and a saturated fold
// sends the batch to the Rational walk. Every path is exact; results are
// bit-identical across routes, widths and thread counts.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "compile/arena_pass.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "util/bigint.h"
#include "util/check.h"
#include "util/dyadic_fixed.h"

namespace gmc {

namespace {

// Exponent saturation cap: far above any width a word kernel accepts, far
// below uint64 wraparound even when summed over a whole circuit. A fold
// that reaches it no longer states true node exponents, so no width runs
// under it.
constexpr uint64_t kExponentCap = uint64_t{1} << 32;

constexpr uint64_t kFixed64MaxExponent = 63;
constexpr uint64_t kFixed128MaxExponent = 127;

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return std::min(kExponentCap, std::min(kExponentCap, a) + b);
}

// Exponent of a dyadic Rational's denominator (0 for integers). The
// fold has checked that the denominator is 1 or a power of two.
uint64_t DenominatorExponent(const Rational& value) {
  const BigInt& den = value.denominator();
  return den.IsOne() ? 0 : den.BitLength() - 1;
}

// ----- mantissa ops, uniform across uint64_t, UInt128 and BigInt ---------

inline void ShiftLeft(uint64_t* a, uint64_t s) { *a <<= s; }
inline void ShiftLeft(UInt128* a, uint64_t s) {
  *a = a->Shl(static_cast<unsigned>(s));
}
inline void ShiftLeft(BigInt* a, uint64_t s) { a->ShiftLeftInPlace(s); }

template <typename M>
M MantissaFromBigInt(const BigInt& value);
template <>
uint64_t MantissaFromBigInt<uint64_t>(const BigInt& value) {
  return value.Bits64At(0);
}
template <>
UInt128 MantissaFromBigInt<UInt128>(const BigInt& value) {
  return UInt128::FromBigInt(value);
}
template <>
BigInt MantissaFromBigInt<BigInt>(const BigInt& value) {
  return value;
}

Rational MantissaToRational(uint64_t mantissa, uint64_t exponent) {
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

Rational MantissaToRational(UInt128 mantissa, uint64_t exponent) {
  if (mantissa.IsZero()) return Rational::Zero();
  const uint64_t strip =
      std::min(static_cast<uint64_t>(mantissa.CountTrailingZeros()), exponent);
  return Rational::FromReducedParts(
      mantissa.Shr(static_cast<unsigned>(strip)).ToBigInt(),
      BigInt(1).ShiftLeft(exponent - strip));
}

Rational MantissaToRational(BigInt mantissa, uint64_t exponent) {
  if (mantissa.IsZero()) return Rational::Zero();
  const uint64_t strip = std::min(mantissa.TrailingZeroBits(), exponent);
  mantissa.ShiftRightInPlace(strip);
  return Rational::FromReducedParts(std::move(mantissa),
                                    BigInt(1).ShiftLeft(exponent - strip));
}

// The batch's exponents: var_exp[v] is the largest denominator exponent
// among variable v's K weights, node_exp[id] the fold's exponent of node
// id, and bound the largest node exponent — the mantissa-width bound.
struct DyadicFold {
  std::vector<uint64_t> var_exp;
  std::vector<uint64_t> node_exp;
  uint64_t bound = 0;
  bool unit_range = true;  // every weight lies in [0, 1]
};

// Scans the weights of the circuit's variables and propagates their
// per-variable exponents bottom-up, saturating at kExponentCap. A weight
// without a power-of-two denominator has no exponent to propagate: it
// saturates the fold outright. Columns at or past view.num_vars are never
// read, here or by any pass.
DyadicFold FoldDyadicExponents(const CircuitWalkView& view,
                               const WeightMatrix& weights) {
  GMC_CHECK(weights.num_vars() >= view.num_vars);
  const int num_k = weights.num_vectors();
  DyadicFold fold;
  fold.var_exp.assign(static_cast<size_t>(view.num_vars), 0);
  for (int v = 0; v < view.num_vars; ++v) {
    const Rational* column = weights.Column(v);
    for (int k = 0; k < num_k; ++k) {
      const Rational& p = column[k];
      const BigInt& den = p.denominator();
      if (!den.IsOne() && !den.IsPowerOfTwo()) [[unlikely]] {
        fold.bound = kExponentCap;
        return fold;
      }
      if (p.sign() < 0 || den < p.numerator()) fold.unit_range = false;
      fold.var_exp[v] = std::max(fold.var_exp[v], DenominatorExponent(p));
    }
  }

  fold.node_exp.assign(view.num_nodes, 0);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const FlatNode& node = view.nodes[id];
    uint64_t e = 0;
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:
      case NnfKind::kTrue:
        break;
      case NnfKind::kVar:
        e = fold.var_exp[node.var];
        break;
      case NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        for (int32_t c = 0; c < node.b; ++c) {
          e = SaturatingAdd(e, fold.node_exp[child_ids[c]]);
        }
        break;
      }
      case NnfKind::kDecision:
        e = SaturatingAdd(fold.var_exp[node.var],
                          std::max(fold.node_exp[node.a],
                                   fold.node_exp[node.b]));
        break;
    }
    fold.node_exp[id] = e;
    fold.bound = std::max(fold.bound, e);
  }
  return fold;
}

// The dyadic arithmetic of the arena pass (arena_pass.h) on `M` mantissas
// (uint64_t, UInt128 or BigInt) under the folded exponents.
template <typename M>
struct DyadicKernel {
  using Value = M;
  const M* probability;  // aligned per variable to fold.var_exp
  const M* complement;   // 2^E − m
  const DyadicFold& fold;

  static M One() { return M(1); }
  static void And(M* out, const M* child, int num_w) {
    for (int k = 0; k < num_w; ++k) out[k] *= child[k];
  }
  void Decision(size_t id, const FlatNode& node, const M* p, const M* q,
                const M* high, const M* low, M* out, int num_w) const {
    // Shift amounts are per NODE, not per element: both branch products
    // rise to the node exponent with one uniform shift each (one of the
    // two is always zero).
    const uint64_t ve = fold.var_exp[node.var];
    const uint64_t sa = fold.node_exp[id] - (ve + fold.node_exp[node.a]);
    const uint64_t sb = fold.node_exp[id] - (ve + fold.node_exp[node.b]);
    for (int k = 0; k < num_w; ++k) {
      // In place, so a BigInt mantissa allocates nothing beyond the two
      // products.
      M t = p[k];
      t *= high[k];
      ShiftLeft(&t, sa);
      M u = q[k];
      u *= low[k];
      ShiftLeft(&u, sb);
      t += u;
      out[k] = std::move(t);
    }
  }
};

// Runs the whole batch on `M` mantissas under `fold`, which must not be
// saturated.
template <typename M>
std::vector<Rational> EvaluateBatchDyadicAt(const CircuitWalkView& view,
                                            const WeightMatrix& weights,
                                            int num_threads,
                                            const DyadicFold& fold,
                                            const CancelToken* cancel) {
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
  walk_internal::ForEachVariable(num_vars, num_threads, [&](int v) {
    if (!used[v]) return;
    const Rational* column = weights.Column(v);
    const uint64_t target = fold.var_exp[v];
    M* out = probability.data() + static_cast<size_t>(v) * num_k;
    for (int k = 0; k < num_k; ++k) {
      out[k] = MantissaFromBigInt<M>(column[k].numerator());
      ShiftLeft(&out[k], target - DenominatorExponent(column[k]));
    }
    if (!decides[v]) return;
    M one_at_e(1);
    ShiftLeft(&one_at_e, target);
    M* comp = complement.data() + static_cast<size_t>(v) * num_k;
    for (int k = 0; k < num_k; ++k) comp[k] = one_at_e - out[k];
  });

  std::vector<M> roots = walk_internal::ArenaPass(
      view, num_k, num_threads,
      DyadicKernel<M>{probability.data(), complement.data(), fold}, cancel);

  // Keep the size contract on cancellation (the caller discards) without
  // converting partial mantissas.
  if (cancel != nullptr && cancel->cancelled()) {
    return std::vector<Rational>(num_k);
  }
  const uint64_t root_exp = fold.node_exp[view.root];
  std::vector<Rational> result;
  result.reserve(num_k);
  for (int k = 0; k < num_k; ++k) {
    result.push_back(MantissaToRational(std::move(roots[k]), root_exp));
  }
  return result;
}

}  // namespace

std::vector<Rational> WalkEvaluateBatchDyadic(const CircuitWalkView& view,
                                              const WeightMatrix& weights,
                                              int num_threads,
                                              DyadicBatchStats* stats,
                                              const CancelToken* cancel) {
  const DyadicFold fold = FoldDyadicExponents(view, weights);
  const int num_k = weights.num_vectors();
  DyadicBatchStats unused;
  if (stats == nullptr) stats = &unused;
  if (fold.bound >= kExponentCap) {
    stats->rational_vectors += num_k;
    return WalkEvaluateBatch(view, weights, num_threads, cancel);
  }
  if (fold.unit_range && fold.bound <= kFixed64MaxExponent) {
    stats->fixed64_vectors += num_k;
    return EvaluateBatchDyadicAt<uint64_t>(view, weights, num_threads, fold,
                                           cancel);
  }
  if (fold.unit_range && fold.bound <= kFixed128MaxExponent) {
    stats->fixed128_vectors += num_k;
    return EvaluateBatchDyadicAt<UInt128>(view, weights, num_threads, fold,
                                          cancel);
  }
  stats->bigint_vectors += num_k;
  return EvaluateBatchDyadicAt<BigInt>(view, weights, num_threads, fold,
                                       cancel);
}

namespace walk_internal {

std::vector<Rational> WalkEvaluateBatchDyadicBig(const CircuitWalkView& view,
                                                 const WeightMatrix& weights,
                                                 int num_threads,
                                                 const CancelToken* cancel) {
  const DyadicFold fold = FoldDyadicExponents(view, weights);
  if (fold.bound >= kExponentCap) {
    return WalkEvaluateBatch(view, weights, num_threads, cancel);
  }
  return EvaluateBatchDyadicAt<BigInt>(view, weights, num_threads, fold,
                                       cancel);
}

}  // namespace walk_internal

}  // namespace gmc
