// The directed-rounding interval walk — the certified fast tier.
//
// The arena pass of arena_pass.h in double arithmetic: every value is an
// enclosure [lo, hi] and every floating-point operation is
// outward-rounded, so the returned interval
// PROVABLY contains the exact Rational answer on every column. The proof
// obligations, node by node:
//
//   * Weight leaves: each exact weight p gets the tight pair [RD(p), RU(p)]
//     — the largest double <= p and the smallest double >= p — by one of
//     two routes. When p = a/b with a and b of at most 53 bits, both
//     convert exactly, so d = a/b in double is the correctly rounded
//     quotient and fma(d, b, −a) = b·(d − p) rounds once from a multiple
//     of 2^-105 that cannot underflow: its sign says whether d is above,
//     below or on p, and the pair is d plus at most one neighbour one step
//     away. Wider weights take the BigInt route: a start within a few ulp
//     from each part's top 64 bits, then steps checked by exact
//     cross-multiplication — a bounded number at any size.
//   * Every flop: under round-to-nearest, fl(x op y) is within half an ulp
//     of x op y, so the next double in the right direction is a strict
//     outward bound. The step is one unit on the bit pattern — bits − 1
//     below a positive x, bits + 1 above a finite x with a clear sign bit
//     — which is exactly the value nextafter returns; the other inputs
//     (zero going down, negatives, NaN, +inf going up) still call
//     nextafter. No fesetround — the steps are portable, immune to
//     compiler reordering, and keep the pass thread-agnostic.
//   * Monotonicity: all circuit values are probabilities in [0, 1]
//     (children of a decomposable AND multiply, deterministic decisions
//     convex-combine), so lower bounds propagate through lower bounds and
//     upper through upper — no case split inside the inner loops — and
//     clamping to [0, 1] after each node is sound.
//
// The width of the result is the walk's honest error report: a few ulp per
// circuit level on gadget-scale circuits.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "compile/arena_pass.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "util/check.h"

namespace gmc {

namespace walk_internal {

double StepDown(double x) {
  if (x > 0.0) return std::bit_cast<double>(std::bit_cast<uint64_t>(x) - 1);
  return std::nextafter(x, -std::numeric_limits<double>::infinity());
}

double StepUp(double x) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  const auto bits = std::bit_cast<uint64_t>(x);
  // Every pattern below +inf's is a finite double with a clear sign bit.
  if (bits < std::bit_cast<uint64_t>(kInfinity)) {
    return std::bit_cast<double>(bits + 1);
  }
  return std::nextafter(x, kInfinity);
}

bool FitsBracketFast(const Rational& p) {
  return p.sign() >= 0 && p.numerator().BitLength() <= 53 &&
         p.denominator().BitLength() <= 53;
}

ProbInterval BracketFast(uint64_t a, uint64_t b) {
  const auto num = static_cast<double>(a);
  const auto den = static_cast<double>(b);
  const double d = num / den;
  const double excess = std::fma(d, den, -num);  // sign of d − p
  if (excess > 0.0) return {StepDown(d), d};
  if (excess < 0.0) return {d, StepUp(d)};
  return {d, d};
}

namespace {

// Sign of x − num/den for a finite x >= 0 (den > 0, num >= 0), exactly:
// x = m · 2^(e − 53) with m an integer, so compare m·den with num·2^(53−e).
// Every x the bracket visits is at most 1 + 2^-52, so 53 − e >= 52.
int CompareExact(double x, const BigInt& num, const BigInt& den) {
  if (x == 0.0) return num.IsZero() ? 0 : -1;
  int exponent = 0;
  const auto mantissa =
      static_cast<int64_t>(std::ldexp(std::frexp(x, &exponent), 53));
  const BigInt lhs = BigInt(mantissa) * den;
  const BigInt rhs = num.ShiftLeft(static_cast<uint64_t>(53 - exponent));
  return lhs < rhs ? -1 : (rhs < lhs ? 1 : 0);
}

}  // namespace

ProbInterval BracketBig(const Rational& p) {
  const BigInt& num = p.numerator();
  const BigInt& den = p.denominator();
  // Start within a few ulp of p: the quotient of the top 64 bits of each
  // part, rescaled. At the −1200 clamp any start rounds to 0, which is
  // RD(p) for every p that small.
  const uint64_t num_shift = std::max<uint64_t>(num.BitLength(), 64) - 64;
  const uint64_t den_shift = std::max<uint64_t>(den.BitLength(), 64) - 64;
  const int64_t scale = std::max<int64_t>(
      static_cast<int64_t>(num_shift) - static_cast<int64_t>(den_shift),
      -1200);
  double lo = std::min(
      1.0, std::ldexp(static_cast<double>(num.Bits64At(num_shift)) /
                          static_cast<double>(den.Bits64At(den_shift)),
                      static_cast<int>(scale)));
  while (CompareExact(lo, num, den) > 0) lo = StepDown(lo);
  while (CompareExact(StepUp(lo), num, den) <= 0) lo = StepUp(lo);
  return {lo, CompareExact(lo, num, den) == 0 ? lo : StepUp(lo)};
}

}  // namespace walk_internal

namespace {

using walk_internal::StepDown;
using walk_internal::StepUp;

double ClampLo(double x) { return x < 0.0 ? 0.0 : x; }
double ClampHi(double x) { return x > 1.0 ? 1.0 : x; }

constexpr const char kNeedsProbabilities[] =
    "EvaluateBatchInterval needs probabilities in [0, 1]";

// The brackets of p and, when `complement` is non-null, of 1 − p — each
// from its own exact value, so both are as tight as a double pair can be.
void BracketWeight(const Rational& p, ProbInterval* bracket,
                   ProbInterval* complement) {
  if (walk_internal::FitsBracketFast(p)) {
    const uint64_t a = p.numerator().Bits64At(0);
    const uint64_t b = p.denominator().Bits64At(0);
    GMC_CHECK_MSG(a <= b, kNeedsProbabilities);
    *bracket = walk_internal::BracketFast(a, b);
    if (complement != nullptr) {
      *complement = walk_internal::BracketFast(b - a, b);
    }
    return;
  }
  GMC_CHECK_MSG(p.IsProbability(), kNeedsProbabilities);
  *bracket = walk_internal::BracketBig(p);
  if (complement != nullptr) {
    *complement = walk_internal::BracketBig(Rational::One() - p);
  }
}

// The outward-rounded arithmetic of the arena pass (arena_pass.h).
struct IntervalKernel {
  using Value = ProbInterval;
  const ProbInterval* probability;
  const ProbInterval* complement;

  static ProbInterval One() { return {1.0, 1.0}; }
  static void And(ProbInterval* out, const ProbInterval* child, int num_w) {
    for (int k = 0; k < num_w; ++k) {
      // Nonnegative factors: lo·lo bounds below, hi·hi above.
      out[k].lo = ClampLo(StepDown(out[k].lo * child[k].lo));
      out[k].hi = ClampHi(StepUp(out[k].hi * child[k].hi));
    }
  }
  static void Decision(size_t /*id*/, const FlatNode& /*node*/,
                       const ProbInterval* p, const ProbInterval* q,
                       const ProbInterval* high, const ProbInterval* low,
                       ProbInterval* out, int num_w) {
    for (int k = 0; k < num_w; ++k) {
      const double t_lo = StepDown(p[k].lo * high[k].lo);
      const double u_lo = StepDown(q[k].lo * low[k].lo);
      const double t_hi = StepUp(p[k].hi * high[k].hi);
      const double u_hi = StepUp(q[k].hi * low[k].hi);
      out[k].lo = ClampLo(StepDown(t_lo + u_lo));
      out[k].hi = ClampHi(StepUp(t_hi + u_hi));
    }
  }
};

}  // namespace

std::vector<ProbInterval> WalkEvaluateBatchInterval(
    const CircuitWalkView& view, const WeightMatrix& weights, int num_threads,
    const CancelToken* cancel) {
  GMC_CHECK(weights.num_vars() >= view.num_vars);
  const int num_k = weights.num_vectors();

  // Weight and complement brackets, once per (variable, vector).
  const std::vector<bool> decides = walk_internal::WalkDecisionVars(view);
  const size_t cells = static_cast<size_t>(view.num_vars) * num_k;
  std::vector<ProbInterval> probability(cells);
  std::vector<ProbInterval> complement(cells);
  walk_internal::ForEachVariable(view.num_vars, num_threads, [&](int v) {
    const Rational* p = weights.Column(v);
    const size_t row = static_cast<size_t>(v) * num_k;
    for (int k = 0; k < num_k; ++k) {
      BracketWeight(p[k], &probability[row + k],
                    decides[v] ? &complement[row + k] : nullptr);
    }
  });
  return walk_internal::ArenaPass(
      view, num_k, num_threads,
      IntervalKernel{probability.data(), complement.data()}, cancel);
}

}  // namespace gmc
