// Flat, pointer-free circuit walks — the shared evaluation core.
//
// Every evaluation entry point of NnfCircuit (single, batched Rational,
// batched dyadic, interval) is one bottom-up topological pass over the
// node arena. This header factors those passes out of NnfCircuit into free
// functions over CircuitWalkView, a non-owning view of a circuit in FLAT
// form: fixed-size 16-byte node records plus one contiguous child-id pool,
// no per-node heap state anywhere. The three batch walks run one pass
// (compile/arena_pass.h) and differ only in their preambles, value types
// and AND and decision inner loops.
//
// NnfCircuit::view() hands out such views over the circuit's own node and
// child arrays (the flat form IS NnfCircuit's layout, so no evaluation
// copies anything). The circuit store validates a file's bytes as a view
// too, and NnfCircuit::FromFlat copies exactly those records, so a loaded
// circuit runs the identical code below on the identical records — which
// is what makes save→load→evaluate bit-identical to the in-memory result
// by construction.
//
// Preconditions: the view must be structurally valid — children precede
// parents, indices in range, nodes 0/1 the FALSE/TRUE constants.
// NnfCircuit's constructors guarantee this by construction; the store
// validates before handing out views (store/circuit_io.h). The walks do
// not re-validate.

#ifndef GMC_COMPILE_NNF_WALK_H_
#define GMC_COMPILE_NNF_WALK_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/cancel.h"
#include "util/rational.h"

namespace gmc {

class WeightMatrix;
struct DyadicBatchStats;

/// One flat circuit node: a fixed 16-byte record of four 32-bit words.
/// This is both the in-memory walk layout and the on-disk node record of
/// the circuit store (little-endian; see store/circuit_format.h), so a
/// file's node section copies into an arena without per-node decoding.
struct FlatNode {
  uint32_t kind = 0;  ///< NnfKind, widened to a fixed-size word
  int32_t var = -1;   ///< kVar and kDecision
  int32_t a = -1;     ///< kDecision: high branch. kAnd: first pool index.
  int32_t b = -1;     ///< kDecision: low branch. kAnd: child count (>= 2).
};
static_assert(sizeof(FlatNode) == 16, "FlatNode is the on-disk record");
static_assert(std::is_trivially_copyable_v<FlatNode>,
              "FlatNode must be memcpy-able");

/// Non-owning view of a flat circuit. Plain pointers + extents; copying
/// the view never copies the circuit. Safe for concurrent walks (all
/// walks are pure readers).
struct CircuitWalkView {
  const FlatNode* nodes = nullptr;
  size_t num_nodes = 0;
  const int32_t* children = nullptr;  ///< kAnd child-id pool
  size_t num_children = 0;
  int32_t root = 0;
  int32_t num_vars = 0;
};

/// A certified enclosure of one probability: lo <= exact <= hi, both ends
/// finite doubles in [0, 1]. Produced by the directed-rounding interval
/// walk; the width is the walk's honest error report (typically a few ulp
/// per circuit level).
struct ProbInterval {
  double lo = 0.0;
  double hi = 0.0;

  double width() const { return hi - lo; }
  double midpoint() const { return lo + (hi - lo) / 2; }
  bool Contains(double value) const { return lo <= value && value <= hi; }
};

/// The walks. Semantics, exactness, thread behaviour, and parameter
/// meanings are those of the NnfCircuit methods of the same name (nnf.h),
/// which call these on the circuit's own view().
///
/// `cancel` (optional, every batch walk): the request-deadline token,
/// polled every 64 arena nodes inside each column-parallel slice. A pass
/// that completes with the token unfired is bit-identical to one run with
/// cancel == nullptr; once the token fires, workers abandon their slices
/// and the returned values are MEANINGLESS (well-formed, but partial) —
/// the caller owns the check: test cancel->cancelled() after the pass and
/// discard the result on true. No walk ever returns wrong bits silently;
/// the contract is "finished and exact, or flagged cancelled".
Rational WalkEvaluate(const CircuitWalkView& view,
                      const std::vector<Rational>& probabilities);
std::vector<Rational> WalkEvaluateBatch(const CircuitWalkView& view,
                                        const WeightMatrix& weights,
                                        int num_threads,
                                        const CancelToken* cancel = nullptr);
std::vector<Rational> WalkEvaluateBatchDyadic(
    const CircuitWalkView& view, const WeightMatrix& weights, int num_threads,
    DyadicBatchStats* stats, const CancelToken* cancel = nullptr);
/// Directed-rounding interval pass (nnf_interval.cc): an arena walk in
/// double arithmetic with every flop outward-rounded, so each returned
/// interval PROVABLY contains the exact Rational answer, at about 3× the
/// cost of the same walk unrounded (C9 3×3, K = 64; bench_anytime).
/// Weights must be probabilities in [0, 1] (aborts otherwise);
/// column-parallel and deterministic at every thread count like the other
/// batch walks.
std::vector<ProbInterval> WalkEvaluateBatchInterval(
    const CircuitWalkView& view, const WeightMatrix& weights, int num_threads,
    const CancelToken* cancel = nullptr);

/// Order-independent structural fingerprint: a 64-bit hash of the circuit
/// REACHABLE from the root that is invariant under node renumbering (AND
/// children combine commutatively; a decision's branches stay ordered —
/// high/low are semantically distinct). Equal circuits-as-DAGs hash equal
/// regardless of arena order; save→load round-trips are verified against
/// it (cheap: one linear pass, no sorting).
uint64_t WalkFingerprint(const CircuitWalkView& view);

namespace walk_internal {
/// The dyadic kernel of nnf_fixed.cc forced to its BigInt mantissa width,
/// whatever the batch's exponent bound (a saturated bound still goes to
/// the Rational walk). Exposed so tests and benchmarks can compare the
/// word widths against it on the same weights.
std::vector<Rational> WalkEvaluateBatchDyadicBig(
    const CircuitWalkView& view, const WeightMatrix& weights, int num_threads,
    const CancelToken* cancel = nullptr);
/// decides[v] iff some decision node tests v (those variables need
/// complements 1 − p).
std::vector<bool> WalkDecisionVars(const CircuitWalkView& view);

/// The interval walk's pieces (nnf_interval.cc), exposed so tests can
/// fuzz each fast route against its reference.
///
/// The route rule: p >= 0 with numerator and denominator of at most 53
/// bits each takes BracketFast, every other weight BracketBig.
bool FitsBracketFast(const Rational& p);
/// The tight double pair [RD(p), RU(p)] of p = a/b — the largest double
/// <= p and the smallest >= p — in double arithmetic. Requires
/// 1 <= b < 2^53 and a <= b.
ProbInterval BracketFast(uint64_t a, uint64_t b);
/// The same tight pair for any probability p in [0, 1], by exact BigInt
/// comparison: a bounded number of steps at any numerator or denominator
/// size.
ProbInterval BracketBig(const Rational& p);
/// The next double toward −inf / +inf: bitwise what std::nextafter
/// returns, by a one-unit step on the bit pattern where that is the answer.
double StepDown(double x);
double StepUp(double x);
}  // namespace walk_internal

}  // namespace gmc

#endif  // GMC_COMPILE_NNF_WALK_H_
