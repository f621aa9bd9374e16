// d-DNNF arithmetic circuits — the knowledge-compilation target.
//
// A grounded lineage compiled once into a smooth-enough circuit can be
// re-evaluated at many tuple-probability settings in one linear bottom-up
// pass each — exactly the workload of the interpolation-based hardness
// reductions, which probe the same gadget lineage at many weight vectors.
//
// Node kinds: constants, variable leaves, decomposable AND (children have
// pairwise disjoint variable supports — the component splits of the
// compiler), and Shannon decision nodes (var ? high : low), which are the
// deterministic ORs: the two branches disagree on the decision variable, so
// their models are disjoint and probabilities add as
//   p(var)·Pr[high] + (1 − p(var))·Pr[low].
// Variables absent from a subcircuit are implicitly marginalized (their
// factor is p + (1 − p) = 1), so no explicit smoothing nodes are needed for
// weighted model counting.
//
// Nodes are hash-consed: structurally identical nodes share one id, and
// children always precede their parents, so ascending id order is a
// topological order — Evaluate and the structural audits are single passes.
// The nodes ARE the walk core's flat records (FlatNode, nnf_walk.h) plus one
// child-id pool, so every evaluation walks view() in place.

#ifndef GMC_COMPILE_NNF_H_
#define GMC_COMPILE_NNF_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "compile/nnf_walk.h"
#include "util/rational.h"

namespace gmc {

/// Node kinds of the d-DNNF circuit (see the header comment for their
/// semantics).
enum class NnfKind : uint8_t { kFalse, kTrue, kVar, kAnd, kDecision };

/// K weight vectors over V variables — the input of the batched evaluator.
/// Storage is variable-major (the K values of one variable are contiguous),
/// so the per-node inner loops of EvaluateBatch stream one contiguous column
/// instead of striding across K separate vectors. Value type (owns its
/// entries); safe for concurrent reads once filled, mutation (Set) is
/// single-threaded.
class WeightMatrix {
 public:
  /// A K×V matrix of zero weights; fill with Set.
  WeightMatrix(int num_vectors, int num_vars);

  /// Builds from K row vectors (one weight vector per row, all the same
  /// length). Aborts on an empty or ragged input.
  static WeightMatrix FromRows(const std::vector<std::vector<Rational>>& rows);

  int num_vectors() const { return num_vectors_; }
  int num_vars() const { return num_vars_; }

  /// Value of variable `var` in weight vector `k`.
  const Rational& at(int k, int var) const {
    return values_[static_cast<size_t>(var) * num_vectors_ + k];
  }
  void Set(int k, int var, Rational value) {
    values_[static_cast<size_t>(var) * num_vectors_ + k] = std::move(value);
  }

  /// The K contiguous values of one variable.
  const Rational* Column(int var) const {
    return values_.data() + static_cast<size_t>(var) * num_vectors_;
  }
  /// The same, writable: a batch filled in place copies each weight
  /// straight into its cell.
  Rational* MutableColumn(int var) {
    return values_.data() + static_cast<size_t>(var) * num_vectors_;
  }

  /// One weight vector, re-assembled (loop comparisons in tests and
  /// benchmarks).
  std::vector<Rational> Row(int k) const;

 private:
  int num_vectors_ = 0;
  int num_vars_ = 0;
  std::vector<Rational> values_;  // values_[var * num_vectors_ + k]
};

/// Per-call routing report of EvaluateBatchDyadic: how many of the K weight
/// vectors were served by each route. The route is chosen once per batch,
/// so one counter takes all K; CircuitCache aggregates them into its stats.
struct DyadicBatchStats {
  int fixed64_vectors = 0;   // raw uint64 mantissas
  int fixed128_vectors = 0;  // two-limb UInt128 mantissas
  int bigint_vectors = 0;    // BigInt mantissas (arbitrary precision)
  /// The Rational walk: the fold read a weight without a power-of-two
  /// denominator, or saturated.
  int rational_vectors = 0;
};

/// One d-DNNF circuit.
///
/// Ownership: plain value type — the node records and the child pool live
/// inside the object, copies are deep and independent, and nothing
/// returned by the accessors (view() included) outlives the circuit or
/// survives its next mutation.
///
/// The hash-consing index is build-time state: PruneUnreachable (the last
/// step of every compile and minimization) releases it and the node
/// constructors re-derive it when empty, so a finished or loaded circuit
/// holds only its two arrays.
///
/// Thread safety: construction and mutation (Var/And/Decision/SetRoot/
/// PruneUnreachable) are single-threaded; every evaluation entry point is
/// const and safe to call concurrently from any number of threads (the
/// batch passes additionally parallelize internally over the shared
/// pool, bit-identically at any thread count).
///
/// Exactness: Evaluate, EvaluateBatch, and EvaluateBatchDyadic return
/// exact canonical Rationals — bit-identical to one another on the same
/// weights; EvaluateBatchInterval returns certified enclosures of them.
class NnfCircuit {
 public:
  /// Structural summary, computed by ComputeStats in one pass.
  struct Stats {
    size_t num_nodes = 0;
    size_t var_nodes = 0;
    size_t and_nodes = 0;
    size_t decision_nodes = 0;
    size_t edges = 0;
    int depth = 0;  ///< longest root-to-leaf path, 0 for a bare constant
  };

  /// Every circuit owns nodes 0 = FALSE and 1 = TRUE.
  NnfCircuit();

  int False() const { return 0; }
  int True() const { return 1; }

  /// Node constructors. All are hash-consed and constant-folding:
  ///   And: drops TRUE children, collapses to FALSE on any FALSE child,
  ///        sorts children canonically, unwraps singletons;
  ///   Decision: high == low folds the test away, (TRUE, FALSE) is Var(var).
  int Var(int var);
  int And(std::vector<int> children);
  int Decision(int var, int high, int low);

  void SetRoot(int id);
  int root() const { return root_; }
  /// The node records in id order. A decision's a/b are its high/low
  /// branches; an AND's a/b are its offset and count in the child pool.
  const std::vector<FlatNode>& nodes() const { return nodes_; }
  /// The child ids of node `id` when it is an AND; empty otherwise.
  std::span<const int32_t> children(size_t id) const;
  size_t num_nodes() const { return nodes_.size(); }
  /// 1 + the largest variable id mentioned (0 for constant circuits).
  int num_vars() const { return num_vars_; }
  /// The walk view over this circuit's own arrays: what every evaluation
  /// entry point below runs on, and what the store encodes.
  CircuitWalkView view() const {
    return CircuitWalkView{nodes_.data(),    nodes_.size(), children_.data(),
                           children_.size(), root_,         num_vars_};
  }

  /// Weighted model count in one bottom-up pass: the probability that the
  /// circuit is satisfied when variable v is independently true with
  /// probability probabilities[v]. Callable any number of times with
  /// different weight vectors; this is the compile-once / evaluate-many
  /// payoff.
  Rational Evaluate(const std::vector<Rational>& probabilities) const;

  /// Batched weighted model count: all K weight vectors in ONE topological
  /// pass. The scratch arena is a contiguous row-major block (K values per
  /// node), node metadata is decoded once per node instead of once per
  /// (node, vector), and decision complements 1 − p are computed once per
  /// (variable, vector) instead of once per (decision node, vector) — the
  /// interpolation sweeps of the hardness reductions probe hundreds of weight
  /// vectors against one gadget circuit, which is exactly this shape.
  /// Returns the K root values in input order.
  ///
  /// All three batch evaluators are column-parallel: the K weight vectors
  /// are split into contiguous column slices and each slice runs the full
  /// topological pass over its own arena on one worker of the shared pool
  /// (util/parallel.h). Columns never interact — no value depends on
  /// another weight vector — so results are BIT-IDENTICAL at every thread
  /// count. `num_threads`: 0 = process default (DefaultNumThreads, i.e. the
  /// GMC_THREADS knob), 1 = serial, n = at most n slices.
  ///
  /// `cancel` (all three batch evaluators): optional request-deadline token
  /// polled periodically inside every column slice. A pass that finishes
  /// with the token unfired is bit-identical to an uncancelled one; once
  /// it fires the return value is meaningless and the caller must discard
  /// it after checking cancel->cancelled() — see nnf_walk.h.
  std::vector<Rational> EvaluateBatch(const WeightMatrix& weights,
                                      int num_threads = 0,
                                      const CancelToken* cancel =
                                          nullptr) const;

  /// Exact dyadic fast path of EvaluateBatch: the same topological pass over
  /// dyadic (mantissa · 2^-exp) values, so the inner loops are straight
  /// integer streaming — no gcd and no per-operation canonicalization
  /// anywhere. Results are bit-identical to EvaluateBatch on the same
  /// weights, whatever the weights.
  ///
  /// One fold over the circuit, BEFORE evaluating, gives every node its
  /// exponent E under the batch's weight exponents, and picks the route for
  /// the whole batch (nnf_fixed.cc). Circuit values are probabilities, so
  /// with every weight in [0, 1] a node's mantissa is at most 2^E: a bound
  /// of at most 63 bits runs on uint64 mantissas, at most 127 on two-limb
  /// UInt128 (branch-free SoA loops with no per-operation overflow checks,
  /// see util/dyadic_fixed.h). Every other batch runs the same kernel on
  /// BigInt mantissas. The fold reads the columns of the circuit's
  /// variables (v < num_vars()); a weight there without a power-of-two
  /// denominator saturates it, and a saturated fold runs the Rational walk
  /// instead. `stats`, if non-null, reports the route.
  std::vector<Rational> EvaluateBatchDyadic(
      const WeightMatrix& weights, int num_threads = 0,
      DyadicBatchStats* stats = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// Certified fast path: the arena pass in double arithmetic with every
  /// flop outward-rounded, returning per-column enclosures [lo, hi] that
  /// PROVABLY contain the exact answer (see nnf_interval.cc for the
  /// argument). About 3× the cost of the same pass unrounded on C9 3×3 at
  /// K = 64 (bench_anytime; BM_AnytimeCrossCheck fails past 5×). Weights
  /// must be probabilities in [0, 1]; aborts otherwise. The certified tier
  /// of RoutingMode::kInterval.
  std::vector<ProbInterval> EvaluateBatchInterval(
      const WeightMatrix& weights, int num_threads = 0,
      const CancelToken* cancel = nullptr) const;

  /// An owning copy of a flat view's two arrays. TRUSTED input: the view
  /// must be structurally valid (children precede parents, indices in
  /// range, nodes 0/1 the constants) — the store validates before calling;
  /// in-process callers should only feed back another circuit's view().
  static NnfCircuit FromFlat(const CircuitWalkView& view);

  /// Order-independent structural fingerprint of the DAG under the root
  /// (see WalkFingerprint): invariant under node renumbering, cheap (one
  /// linear pass), and the save→load round-trip check of the store.
  uint64_t Fingerprint() const;

  Stats ComputeStats() const;

  /// Deterministic size of this circuit in bytes: the object plus 16 per
  /// node record and 4 per child-pool entry, counting elements rather than
  /// allocator capacities so the same circuit always reports the same
  /// number — the accounting unit of CircuitCache's max_resident_bytes
  /// eviction.
  size_t MemoryBytes() const;

  /// Structural audits (tests): AND children have pairwise disjoint variable
  /// supports (decomposability); no decision branch mentions its decision
  /// variable (so the Shannon split is a genuine deterministic OR).
  bool CheckDecomposable() const;
  bool CheckDeterministic() const;

  /// Drops nodes unreachable from the root (constant folding can orphan
  /// subcircuits, e.g. component nodes built before a FALSE sibling
  /// collapsed their AND) and renumbers the rest, keeping children before
  /// parents, into exactly sized arrays; releases the hash-consing index.
  /// Evaluate cost is proportional to node count, so the compiler calls
  /// this once per compilation to keep the evaluate-many path lean.
  void PruneUnreachable();

  /// Graphviz dump of the subcircuit reachable from the root.
  std::string ToDot() const;

 private:
  // Hash-consing: returns the existing id of a structurally equal node or
  // appends `node` (an AND's `child_ids` to the pool). Buckets are compared
  // exactly, so sharing is sound even under hash collisions.
  int Intern(FlatNode node, std::span<const int32_t> child_ids = {});
  // Variable support of every node, as sorted id vectors (audits only).
  std::vector<std::vector<int>> Supports() const;
  // Reachability from the root (constants are always kept).
  std::vector<bool> Reachable() const;

  std::vector<FlatNode> nodes_;
  std::vector<int32_t> children_;  // AND child ids, in node order
  std::unordered_map<uint64_t, std::vector<int>> unique_;  // build-time only
  int root_ = 0;
  int num_vars_ = 0;
};

}  // namespace gmc

#endif  // GMC_COMPILE_NNF_H_
