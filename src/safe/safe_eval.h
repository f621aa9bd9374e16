// Lifted (PTIME) evaluation of safe bipartite queries — the tractable side
// of the dichotomy (Theorem 2.1 / the two observations before Def. 2.4).
//
// A safe bipartite query decomposes into symbol-disjoint components each
// missing left or right clauses. A component with no right clauses is
// evaluated as Pr = Π_u Pr(G(u)) (the groundings G(u) touch disjoint
// tuples, hence are independent); each Pr(G(u)) Shannon-expands over the
// unary tuples at u and then applies Möbius' inversion over the implication
// lattice of the ∀y-subclause conjunctions (§C.2), with each lattice term
// factoring as Π_v over inner constants. Components with no left clauses
// are evaluated mirror-image. Everything is exact and polynomial in the
// domain size (exponential only in the fixed query size).

#ifndef GMC_SAFE_SAFE_EVAL_H_
#define GMC_SAFE_SAFE_EVAL_H_

#include <optional>
#include <vector>

#include "compile/circuit_cache.h"
#include "logic/query.h"
#include "prob/tid.h"
#include "util/rational.h"

namespace gmc {

class SafeEvaluator {
 public:
  struct Stats {
    int components = 0;
    int lattices_built = 0;
    int max_lattice_size = 0;
    // EvaluateMany accounting: how many assignments went through the
    // compiled (CircuitCache-backed) path vs the lifted per-TID algorithm.
    int compiled_assignments = 0;
    int lifted_assignments = 0;
  };

  // Pr_∆(Q) for a safe query; std::nullopt if the query is unsafe
  // (Def. 2.4), in which case no PTIME algorithm exists unless FP = #P.
  std::optional<Rational> Evaluate(const Query& query, const Tid& tid);

  // Repeated probability assignments over one query: Pr_∆(Q) for every TID,
  // in input order; std::nullopt if the query is unsafe. When every TID is
  // a GFOMC instance (Tid::IsGfomcInstance — probabilities in {0, 1/2, 1}),
  // grounding folds all certain tuples away and the assignments share
  // compact lineage structure, so they route through the caller's
  // `circuits`: each distinct grounded lineage compiles once and its
  // assignments are served by one batched circuit pass (the cache's
  // configuration — threads, order, store — applies). The compiled route
  // is gated on lineage size — safety promises a PTIME lifted plan, not a
  // small circuit, so oversized lineages and general-weight TIDs fall back
  // to the lifted per-TID algorithm, which remains the asymptotic contract.
  std::optional<std::vector<Rational>> EvaluateMany(
      const Query& query, const std::vector<Tid>& tids,
      CircuitCache& circuits);

  const Stats& stats() const { return stats_; }

 private:
  Stats stats_;
};

}  // namespace gmc

#endif  // GMC_SAFE_SAFE_EVAL_H_
