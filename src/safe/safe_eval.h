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

#include "logic/query.h"
#include "prob/tid.h"
#include "util/rational.h"

namespace gmc {

// Pr_∆(Q) for a safe query; std::nullopt if the query is unsafe
// (Def. 2.4), in which case no PTIME algorithm exists unless FP = #P.
// Stateless: every call analyses the query and evaluates from scratch.
std::optional<Rational> LiftedProbability(const Query& query, const Tid& tid);

}  // namespace gmc

#endif  // GMC_SAFE_SAFE_EVAL_H_
