// The two algebraic lemmas of §1 made executable.
//
// Lemma 1.1: a multivariate polynomial f ≢ 0 of degree ≤ 2 in each variable
// has a non-root with all coordinates in any three distinct constants
// {c1, c2, c3} — the paper instantiates these as {0, 1/2, 1}, which is why
// unsafe queries stay hard under the GFOMC probability restriction.
//
// Lemma 1.2: for the arithmetization y of a Boolean formula Y and two
// variables r, t, the 2×2 "small matrix" (y with r,t set to 00/01/10/11) is
// singular as a polynomial identity iff Y disconnects r from t.

#ifndef GMC_POLY_LEMMAS_H_
#define GMC_POLY_LEMMAS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "lineage/boolean_formula.h"
#include "poly/poly_matrix.h"
#include "poly/polynomial.h"

namespace gmc {

// The multilinear polynomial agreeing with the monotone CNF on {0,1}^n —
// equivalently Pr(cnf) as a function of the variable probabilities.
// Computed by compiling the CNF to a d-DNNF and evaluating the circuit in
// the polynomial semiring; intended for small formulas (single gadget
// links).
Polynomial ArithmetizeCnf(const Cnf& cnf);

// Lemma 1.1 witness: an assignment θ of all of f's variables with values in
// {c1,c2,c3} such that f[θ] ≠ 0. Aborts if f ≡ 0 or some degree exceeds 2
// (the lemma's preconditions). The constants must be pairwise distinct.
std::unordered_map<int, Rational> FindNonRoot(const Polynomial& f,
                                              const Rational& c1,
                                              const Rational& c2,
                                              const Rational& c3);

// Eq. (1): the small matrix [[y00, y01], [y10, y11]] of y w.r.t. r, t.
PolyMatrix SmallMatrix(const Polynomial& y, int var_r, int var_t);

// Lemma 1.2 test: det(small matrix) ≡ 0.
bool SmallMatrixSingular(const Polynomial& y, int var_r, int var_t);

}  // namespace gmc

#endif  // GMC_POLY_LEMMAS_H_
