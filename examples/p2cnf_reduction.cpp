// The headline result, end to end: counting the models of a P2CNF formula
// through a Pr(Q) oracle for an unsafe query (Theorem 3.1's Cook
// reduction), with every intermediate artifact printed. Exits 1 if the
// recovered count differs from brute force.
//
//   ./p2cnf_reduction

#include <cstdio>

#include "core/dichotomy.h"
#include "hardness/small_matrix.h"
#include "logic/parser.h"

int main() {
  using namespace gmc;
  Query h1 = ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  std::printf("query Q: %s\n", h1.ToString().c_str());
  std::printf("         %s\n\n", Classify(h1).summary.c_str());

  // The one-link small matrix A(1) and the design conditions of Thm 3.14.
  RationalMatrix a1 = ComputeA1(h1);
  std::printf("small matrix A(1):\n%s", a1.ToString().c_str());
  DesignConditionReport design = CheckDesignConditions(a1);
  std::printf("design conditions: %s\n\n", design.ToString().c_str());

  // Φ = (X0|X1)(X1|X2)(X0|X2)(X2|X3): a P2CNF instance.
  P2Cnf phi;
  phi.num_vars = 4;
  phi.edges = {{0, 1}, {1, 2}, {0, 2}, {2, 3}};
  std::printf("Phi = %s  over %d variables\n", phi.ToString().c_str(),
              phi.num_vars);
  std::printf("brute-force #Phi = %s\n\n",
              CountSatisfying(phi).ToString().c_str());

  Type1ReductionResult result = DemonstrateHardness(h1, phi);
  std::printf("reduction: %d oracle calls, big matrix %s, solution %s\n",
              result.oracle_calls,
              result.big_matrix_nonsingular ? "non-singular" : "SINGULAR",
              result.solution_integral ? "integral" : "NON-INTEGRAL");
  std::printf("recovered signature counts #k' (k00, k01+10, k11):\n");
  for (const auto& [signature, count] : result.signature_counts) {
    std::printf("  (%d, %d, %d) -> %s\n", signature[0], signature[1],
                signature[2], count.ToString().c_str());
  }
  const bool matches = result.model_count == CountSatisfying(phi);
  std::printf("recovered #Phi = %s  (matches brute force: %s)\n",
              result.model_count.ToString().c_str(), matches ? "yes" : "NO");
  return matches ? 0 : 1;
}
