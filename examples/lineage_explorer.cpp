// Lineage and arithmetization explorer: shows the Boolean-to-algebra bridge
// of §1.6 — block lineages, the arithmetization polynomial, the small
// matrix of Lemma 1.2, and Corollary 3.18's determinant factorization.
// Exits 1 if the §1.6 value is not the paper's 5/8 or the Lemma 1.1
// witness is a root.
//
//   ./lineage_explorer

#include <cstdio>

#include "hardness/small_matrix.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "poly/lemmas.h"
#include "prob/block.h"

int main() {
  using namespace gmc;
  Query h1 = ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");

  // One (x,y) pair: lineage (R∨S)∧(S∨T), arithmetization rt + s − rst.
  Tid pair(h1.vocab_ptr(), 1, 1, Rational::Half());
  Lineage lineage = Ground(h1, pair);
  std::printf("lineage over one pair: %s\n", lineage.cnf.ToString().c_str());
  Polynomial y = ArithmetizeCnf(lineage.cnf);
  std::printf("arithmetization: %s\n", y.ToString().c_str());
  const Rational half_pr = y.Evaluate(
      {{0, Rational::Half()}, {1, Rational::Half()}, {2, Rational::Half()}});
  std::printf("Pr at 1/2,...,1/2 = %s (paper: 5/8)\n\n",
              half_pr.ToString().c_str());

  // The block B_p(u,v) for growing p: lineage sizes and z-values.
  std::printf("%-4s %-10s %-14s %-14s %-14s\n", "p", "#vars", "z00(p)",
              "z01(p)", "z11(p)");
  RationalMatrix a1 = ComputeA1(h1);
  for (int p = 1; p <= 5; ++p) {
    IsolatedBlock block = MakeIsolatedBlock(h1.vocab_ptr(), {p});
    Lineage block_lineage = Ground(h1, block.tid);
    RationalMatrix ap = ComputeAp(a1, p);
    std::printf("%-4d %-10zu %-14s %-14s %-14s\n", p,
                block_lineage.variables.size(),
                ap.At(0, 0).ToString().c_str(),
                ap.At(0, 1).ToString().c_str(),
                ap.At(1, 1).ToString().c_str());
  }

  // Lemma 1.2 / Corollary 3.18: the determinant polynomial factors as
  // c·Π u(1−u); its non-vanishing on (0,1)^N is what makes the gadget work.
  Polynomial det = SmallMatrixDetPolynomial(h1);
  std::printf("\ndet of the small-matrix polynomial (Cor. 3.18 form):\n  %s\n",
              det.ToString().c_str());

  // Lemma 1.1 in action: find a {0,1/2,1} non-root of the determinant.
  auto witness = FindNonRoot(det, Rational(0), Rational::Half(), Rational(1));
  std::printf("Lemma 1.1 non-root witness (variable -> value):\n");
  for (const auto& [var, value] : witness) {
    std::printf("  x%d -> %s\n", var, value.ToString().c_str());
  }
  const bool non_root = !det.Evaluate(witness).IsZero();
  std::printf("det at the witness is non-zero: %s\n",
              non_root ? "yes" : "NO");
  return half_pr == Rational(5, 8) && non_root ? 0 : 1;
}
