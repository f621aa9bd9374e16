// Quickstart: parse a query, build a probabilistic database, classify the
// query under the dichotomy, and compute its exact probability. Exits 1 if
// the §1.6 value is not the paper's 5/8 or the safe query misses the lifted
// evaluator.
//
//   ./quickstart

#include <cstdio>

#include "core/dichotomy.h"
#include "logic/parser.h"

int main() {
  using namespace gmc;

  // The paper's running example H1 = ∀x∀y(R(x) ∨ S(x,y)) ∧ (S(x,y) ∨ T(y)).
  Query h1 = ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  std::printf("query: %s\n", h1.ToString().c_str());

  DichotomyReport report = Classify(h1);
  std::printf("dichotomy: %s\n\n", report.summary.c_str());

  // A 1x1 database with all three tuples at probability 1/2 — the paper's
  // §1.6 example, whose probability is 5/8.
  const Vocabulary& v = h1.vocab();
  Tid tiny(h1.vocab_ptr(), 1, 1);
  tiny.SetUnaryLeft(v.Find("R"), 0, Rational::Half());
  tiny.SetBinary(v.Find("S"), 0, 0, Rational::Half());
  tiny.SetUnaryRight(v.Find("T"), 0, Rational::Half());
  GfomcResult tiny_result = Gfomc(h1, tiny);
  std::printf("Pr(H1) on the 1x1 half-probability database = %s (paper: 5/8)\n",
              tiny_result.probability.ToString().c_str());

  // A safe query routes through the lifted PTIME evaluator instead.
  Query safe = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  Tid db(safe.vocab_ptr(), 4, 4);
  const Vocabulary& sv = safe.vocab();
  for (int u = 0; u < 4; ++u) {
    db.SetUnaryLeft(sv.Find("R"), u, Rational(1, 3));
    for (int w = 0; w < 4; ++w) {
      db.SetBinary(sv.Find("S"), u, w, Rational::Half());
    }
  }
  GfomcResult safe_result = Gfomc(safe, db);
  std::printf("Pr(safe query) = %s  [lifted evaluator used: %s]\n",
              safe_result.probability.ToString().c_str(),
              safe_result.used_lifted ? "yes" : "no");
  return tiny_result.probability == Rational(5, 8) && safe_result.used_lifted
             ? 0
             : 1;
}
