// The zig-zag rewriting of Lemma 2.6 / Appendix A: builds zg(Q) for a
// Type I-I and a Type II-II query, shows the type/length mapping, and
// verifies Lemma A.1's probability equality on a concrete database.
// Exits 1 if a check fails.
//
//   ./zigzag_rewriting

#include <cstdio>

#include "core/dichotomy.h"
#include "hardness/zigzag.h"
#include "logic/bipartite.h"
#include "logic/parser.h"
#include "wmc/wmc.h"

int main() {
  using namespace gmc;
  bool ok = true;
  for (const char* text :
       {"Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))",
        "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
        "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))"}) {
    Query q = ParseQueryOrDie(text);
    BipartiteAnalysis before = AnalyzeBipartite(q);
    ZigzagQuery zg = MakeZigzagQuery(q);
    BipartiteAnalysis after = AnalyzeBipartite(zg.query);
    std::printf("Q      : %s\n", q.ToString().c_str());
    std::printf("         %s\n", before.ToString().c_str());
    std::printf("zg(Q)  : %s\n", zg.query.ToString().c_str());
    std::printf("         %s   (n = %d branches)\n", after.ToString().c_str(),
                zg.n);

    // Lemma A.1 on a 2×2 database with all uncertain tuples at 1/2 —
    // checked by the recursive engine and by the compiled d-DNNF path
    // (Gfomc compiles the lineage of an unsafe query).
    Tid delta(zg.query.vocab_ptr(), 2, 2, Rational::Half());
    Tid zg_delta = MakeZigzagTid(zg, delta);
    WmcEngine engine;
    Rational lhs = engine.QueryProbability(zg.query, delta);
    Rational rhs = engine.QueryProbability(q, zg_delta);
    Rational compiled = Gfomc(q, zg_delta).probability;
    ok = ok && lhs == rhs && compiled == rhs;
    std::printf(
        "Lemma A.1: Pr_D(zg(Q)) = %s, Pr_zg(D)(Q) = %s  [%s; compiled "
        "circuit agrees: %s]\n"
        "          (zg(D): %d left / %d right constants from D's 2x2)\n\n",
        lhs.ToString().c_str(), rhs.ToString().c_str(),
        lhs == rhs ? "match" : "MISMATCH",
        compiled == rhs ? "yes" : "NO", zg_delta.num_left(),
        zg_delta.num_right());
  }
  return ok ? 0 : 1;
}
