// Type-II machinery on Example C.9: the implication lattices with their
// Möbius functions, the Q_αβ query family, Theorem C.19's inversion
// formula checked against direct model counting, and Theorem C.3's
// #PP2CNF-from-CCP extraction. Exits 1 if the inversion or the extraction
// disagrees with its direct count.
//
//   ./typeii_lattice

#include <cstdio>

#include "core/dichotomy.h"
#include "hardness/ccp.h"
#include "hardness/type2.h"
#include "logic/parser.h"

int main() {
  using namespace gmc;
  Query q = ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
  std::printf("query (Example C.9): %s\n\n", q.ToString().c_str());

  TypeIIStructure structure = AnalyzeTypeII(q);
  std::printf("left lattice L(G)  (m_bar = %d):\n%s\n", structure.m_bar,
              structure.left_lattice->ToString(q.vocab()).c_str());
  std::printf("right lattice L(H) (n_bar = %d):\n%s\n", structure.n_bar,
              structure.right_lattice->ToString(q.vocab()).c_str());

  std::printf("some Q_ab queries (Eq. 53-55):\n");
  for (int a : {0, 1}) {
    for (int b : {0, 1}) {
      std::printf("  Q[%d,%d] = %s\n", a, b,
                  MakeQueryAlphaBeta(structure, a, b).ToString().c_str());
    }
  }

  // Theorem C.19 on a 2×2 block TID with all tuples at 1/2, with the
  // per-block probabilities from the compiled oracle.
  Tid delta(q.vocab_ptr(), 2, 2, Rational::Half());
  CompiledOracle oracle;
  MobiusInversionCheck check = VerifyMobiusInversion(structure, delta, oracle);
  const CircuitCache::Stats circuits = oracle.session().stats().cache;
  std::printf(
      "\nMobius inversion (Thm C.19) on a 2x2 half-probability TID:\n"
      "  direct Pr(Q)        = %s\n  via inversion (%d terms) = %s  [%s]\n"
      "  per-block oracle: %d calls, %llu compiles, %llu hits, %llu "
      "batched passes\n",
      check.direct.ToString().c_str(), check.terms,
      check.via_inversion.ToString().c_str(),
      check.direct == check.via_inversion ? "match" : "MISMATCH",
      oracle.calls(), static_cast<unsigned long long>(circuits.compiles),
      static_cast<unsigned long long>(circuits.hits),
      static_cast<unsigned long long>(circuits.batch_passes));

  // Theorem C.3: #PP2CNF from coloring counts.
  BipartiteGraph graph;
  graph.num_u = 2;
  graph.num_v = 2;
  graph.edges = {{0, 0}, {0, 1}, {1, 1}};
  auto counts = ColoringCounts(graph, structure.m_bar, structure.n_bar);
  const BigInt extracted = PP2CnfFromColoringCounts(
      graph, counts, structure.m_bar, structure.n_bar);
  const BigInt brute_force = CountPP2Cnf(graph);
  std::printf(
      "\nCCP(%d,%d) on %s:\n  distinct signatures: %zu\n  #PP2CNF from "
      "counts = %s (brute force %s)\n",
      structure.m_bar, structure.n_bar, graph.ToString().c_str(),
      counts.size(), extracted.ToString().c_str(),
      brute_force.ToString().c_str());
  return check.direct == check.via_inversion && extracted == brute_force
             ? 0
             : 1;
}
