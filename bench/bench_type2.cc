// E12/E13/E14: Type-II machinery — lattice construction with Möbius
// function, the inversion formula of Theorem C.19 (per-block probabilities
// from a fresh compiled oracle, verified against direct WMC inside the
// loop), the Q_αβ invertibility check of Lemma C.10, and CCP coloring
// counts with Theorem C.3's #PP2CNF extraction.

#include <benchmark/benchmark.h>

#include "core/dichotomy.h"
#include "hardness/ccp.h"
#include "hardness/type2.h"
#include "logic/parser.h"

namespace {

gmc::Query ExampleC9() {
  return gmc::ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

void BM_TypeIiAnalysis(benchmark::State& state) {
  gmc::Query q = ExampleC9();
  for (auto _ : state) {
    gmc::TypeIIStructure structure = gmc::AnalyzeTypeII(q);
    benchmark::DoNotOptimize(structure.m_bar);
  }
}
BENCHMARK(BM_TypeIiAnalysis);

void BM_MobiusInversion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gmc::Query q = ExampleC9();
  gmc::TypeIIStructure structure = gmc::AnalyzeTypeII(q);
  gmc::Tid delta(q.vocab_ptr(), n, n, gmc::Rational::Half());
  for (auto _ : state) {
    gmc::CompiledOracle oracle;
    gmc::MobiusInversionCheck check =
        gmc::VerifyMobiusInversion(structure, delta, oracle);
    if (check.direct != check.via_inversion) {
      state.SkipWithError("Theorem C.19 violated");
    }
  }
}
BENCHMARK(BM_MobiusInversion)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_InvertibilityLemmaC10(benchmark::State& state) {
  gmc::Query q = gmc::ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ax Ay (S3(x,y) | S4(x,y)) & Ax Ay (S4(x,y) | S5(x,y)) & "
      "Ax Ay (S5(x,y) | S6(x,y)) & Ay (Ax (S6(x,y)) | Ax (S7(x,y)))");
  gmc::TypeIIStructure structure = gmc::AnalyzeTypeII(q);
  for (auto _ : state) {
    if (!gmc::CheckInvertibility(structure)) {
      state.SkipWithError("Lemma C.10 violated");
    }
  }
}
BENCHMARK(BM_InvertibilityLemmaC10)->Unit(benchmark::kMillisecond);

void BM_CcpColoringCounts(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  gmc::BipartiteGraph graph =
      gmc::BipartiteGraph::Random(nodes, nodes, nodes + 1, 5);
  gmc::BigInt expected = gmc::CountPP2Cnf(graph);
  for (auto _ : state) {
    auto counts = gmc::ColoringCounts(graph, 3, 3);
    if (gmc::PP2CnfFromColoringCounts(graph, counts, 3, 3) != expected) {
      state.SkipWithError("Theorem C.3 violated");
    }
  }
}
BENCHMARK(BM_CcpColoringCounts)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
