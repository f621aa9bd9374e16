// E1: the Cook reduction #P2CNF ≤P FOMC(Q) of Theorem 3.1, end to end.
//
// The reduction's own work (building the z-series, the C(m+2,2)-sized big
// matrix, and the exact solve) is polynomial in m; the oracle is the
// expensive part, exactly as the theory says. Series: reduction time vs m
// with the Theorem-3.4 factorized oracle, and, on the real gadget TIDs for
// small instances, with the honest WMC oracle and with the compiled oracle
// (a fresh GfomcSession per run: grounding, compiles and the batched
// passes).

#include <benchmark/benchmark.h>

#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "logic/parser.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

void BM_Type1ReductionFactorized(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(5, m, /*seed=*/99 + m);
  gmc::BigInt expected = gmc::CountSatisfying(phi);
  int calls = 0;
  for (auto _ : state) {
    gmc::Type1ReductionResult result = reduction.Run(phi);
    calls = result.oracle_calls;
    if (result.model_count != expected) state.SkipWithError("wrong count");
  }
  state.counters["oracle_calls"] = calls;
  state.counters["unknowns"] = (m + 1) * (m + 2) / 2;
}
BENCHMARK(BM_Type1ReductionFactorized)->DenseRange(1, 5)
    ->Unit(benchmark::kMillisecond);

void BM_Type1ReductionWmcOracle(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(3, m, /*seed=*/7 + m);
  gmc::BigInt expected = gmc::CountSatisfying(phi);
  for (auto _ : state) {
    gmc::WmcOracle oracle;
    gmc::Type1ReductionResult result = reduction.Run(phi, &oracle);
    if (result.model_count != expected) state.SkipWithError("wrong count");
  }
}
BENCHMARK(BM_Type1ReductionWmcOracle)->DenseRange(1, 2)
    ->Unit(benchmark::kMillisecond);

// m <= 3: P2Cnf::Random(3, m) has only 3 distinct edges to draw.
void BM_Type1ReductionCompiledOracle(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(3, m, /*seed=*/7 + m);
  gmc::BigInt expected = gmc::CountSatisfying(phi);
  for (auto _ : state) {
    gmc::CompiledOracle oracle;
    gmc::Type1ReductionResult result = reduction.Run(phi, &oracle);
    if (result.model_count != expected) state.SkipWithError("wrong count");
  }
}
BENCHMARK(BM_Type1ReductionCompiledOracle)->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);

void BM_ReductionChainQuery(benchmark::State& state) {
  // Same pipeline for the length-2 final query (two S symbols): the gadget
  // blocks are twice as wide.
  const int m = static_cast<int>(state.range(0));
  gmc::Query chain = gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S1(x,y) | S2(x,y)) & "
      "Ax Ay (S2(x,y) | T(y))");
  gmc::Type1Reduction reduction(chain);
  gmc::P2Cnf phi = gmc::P2Cnf::Random(5, m, /*seed=*/31 + m);
  gmc::BigInt expected = gmc::CountSatisfying(phi);
  for (auto _ : state) {
    gmc::Type1ReductionResult result = reduction.Run(phi);
    if (result.model_count != expected) state.SkipWithError("wrong count");
  }
}
BENCHMARK(BM_ReductionChainQuery)->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
