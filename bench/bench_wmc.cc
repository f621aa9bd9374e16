// E15: the exact WMC engine on the paper's gadget lineages.
//
// Path blocks B_p(u,v) have tree-like lineage; component decomposition plus
// caching keeps the engine effectively linear in p, while brute-force
// enumeration is exponential in the number of tuples (2 + 4p variables for
// H1). The crossover is the reason the engine exists. BM_CompiledPathBlock
// prices the same lineages on the production path: one compile plus one
// exact circuit pass.

#include <benchmark/benchmark.h>

#include "compile/circuit_cache.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/block.h"
#include "wmc/brute_force.h"
#include "wmc/wmc.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

void BM_WmcPathBlock(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  gmc::Query q = H1();
  gmc::IsolatedBlock block = gmc::MakeIsolatedBlock(q.vocab_ptr(), {p});
  gmc::Lineage lineage = gmc::Ground(q, block.tid);
  for (auto _ : state) {
    gmc::WmcEngine engine;
    benchmark::DoNotOptimize(engine.Probability(lineage));
  }
  state.counters["lineage_vars"] =
      static_cast<double>(lineage.variables.size());
}
BENCHMARK(BM_WmcPathBlock)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// What a one-shot exact request costs GfomcSession: a fresh cache compiles
// the lineage, then one numerically routed pass evaluates its weight row.
void BM_CompiledPathBlock(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  gmc::Query q = H1();
  gmc::IsolatedBlock block = gmc::MakeIsolatedBlock(q.vocab_ptr(), {p});
  gmc::Lineage lineage = gmc::Ground(q, block.tid);
  const gmc::WeightMatrix weights =
      gmc::WeightMatrix::FromRows({lineage.probabilities});
  {
    gmc::CircuitCache cache;
    if (cache.EvaluatePinned(*cache.GetShared(lineage.cnf), weights)[0] !=
        gmc::WmcEngine().Probability(lineage)) {
      state.SkipWithError("compiled value disagrees with WmcEngine");
      return;
    }
  }
  for (auto _ : state) {
    gmc::CircuitCache cache;
    const auto circuit = cache.GetShared(lineage.cnf);
    benchmark::DoNotOptimize(cache.EvaluatePinned(*circuit, weights));
  }
  state.counters["lineage_vars"] =
      static_cast<double>(lineage.variables.size());
}
BENCHMARK(BM_CompiledPathBlock)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_BruteForcePathBlock(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  gmc::Query q = H1();
  gmc::IsolatedBlock block = gmc::MakeIsolatedBlock(q.vocab_ptr(), {p});
  gmc::Lineage lineage = gmc::Ground(q, block.tid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmc::BruteForceProbability(lineage));
  }
  state.counters["lineage_vars"] =
      static_cast<double>(lineage.variables.size());
}
BENCHMARK(BM_BruteForcePathBlock)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_WmcGraphTid(benchmark::State& state) {
  // The reduction's actual oracle workload: a block TID over a small graph.
  const int n = static_cast<int>(state.range(0));
  gmc::Query q = H1();
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  gmc::Tid tid = gmc::MakeBlockTidForGraph(q.vocab_ptr(), n, edges, 1, 2);
  for (auto _ : state) {
    gmc::WmcEngine engine;
    benchmark::DoNotOptimize(engine.QueryProbability(q, tid));
  }
}
BENCHMARK(BM_WmcGraphTid)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
