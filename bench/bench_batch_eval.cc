// E17: batched vs looped circuit evaluation on Type-I gadget lineages.
//
// The interpolation workload knows its whole weight set up front, so the
// question is what one topological pass over all K vectors buys over K
// independent Evaluate walks, measured at K = 16/64/256 with minimization
// on and off. The exact batch (EvaluateBatch) runs the same Rational
// arithmetic with one arena and one traversal decode instead of K — a
// modest constant-factor win, because BigInt arithmetic dominates and is
// identical in both paths.
// The dyadic configurations measure the EXACT fast path: weights on the
// power-of-two grid the paper's reductions actually sweep (k/2^⌈lg K+1⌉),
// evaluated through EvaluateBatchDyadic (mantissa·2^-exp streaming, no
// gcd) vs the same weights through the Rational EvaluateBatch. The
// acceptance bar is ≥5× at K = 64 with bit-identical results
// (BM_DyadicCrossCheck fails the run loudly on any mismatch).
// BM_BatchCrossCheck pins correctness: batch equals loop point by point,
// exactly.

#include <benchmark/benchmark.h>

#include <vector>

#include "compile/compiler.h"
#include "compile/nnf.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "util/rational.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

// The gadget lineage the sweep probes: a Type-I reduction TID for a random
// P2CNF, grounded once.
gmc::Lineage SweepLineage() {
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(5, 5, /*seed=*/42);
  gmc::Tid tid = reduction.BuildTid(phi, 2, 2);
  return gmc::Ground(reduction.query(), tid);
}

gmc::NnfCircuit CompileSweepCircuit(const gmc::Lineage& lineage,
                                    bool minimize) {
  gmc::Compiler compiler;
  compiler.set_minimize(minimize);
  return compiler.Compile(lineage);
}

// K weight vectors on the classic interpolation grid: vector k sets every
// tuple weight to k/(K+1).
gmc::WeightMatrix SweepWeights(const gmc::Lineage& lineage, int num_k) {
  std::vector<std::vector<gmc::Rational>> rows;
  for (int k = 1; k <= num_k; ++k) {
    rows.emplace_back(lineage.probabilities.size(),
                      gmc::Rational(k, num_k + 1));
  }
  return gmc::WeightMatrix::FromRows(rows);
}

// K weight vectors on the dyadic interpolation grid the reductions sweep:
// vector k sets every tuple weight to k/2^e with 2^e the first power of two
// above K (all denominators dyadic, so the batch routes to the dyadic exact
// path; the Rational comparator benches run on the SAME weights).
gmc::WeightMatrix SweepWeightsDyadic(const gmc::Lineage& lineage, int num_k) {
  int exponent = 1;
  while ((int64_t{1} << exponent) <= num_k) ++exponent;
  std::vector<std::vector<gmc::Rational>> rows;
  for (int k = 1; k <= num_k; ++k) {
    rows.emplace_back(lineage.probabilities.size(),
                      gmc::Rational(k, int64_t{1} << exponent));
  }
  return gmc::WeightMatrix::FromRows(rows);
}

void BM_LoopedEvaluateExact(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = CompileSweepCircuit(lineage, /*minimize=*/true);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  // Rows materialized outside the timed loop: the baseline measures only
  // the K Evaluate walks, not vector assembly.
  std::vector<std::vector<gmc::Rational>> rows;
  for (int k = 0; k < num_k; ++k) rows.push_back(weights.Row(k));
  for (auto _ : state) {
    for (const auto& row : rows) {
      benchmark::DoNotOptimize(circuit.Evaluate(row));
    }
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_LoopedEvaluateExact)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BatchEvaluateExact(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = CompileSweepCircuit(lineage, /*minimize=*/true);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.EvaluateBatch(weights));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvaluateExact)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BatchEvaluateExactUnminimized(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = CompileSweepCircuit(lineage, /*minimize=*/false);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.EvaluateBatch(weights));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvaluateExactUnminimized)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The exact-path comparator: the Rational arena on the dyadic weight grid.
// This is what the sweep paid before the dyadic layer existed.
void BM_BatchEvaluateExactDyadicGrid(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = CompileSweepCircuit(lineage, /*minimize=*/true);
  gmc::WeightMatrix weights = SweepWeightsDyadic(lineage, num_k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.EvaluateBatch(weights));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvaluateExactDyadicGrid)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The exact-path headline: same weights, same circuit, the dyadic kernel
// at its BigInt width (this grid folds the 75-variable gadget past 127
// bits) — bignum integer streaming with no gcd anywhere. Must beat
// BM_BatchEvaluateExactDyadicGrid by ≥5× at K = 64.
void BM_BatchEvaluateDyadic(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = CompileSweepCircuit(lineage, /*minimize=*/true);
  gmc::WeightMatrix weights = SweepWeightsDyadic(lineage, num_k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.EvaluateBatchDyadic(weights));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvaluateDyadic)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_BatchEvaluateDyadicUnminimized(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = CompileSweepCircuit(lineage, /*minimize=*/false);
  gmc::WeightMatrix weights = SweepWeightsDyadic(lineage, num_k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.EvaluateBatchDyadic(weights));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvaluateDyadicUnminimized)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Correctness guard: batch equals loop point by point, on both the
// minimized and the unminimized circuit. Registered as a benchmark so a
// mismatch fails the bench run loudly.
void BM_BatchCrossCheck(benchmark::State& state) {
  const int num_k = 16;
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit minimized = CompileSweepCircuit(lineage, true);
  gmc::NnfCircuit raw = CompileSweepCircuit(lineage, false);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  for (auto _ : state) {
    const std::vector<gmc::Rational> batched =
        minimized.EvaluateBatch(weights);
    const std::vector<gmc::Rational> raw_batched = raw.EvaluateBatch(weights);
    for (int k = 0; k < num_k; ++k) {
      const gmc::Rational looped = minimized.Evaluate(weights.Row(k));
      if (batched[k] != looped || raw_batched[k] != looped) {
        state.SkipWithError("batched evaluation disagrees with looped");
        return;
      }
    }
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["nodes_minimized"] =
      static_cast<double>(minimized.num_nodes());
  state.counters["nodes_raw"] = static_cast<double>(raw.num_nodes());
}
BENCHMARK(BM_BatchCrossCheck)->Unit(benchmark::kMillisecond);

// Dyadic correctness guard: on the dyadic grid, EvaluateBatchDyadic must
// equal the Rational EvaluateBatch point by point — Rational equality is
// structural (lowest terms), so == here means bit-identical. Registered as
// a benchmark so a mismatch fails the bench run loudly.
void BM_DyadicCrossCheck(benchmark::State& state) {
  const int num_k = 16;
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit minimized = CompileSweepCircuit(lineage, true);
  gmc::NnfCircuit raw = CompileSweepCircuit(lineage, false);
  gmc::WeightMatrix weights = SweepWeightsDyadic(lineage, num_k);
  for (auto _ : state) {
    const std::vector<gmc::Rational> rational =
        minimized.EvaluateBatch(weights);
    const std::vector<gmc::Rational> dyadic =
        minimized.EvaluateBatchDyadic(weights);
    const std::vector<gmc::Rational> raw_dyadic =
        raw.EvaluateBatchDyadic(weights);
    for (int k = 0; k < num_k; ++k) {
      if (dyadic[k] != rational[k] || raw_dyadic[k] != rational[k]) {
        state.SkipWithError("dyadic evaluation disagrees with Rational");
        return;
      }
    }
  }
  state.counters["weight_vectors"] = num_k;
}
BENCHMARK(BM_DyadicCrossCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
