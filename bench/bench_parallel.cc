// E18: the parallel evaluation engine and the fixed-width dyadic kernels.
//
// Two questions, both on the Type-I gadget sweeps the hardness reductions
// actually run (see bench_batch_eval.cc for the batching-vs-looping story
// this builds on):
//
//   1. Fixed width: what do the uint64 / UInt128 mantissa widths buy over
//      the same dyadic kernel at BigInt width on the SAME weights? The
//      width is picked by the sweep's exponent grid — a 31-variable gadget
//      on the 1/4-grid folds to a 62-bit bound (uint64), the 75-variable
//      gadget on the reduction's own {1/2, 1}-style grid folds to 75 bits
//      (UInt128). Measured single-threaded at K = 64 on a 4-vCPU Xeon VM
//      (three runs): uint64 is 5.3–5.7× the BigInt width on the small
//      gadget, UInt128 3.2–4.1× on the large one.
//
//   2. Thread scaling: the column-partitioned batch pass at 1/2/4/8
//      threads, for both the Rational arena (heavy per column — the
//      near-linear-scaling candidate) and the uint64 kernel (light per
//      column — the case where slicing overhead must stay negligible).
//      Wall-clock scaling is hardware-dependent (a 2-core CI runner tops
//      out at 2×), so CI gates these configs only through the
//      median-normalized regression check; the correctness claim —
//      bit-identical results at every thread count — is enforced here by
//      BM_ParallelCrossCheck, which fails the run loudly on any mismatch.
//
// The fixed-width and Rational configurations run the public
// EvaluateBatch* entry points, so they measure exactly what
// CircuitCache::EvaluatePinned traffic pays; the BigInt comparators run
// the same kernel forced to BigInt width
// (walk_internal::WalkEvaluateBatchDyadicBig).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "util/parallel.h"
#include "util/rational.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

struct Gadget {
  gmc::Lineage lineage;
  gmc::NnfCircuit circuit;
};

// Type-I reduction gadget for an (n, m) random P2CNF, compiled once.
Gadget MakeGadget(int n, int m) {
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(n, m, /*seed=*/42);
  gmc::Tid tid = reduction.BuildTid(phi, 2, 2);
  Gadget out;
  out.lineage = gmc::Ground(reduction.query(), tid);
  gmc::Compiler compiler;
  out.circuit = compiler.Compile(out.lineage);
  return out;
}

// K weight vectors on the 2^-e dyadic grid (entries vary per variable so
// columns are not all identical work).
gmc::WeightMatrix GridWeights(const Gadget& gadget, int num_k, int exponent) {
  std::vector<std::vector<gmc::Rational>> rows;
  for (int k = 1; k <= num_k; ++k) {
    std::vector<gmc::Rational> row;
    for (size_t v = 0; v < gadget.lineage.probabilities.size(); ++v) {
      row.emplace_back(1 + ((k + v) % (int64_t{1} << exponent)),
                       int64_t{1} << exponent);
    }
    rows.push_back(std::move(row));
  }
  return gmc::WeightMatrix::FromRows(rows);
}

// The uint64-class sweep: 31-variable gadget, 1/4-grid (fold bound 62).
Gadget& SmallGadget() {
  static Gadget gadget = MakeGadget(3, 2);
  return gadget;
}
// The UInt128-class sweep: 75-variable gadget, 1/2-grid (fold bound 75).
Gadget& LargeGadget() {
  static Gadget gadget = MakeGadget(5, 5);
  return gadget;
}

// ------------------------------------------------ fixed width vs BigInt

void BM_Fixed64Sweep(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  Gadget& gadget = SmallGadget();
  gmc::WeightMatrix weights = GridWeights(gadget, num_k, /*exponent=*/2);
  gmc::DyadicBatchStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gadget.circuit.EvaluateBatchDyadic(weights, /*num_threads=*/1,
                                           &stats));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["fixed64_share"] =
      stats.fixed64_vectors /
      static_cast<double>(stats.fixed64_vectors + stats.fixed128_vectors +
                          stats.bigint_vectors);
}
BENCHMARK(BM_Fixed64Sweep)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_BigIntDyadicSweepSmall(benchmark::State& state) {
  // The comparator: identical weights and circuit, BigInt width.
  const int num_k = static_cast<int>(state.range(0));
  Gadget& gadget = SmallGadget();
  gmc::WeightMatrix weights = GridWeights(gadget, num_k, /*exponent=*/2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmc::walk_internal::WalkEvaluateBatchDyadicBig(
        gadget.circuit.view(), weights, /*num_threads=*/1));
  }
  state.counters["weight_vectors"] = num_k;
}
BENCHMARK(BM_BigIntDyadicSweepSmall)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_Fixed128Sweep(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  Gadget& gadget = LargeGadget();
  gmc::WeightMatrix weights = GridWeights(gadget, num_k, /*exponent=*/1);
  gmc::DyadicBatchStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gadget.circuit.EvaluateBatchDyadic(weights, /*num_threads=*/1,
                                           &stats));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["fixed128_share"] =
      stats.fixed128_vectors /
      static_cast<double>(stats.fixed64_vectors + stats.fixed128_vectors +
                          stats.bigint_vectors);
}
BENCHMARK(BM_Fixed128Sweep)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_BigIntDyadicSweepLarge(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  Gadget& gadget = LargeGadget();
  gmc::WeightMatrix weights = GridWeights(gadget, num_k, /*exponent=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gmc::walk_internal::WalkEvaluateBatchDyadicBig(
        gadget.circuit.view(), weights, /*num_threads=*/1));
  }
  state.counters["weight_vectors"] = num_k;
}
BENCHMARK(BM_BigIntDyadicSweepLarge)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- thread scaling

void BM_RationalSweepThreads(benchmark::State& state) {
  // The Rational arena at K = 256: heaviest per-column work, the
  // near-linear scaling candidate. Arg = thread bound.
  const int num_threads = static_cast<int>(state.range(0));
  Gadget& gadget = LargeGadget();
  gmc::WeightMatrix weights = GridWeights(gadget, 256, /*exponent=*/7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gadget.circuit.EvaluateBatch(weights,
                                                          num_threads));
  }
  state.counters["threads"] = num_threads;
  state.counters["weight_vectors"] = 256;
}
BENCHMARK(BM_RationalSweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Fixed128SweepThreads(benchmark::State& state) {
  // The UInt128 kernel at K = 256: light per-column work — measures that
  // slicing overhead stays small even when columns are cheap.
  const int num_threads = static_cast<int>(state.range(0));
  Gadget& gadget = LargeGadget();
  gmc::WeightMatrix weights = GridWeights(gadget, 256, /*exponent=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gadget.circuit.EvaluateBatchDyadic(weights, num_threads));
  }
  state.counters["threads"] = num_threads;
  state.counters["weight_vectors"] = 256;
}
BENCHMARK(BM_Fixed128SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// -------------------------------------------------------- cross-check

// The loud exact cross-check: every path (Rational, BigInt dyadic,
// fixed-width dyadic) at every thread count must agree bit-for-bit —
// Rational equality is structural, so == means identical reduced
// fractions. Registered as a benchmark so a mismatch fails the bench run.
void BM_ParallelCrossCheck(benchmark::State& state) {
  Gadget& small = SmallGadget();
  Gadget& large = LargeGadget();
  for (auto _ : state) {
    for (Gadget* gadget : {&small, &large}) {
      for (int exponent : {1, 2, 7}) {
        gmc::WeightMatrix weights = GridWeights(*gadget, 16, exponent);
        const std::vector<gmc::Rational> reference =
            gadget->circuit.EvaluateBatch(weights, 1);
        for (int threads : {1, 2, 8}) {
          if (gadget->circuit.EvaluateBatch(weights, threads) != reference) {
            state.SkipWithError("Rational batch varies with thread count");
            return;
          }
          if (gadget->circuit.EvaluateBatchDyadic(weights, threads) !=
              reference) {
            state.SkipWithError("fixed-width dyadic disagrees");
            return;
          }
          if (gmc::walk_internal::WalkEvaluateBatchDyadicBig(
                  gadget->circuit.view(), weights, threads) !=
              reference) {
            state.SkipWithError("BigInt dyadic disagrees");
            return;
          }
        }
      }
    }
  }
  state.counters["configs_checked"] = 2 * 3 * 3 * 3;
}
BENCHMARK(BM_ParallelCrossCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
