// E18: circuit persistence — what a warm start is worth.
//
// The store turns a restart from "recompile everything" into "read a
// file": BM_ColdCompile is the price the first process pays for the
// Type-II Möbius gadget, BM_WarmLoad is the price every later process
// pays for the same circuit (read + checksum + structural validation +
// fingerprint + a copy of the node and child arrays). BM_StoreCrossCheck
// is the CI-enforced acceptance bar: the warm load must answer
// bit-identically to the compiled circuit AND beat the cold compile by
// ≥10× on the headline domain-4 gadget, or the run fails loudly.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/vtree.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "store/circuit_io.h"
#include "util/rational.h"

namespace {

gmc::Query ExampleC9() {
  return gmc::ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// The Type-II Möbius gadget lineage at domain d×d — the circuits worth
// persisting are exactly the ones that are expensive to compile.
gmc::Lineage Type2Lineage(int domain) {
  gmc::Query q = ExampleC9();
  gmc::Tid tid(q.vocab_ptr(), domain, domain, gmc::Rational::Half());
  return gmc::Ground(q, tid);
}

gmc::NnfCircuit CompileDefault(const gmc::Lineage& lineage) {
  gmc::Compiler compiler;
  compiler.set_order(gmc::OrderHeuristic::kDefault);
  return compiler.Compile(lineage);
}

// K all-dyadic weight vectors (the interpolation-grid shape).
gmc::WeightMatrix SweepWeights(const gmc::Lineage& lineage, int k) {
  gmc::WeightMatrix weights(k, lineage.cnf.num_vars);
  for (int column = 0; column < k; ++column) {
    const gmc::Rational value(column + 1, 128);
    for (int v = 0; v < lineage.cnf.num_vars; ++v) {
      weights.Set(column, v, value);
    }
  }
  return weights;
}

// One saved gadget circuit on disk, shared by the warm benchmarks; the
// file lives in /tmp and is removed when the process exits.
class SavedCircuit {
 public:
  explicit SavedCircuit(int domain)
      : path_("/tmp/gmc_bench_store_" + std::to_string(::getpid()) + "_" +
              std::to_string(domain) + ".gmcc") {
    const gmc::Lineage lineage = Type2Lineage(domain);
    gmc::NnfCircuit circuit = CompileDefault(lineage);
    std::string error;
    ok_ = gmc::store::SaveCircuit(circuit, lineage.cnf,
                                  gmc::OrderHeuristic::kDefault, path_,
                                  &error);
  }
  ~SavedCircuit() { ::unlink(path_.c_str()); }

  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool ok_ = false;
};

SavedCircuit& Saved(int domain) {
  static SavedCircuit* d3 = new SavedCircuit(3);
  static SavedCircuit* d4 = new SavedCircuit(4);
  return domain == 3 ? *d3 : *d4;
}

// The cold path: what every process without a store pays per structure.
void BM_ColdCompile(benchmark::State& state) {
  const gmc::Lineage lineage = Type2Lineage(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    gmc::NnfCircuit circuit = CompileDefault(lineage);
    benchmark::DoNotOptimize(circuit.root());
  }
}
BENCHMARK(BM_ColdCompile)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// The warm path: full read + validation + owning copy of the two arrays.
void BM_WarmLoad(benchmark::State& state) {
  SavedCircuit& saved = Saved(static_cast<int>(state.range(0)));
  if (!saved.ok()) {
    state.SkipWithError("failed to save the gadget circuit");
    return;
  }
  for (auto _ : state) {
    gmc::store::LoadedCircuit loaded;
    std::string error;
    if (!gmc::store::LoadCircuit(saved.path(), &loaded, &error)) {
      state.SkipWithError(("LoadCircuit: " + error).c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded.circuit.root());
  }
}
BENCHMARK(BM_WarmLoad)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// Save throughput (encode + temp file + fsync + rename), bytes/s.
void BM_SaveCircuit(benchmark::State& state) {
  const gmc::Lineage lineage = Type2Lineage(static_cast<int>(state.range(0)));
  const gmc::NnfCircuit circuit = CompileDefault(lineage);
  const std::string path = "/tmp/gmc_bench_store_save_" +
                           std::to_string(::getpid()) + ".gmcc";
  size_t bytes = 0;
  for (auto _ : state) {
    std::string error;
    if (!gmc::store::SaveCircuit(circuit, lineage.cnf,
                                 gmc::OrderHeuristic::kDefault, path,
                                 &error)) {
      state.SkipWithError(("SaveCircuit: " + error).c_str());
      return;
    }
    if (bytes == 0) {
      bytes = gmc::store::EncodeCircuit(circuit, lineage.cnf,
                                        gmc::OrderHeuristic::kDefault)
                  .size();
    }
  }
  ::unlink(path.c_str());
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}
BENCHMARK(BM_SaveCircuit)->Arg(4)->Unit(benchmark::kMillisecond);

// Acceptance bar, CI-enforced on every run: warm answers are bit-
// identical to the compiled circuit, and the warm load beats the cold
// compile by ≥10× on the domain-4 gadget.
void BM_StoreCrossCheck(benchmark::State& state) {
  const gmc::Lineage lineage = Type2Lineage(4);
  const gmc::NnfCircuit circuit = CompileDefault(lineage);
  const std::string path = "/tmp/gmc_bench_store_check_" +
                           std::to_string(::getpid()) + ".gmcc";
  std::string error;
  if (!gmc::store::SaveCircuit(circuit, lineage.cnf,
                               gmc::OrderHeuristic::kDefault, path, &error)) {
    state.SkipWithError(("SaveCircuit: " + error).c_str());
    return;
  }
  const gmc::WeightMatrix weights = SweepWeights(lineage, 8);
  const std::vector<gmc::Rational> want = circuit.EvaluateBatchDyadic(weights);

  for (auto _ : state) {
    // Bit-identity through the owning load.
    gmc::store::LoadedCircuit loaded;
    if (!gmc::store::LoadCircuit(path, &loaded, &error)) {
      state.SkipWithError(("warm read failed: " + error).c_str());
      return;
    }
    if (loaded.circuit.EvaluateBatchDyadic(weights) != want ||
        loaded.circuit.Fingerprint() != circuit.Fingerprint()) {
      state.SkipWithError("store round-trip is not bit-identical");
      return;
    }

    // The ≥10× speedup floor, measured inline: time N warm loads against
    // one cold compile (N generous so timer noise cannot flake CI).
    const auto t0 = std::chrono::steady_clock::now();
    gmc::NnfCircuit cold = CompileDefault(lineage);
    const auto t1 = std::chrono::steady_clock::now();
    constexpr int kWarmLoads = 10;
    for (int i = 0; i < kWarmLoads; ++i) {
      gmc::store::LoadedCircuit again;
      if (!gmc::store::LoadCircuit(path, &again, &error)) {
        state.SkipWithError(("LoadCircuit: " + error).c_str());
        return;
      }
      benchmark::DoNotOptimize(again.circuit.root());
    }
    const auto t2 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(cold.root());
    const double cold_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    const double warm_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count() /
        kWarmLoads;
    state.counters["cold_vs_warm"] = cold_ns / warm_ns;
    if (cold_ns < 10.0 * warm_ns) {
      state.SkipWithError(
          "warm LoadCircuit is not >=10x faster than the cold compile");
      return;
    }
  }
  ::unlink(path.c_str());
}
BENCHMARK(BM_StoreCrossCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
