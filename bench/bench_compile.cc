// E16: compile-once / evaluate-many vs re-running the WMC recursion.
//
// The Type-I interpolation workload evaluates one grounded gadget lineage
// at many tuple-probability settings. The knowledge-compilation subsystem
// pays the Shannon/component recursion once (compile) and then a linear
// circuit pass per weight vector; WmcEngine pays the full recursion every
// time because its memo is only valid for one weight vector. The sweep
// benchmarks below run the identical N-point sweep (N = 16/32/64) both
// ways and cross-check every value — the compiled series should win from
// the first repetition.
//
// BM_GroundingTemplateCrossCheck guards the layer above: a grounding
// template hit must build Ground's lineage field for field, a C9 3×3 hit
// must cost at most 0.3× Ground, and an H1 4×4 miss (Ground plus storing
// the template) at most 1.5× Ground — best of 20 interleaved passes each.
// A failure fails the run loudly (SkipWithError), as the CI bench job
// requires.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <set>
#include <vector>

#include "compile/compiler.h"
#include "compile/nnf.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "util/rational.h"
#include "wmc/wmc.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

gmc::Query ExampleC9() {
  return gmc::ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// The gadget lineage the sweep probes: a Type-I reduction TID for a random
// P2CNF, grounded once.
gmc::Lineage SweepLineage() {
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(5, 5, /*seed=*/42);
  gmc::Tid tid = reduction.BuildTid(phi, 2, 2);
  return gmc::Ground(reduction.query(), tid);
}

// N weight vectors: probe point k perturbs every tuple weight to k/(N+1),
// the classic interpolation grid.
std::vector<std::vector<gmc::Rational>> SweepWeights(const gmc::Lineage& l,
                                                     int n) {
  std::vector<std::vector<gmc::Rational>> sweeps;
  for (int k = 1; k <= n; ++k) {
    sweeps.emplace_back(l.probabilities.size(), gmc::Rational(k, n + 1));
  }
  return sweeps;
}

void BM_Type1SweepCompiled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  std::vector<std::vector<gmc::Rational>> sweeps = SweepWeights(lineage, n);
  size_t circuit_nodes = 0;
  for (auto _ : state) {
    gmc::Compiler compiler;
    gmc::NnfCircuit circuit = compiler.Compile(lineage);  // compile once
    circuit_nodes = circuit.num_nodes();
    for (const auto& weights : sweeps) {                  // evaluate many
      benchmark::DoNotOptimize(circuit.Evaluate(weights));
    }
  }
  state.counters["sweep_points"] = n;
  state.counters["circuit_nodes"] = static_cast<double>(circuit_nodes);
  state.counters["lineage_vars"] =
      static_cast<double>(lineage.variables.size());
}
BENCHMARK(BM_Type1SweepCompiled)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_Type1SweepWmc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  std::vector<std::vector<gmc::Rational>> sweeps = SweepWeights(lineage, n);
  for (auto _ : state) {
    gmc::WmcEngine engine;
    for (const auto& weights : sweeps) {
      benchmark::DoNotOptimize(engine.Probability(lineage.cnf, weights));
    }
  }
  state.counters["sweep_points"] = n;
}
BENCHMARK(BM_Type1SweepWmc)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Correctness guard for the two series above: identical values point by
// point. Registered as a benchmark so a mismatch fails the run loudly.
void BM_Type1SweepCrossCheck(benchmark::State& state) {
  const int n = 16;
  gmc::Lineage lineage = SweepLineage();
  std::vector<std::vector<gmc::Rational>> sweeps = SweepWeights(lineage, n);
  gmc::Compiler compiler;
  gmc::NnfCircuit circuit = compiler.Compile(lineage);
  for (auto _ : state) {
    gmc::WmcEngine engine;
    for (const auto& weights : sweeps) {
      if (circuit.Evaluate(weights) !=
          engine.Probability(lineage.cnf, weights)) {
        state.SkipWithError("compiled sweep disagrees with WmcEngine");
        return;
      }
    }
  }
  state.counters["sweep_points"] = n;
}
BENCHMARK(BM_Type1SweepCrossCheck)->Unit(benchmark::kMillisecond);

// Compilation cost alone, for the amortization story: compile time is one
// WmcEngine run plus node construction.
void BM_CompileType1Lineage(benchmark::State& state) {
  gmc::Lineage lineage = SweepLineage();
  for (auto _ : state) {
    gmc::Compiler compiler;
    gmc::NnfCircuit circuit = compiler.Compile(lineage);
    benchmark::DoNotOptimize(circuit.num_nodes());
  }
}
BENCHMARK(BM_CompileType1Lineage)->Unit(benchmark::kMillisecond);

// Evaluation cost alone: the per-point marginal cost after compilation.
void BM_EvaluateCompiledType1Lineage(benchmark::State& state) {
  gmc::Lineage lineage = SweepLineage();
  gmc::Compiler compiler;
  gmc::NnfCircuit circuit = compiler.Compile(lineage);
  std::vector<gmc::Rational> weights(lineage.probabilities.size(),
                                     gmc::Rational(3, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit.Evaluate(weights));
  }
  state.counters["circuit_nodes"] =
      static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_EvaluateCompiledType1Lineage);

// --- Grounding templates, CI-enforced ----------------------------------

bool SameLineage(const gmc::Lineage& a, const gmc::Lineage& b) {
  return a.cnf.num_vars == b.cnf.num_vars && a.cnf.clauses == b.cnf.clauses &&
         a.variables == b.variables && a.probabilities == b.probabilities &&
         a.is_false == b.is_false;
}

// C9 over 3×3 with all 36 tuples uncertain at fresh k/7 and k/11 weights:
// one support pattern, as on the certified tiers.
std::vector<gmc::Tid> C9Tids(const gmc::Query& c9, int count,
                             std::mt19937_64* rng) {
  std::vector<gmc::Tid> tids;
  for (int i = 0; i < count; ++i) {
    gmc::Tid tid(c9.vocab_ptr(), 3, 3, gmc::Rational::One());
    for (gmc::SymbolId s : c9.Symbols()) {
      for (int x = 0; x < 3; ++x) {
        for (int y = 0; y < 3; ++y) {
          const auto k = static_cast<int64_t>(1 + (*rng)() % 6);
          tid.SetBinary(s, x, y,
                        (*rng)() % 2 == 0 ? gmc::Rational(k, 7)
                                          : gmc::Rational(k, 11));
        }
      }
    }
    tids.push_back(std::move(tid));
  }
  return tids;
}

// H1 over 4×4 at distinct pool-like patterns: S tuples 10% absent, 40%
// certain, 50% uncertain; R and T tuples 45% certain, 55% uncertain; an
// uncertain tuple at a dyadic k/2^j.
std::vector<gmc::Tid> H1PoolTids(const gmc::Query& h1, int count,
                                 std::mt19937_64* rng) {
  const gmc::Vocabulary& v = h1.vocab();
  std::set<std::vector<int>> patterns;
  std::vector<gmc::Tid> tids;
  while (static_cast<int>(tids.size()) < count) {
    gmc::Tid tid(h1.vocab_ptr(), 4, 4, gmc::Rational::One());
    std::vector<int> pattern;
    auto draw = [&](const gmc::TupleKey& key, bool may_be_absent) {
      const uint64_t r = (*rng)() % 100;
      const int state = may_be_absent && r < 10 ? 0 : r < 50 ? 1 : 2;
      pattern.push_back(state);
      if (state == 1) return;
      const int64_t denominator = int64_t{2} << ((*rng)() % 4);
      const auto numerator =
          static_cast<int64_t>(1 + (*rng)() % (denominator - 1));
      tid.Set(key, state == 0 ? gmc::Rational::Zero()
                              : gmc::Rational(numerator, denominator));
    };
    for (int c = 0; c < 4; ++c) {
      draw(gmc::TupleKey{v.Find("R"), c, -1}, false);
      draw(gmc::TupleKey{v.Find("T"), -1, c}, false);
      for (int d = 0; d < 4; ++d) draw(gmc::TupleKey{v.Find("S"), c, d}, true);
    }
    if (patterns.insert(pattern).second) tids.push_back(std::move(tid));
  }
  return tids;
}

void BM_GroundingTemplateCrossCheck(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  const gmc::Query c9 = ExampleC9();
  const gmc::Query h1 = H1();
  std::mt19937_64 rng(7);
  const std::vector<gmc::Tid> c9_tids = C9Tids(c9, 32, &rng);
  const std::vector<gmc::Tid> h1_tids = H1PoolTids(h1, 64, &rng);
  double hit_ratio = 0.0;
  double miss_ratio = 0.0;
  for (auto _ : state) {
    // Equality: every C9 instance after the first is a hit, every H1
    // instance a miss and then a hit, and each lineage is Ground's.
    gmc::GroundingTemplates c9_templates;
    gmc::GroundingTemplates h1_templates;
    bool hit = false;
    for (const gmc::Tid& tid : c9_tids) {
      const gmc::Lineage lineage = c9_templates.Ground(c9, tid, &hit);
      if (hit != (&tid != &c9_tids[0]) ||
          !SameLineage(lineage, gmc::Ground(c9, tid))) {
        state.SkipWithError("a C9 template lineage differs from Ground's");
        return;
      }
    }
    for (int round = 0; round < 2; ++round) {
      for (const gmc::Tid& tid : h1_tids) {
        const gmc::Lineage lineage = h1_templates.Ground(h1, tid, &hit);
        if (hit != (round == 1) ||
            !SameLineage(lineage, gmc::Ground(h1, tid))) {
          state.SkipWithError("an H1 template lineage differs from Ground's");
          return;
        }
      }
    }
    // Cost: C9 hits against Ground, and H1 misses (a fresh table per pass)
    // against Ground, interleaved.
    double best_c9_ground = 1e300;
    double best_c9_hit = 1e300;
    double best_h1_ground = 1e300;
    double best_h1_miss = 1e300;
    for (int rep = 0; rep < 20; ++rep) {
      gmc::GroundingTemplates fresh;
      const auto t0 = Clock::now();
      for (const gmc::Tid& tid : c9_tids) {
        benchmark::DoNotOptimize(gmc::Ground(c9, tid));
      }
      const auto t1 = Clock::now();
      for (const gmc::Tid& tid : c9_tids) {
        benchmark::DoNotOptimize(c9_templates.Ground(c9, tid, &hit));
      }
      const auto t2 = Clock::now();
      for (const gmc::Tid& tid : h1_tids) {
        benchmark::DoNotOptimize(gmc::Ground(h1, tid));
      }
      const auto t3 = Clock::now();
      for (const gmc::Tid& tid : h1_tids) {
        benchmark::DoNotOptimize(fresh.Ground(h1, tid, &hit));
      }
      const auto t4 = Clock::now();
      best_c9_ground = std::min(best_c9_ground, seconds(t0, t1));
      best_c9_hit = std::min(best_c9_hit, seconds(t1, t2));
      best_h1_ground = std::min(best_h1_ground, seconds(t2, t3));
      best_h1_miss = std::min(best_h1_miss, seconds(t3, t4));
    }
    hit_ratio = best_c9_hit / best_c9_ground;
    miss_ratio = best_h1_miss / best_h1_ground;
    if (hit_ratio > 0.3) {
      state.SkipWithError("a C9 template hit costs more than 0.3x Ground");
      return;
    }
    if (miss_ratio > 1.5) {
      state.SkipWithError("an H1 template miss costs more than 1.5x Ground");
      return;
    }
  }
  state.counters["c9_hit_over_ground"] = hit_ratio;
  state.counters["h1_miss_over_ground"] = miss_ratio;
}
BENCHMARK(BM_GroundingTemplateCrossCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
