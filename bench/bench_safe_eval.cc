// E11: the PTIME side of the dichotomy.
//
// The lifted evaluator scales polynomially with the domain while generic
// exact WMC on the same safe queries grows exponentially; the series below
// regenerate the crossover. The paper's claim being exercised: safe ⇒
// GFOMC ∈ PTIME (Theorem 2.1 / 2.2), with the Möbius machinery of §C.2 for
// Type-II left parts. The BM_Session* configs time both routes a session
// answers safe calls by: the compiled pass for small GFOMC instances and
// the lifted plan for general weights.

#include <cstdint>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/dichotomy.h"
#include "logic/parser.h"
#include "safe/safe_eval.h"
#include "wmc/wmc.h"

namespace {

gmc::Tid HalfTid(const gmc::Query& q, int n) {
  gmc::Tid tid(q.vocab_ptr(), n, n, gmc::Rational::One());
  const gmc::Vocabulary& vocab = q.vocab();
  for (gmc::SymbolId s = 0; s < vocab.size(); ++s) {
    switch (vocab.kind(s)) {
      case gmc::SymbolKind::kUnaryLeft:
        for (int u = 0; u < n; ++u) {
          tid.SetUnaryLeft(s, u, gmc::Rational::Half());
        }
        break;
      case gmc::SymbolKind::kUnaryRight:
        for (int v = 0; v < n; ++v) {
          tid.SetUnaryRight(s, v, gmc::Rational::Half());
        }
        break;
      case gmc::SymbolKind::kBinary:
        for (int u = 0; u < n; ++u) {
          for (int v = 0; v < n; ++v) {
            tid.SetBinary(s, u, v, gmc::Rational::Half());
          }
        }
        break;
    }
  }
  return tid;
}

constexpr const char* kTypeIiLeft =
    "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax (Ay (S1(x,y)) | Ay (S3(x,y)))";

void BM_LiftedSafeEval(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gmc::Query q = gmc::ParseQueryOrDie(kTypeIiLeft);
  gmc::Tid tid = HalfTid(q, n);
  for (auto _ : state) {
    auto result = gmc::LiftedProbability(q, tid);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LiftedSafeEval)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_WmcOnSafeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gmc::Query q = gmc::ParseQueryOrDie(kTypeIiLeft);
  gmc::Tid tid = HalfTid(q, n);
  for (auto _ : state) {
    gmc::WmcEngine engine;
    benchmark::DoNotOptimize(engine.QueryProbability(q, tid));
  }
}
BENCHMARK(BM_WmcOnSafeQuery)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_LiftedTypeILeft(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  gmc::Query q = gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S1(x,y) | S2(x,y)) & Ax Ay (S1(x,y) | S2(x,y))");
  gmc::Tid tid = HalfTid(q, n);
  for (auto _ : state) {
    auto result = gmc::LiftedProbability(q, tid);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LiftedTypeILeft)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// A pool of 64 n×n TIDs of the (all-binary) Type II query, every tuple
// explicit. A GFOMC pool draws each tuple as 0 (1 in 64), 1/2 (21 in 64)
// or 1, so about a third of the tuples stay variables and a lineage rarely
// folds to false; a general pool draws k/7, k = 1..6.
std::vector<gmc::Tid> TidPool(const gmc::Query& q, int n, bool gfomc) {
  std::mt19937_64 rng(static_cast<uint64_t>(n));
  std::vector<gmc::Tid> pool;
  for (int i = 0; i < 64; ++i) {
    gmc::Tid tid(q.vocab_ptr(), n, n, gmc::Rational::One());
    for (gmc::SymbolId s = 0; s < q.vocab().size(); ++s) {
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          const int64_t r = static_cast<int64_t>(rng() % 64);
          tid.SetBinary(s, u, v,
                        !gfomc   ? gmc::Rational(1 + r % 6, 7)
                        : r == 0 ? gmc::Rational::Zero()
                        : r < 22 ? gmc::Rational::Half()
                                 : gmc::Rational::One());
        }
      }
    }
    pool.push_back(std::move(tid));
  }
  return pool;
}

// One GfomcSession::EvaluateMany call per iteration, cycling through the
// pool. A first pass checks every answer against the lifted plan and warms
// the session, so the timed loop is the steady state of repeated-query
// traffic. `compiled_frac` is the share of timed calls the compiled route
// answered.
void RunSessionSafe(benchmark::State& state, bool gfomc) {
  const int n = static_cast<int>(state.range(0));
  const gmc::Query q = gmc::ParseQueryOrDie(kTypeIiLeft);
  const std::vector<gmc::Tid> pool = TidPool(q, n, gfomc);
  gmc::GfomcSession session;
  for (const gmc::Tid& tid : pool) {
    if (session.EvaluateMany(q, {tid})[0].probability !=
        *gmc::LiftedProbability(q, tid)) {
      state.SkipWithError("session answer differs from the lifted plan");
      return;
    }
  }
  const uint64_t compiled_before = session.stats().safe_compiled;
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.EvaluateMany(q, {pool[next]}));
    next = (next + 1) % pool.size();
  }
  state.counters["compiled_frac"] =
      static_cast<double>(session.stats().safe_compiled - compiled_before) /
      static_cast<double>(state.iterations());
}

void BM_SessionSafeGfomc(benchmark::State& state) {
  RunSessionSafe(state, /*gfomc=*/true);
}
BENCHMARK(BM_SessionSafeGfomc)->Arg(3)->Arg(4)->Arg(8);

void BM_SessionSafeLifted(benchmark::State& state) {
  RunSessionSafe(state, /*gfomc=*/false);
}
BENCHMARK(BM_SessionSafeLifted)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
