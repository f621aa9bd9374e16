// The parallel evaluation engine: thread pool mechanics, thread-count
// invariance of the batched evaluators (bit-identical results at 1/2/8
// threads, on every numeric route, on random CNFs and, through the
// reductions' CompiledOracle, the Type I / II gadget lineages), and the
// thread safety of CircuitCache under a concurrent hammer (exact stats
// accounting included). This test is the primary TSAN target of the CI
// tsan job.

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "hardness/type2.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "util/parallel.h"
#include "util/rational.h"

namespace gmc {
namespace {

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Query ExampleC9() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// A reductions' oracle whose session passes run on `threads` workers.
void SetThreads(CompiledOracle& oracle, int threads) {
  GmcOptions options = oracle.session().options();
  options.num_threads = threads;
  oracle.session().Configure(options);
}

Cnf RandomCnf(std::mt19937_64& rng) {
  const int num_vars = 3 + static_cast<int>(rng() % 10);
  const int num_clauses = 1 + static_cast<int>(rng() % 12);
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    const int len = 1 + static_cast<int>(rng() % 4);
    std::vector<int> clause;
    for (int l = 0; l < len; ++l) {
      clause.push_back(static_cast<int>(rng() % num_vars));
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

// K dyadic weight rows with mixed denominators 2^0..2^7 (zeros and ones
// sprinkled in) — every batch qualifies for the dyadic path.
WeightMatrix RandomDyadicWeights(int num_k, int num_vars,
                                 std::mt19937_64& rng) {
  std::vector<std::vector<Rational>> rows;
  for (int k = 0; k < num_k; ++k) {
    std::vector<Rational> row;
    for (int v = 0; v < num_vars; ++v) {
      switch (rng() % 8) {
        case 0:
          row.push_back(Rational::Zero());
          break;
        case 1:
          row.push_back(Rational::One());
          break;
        default: {
          const int exponent = 1 + static_cast<int>(rng() % 7);
          const int64_t den = int64_t{1} << exponent;
          row.push_back(
              Rational(static_cast<int64_t>(rng() % (den + 1)), den));
          break;
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return WeightMatrix::FromRows(rows);
}

// ------------------------------------------------------------------ pool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  for (int num_tasks : {0, 1, 3, 7, 64, 1000}) {
    std::vector<std::atomic<int>> hits(num_tasks);
    for (auto& h : hits) h.store(0);
    pool.Run(num_tasks, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < num_tasks; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.Run(10, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, NestedRunExecutesInline) {
  ThreadPool pool(4);
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  pool.Run(8, [&](int) {
    outer.fetch_add(1);
    // Nested Run from inside a task must not deadlock on the job mutex.
    pool.Run(4, [&](int) { inner.fetch_add(1); });
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 32);
}

TEST(ThreadPoolTest, SharedPoolHandlesConcurrentCallers) {
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        ThreadPool::Shared().Run(16, [&](int) { total.fetch_add(1); });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 6 * 20 * 16);
}

TEST(ParallelForTest, ChunksPartitionTheRange) {
  for (int64_t n : {1, 5, 17, 100, 1000}) {
    for (int threads : {1, 2, 3, 8}) {
      std::vector<std::atomic<int>> covered(n);
      for (auto& c : covered) c.store(0);
      ParallelFor(n, threads, 4, [&](int64_t begin, int64_t end, int chunk) {
        EXPECT_LE(0, begin);
        EXPECT_LT(begin, end);
        EXPECT_LE(end, n);
        EXPECT_GE(chunk, 0);
        for (int64_t i = begin; i < end; ++i) covered[i].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(covered[i].load(), 1) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, RespectsMinGrain) {
  // 10 elements at grain 4 → at most 2 chunks regardless of thread count.
  std::atomic<int> chunks{0};
  ParallelFor(10, 8, 4, [&](int64_t, int64_t, int) { chunks.fetch_add(1); });
  EXPECT_LE(chunks.load(), 2);
}

TEST(DefaultNumThreadsTest, ParseAndOverride) {
  EXPECT_EQ(internal::ParseThreadsSpec(nullptr), 0);
  EXPECT_EQ(internal::ParseThreadsSpec(""), 0);
  EXPECT_EQ(internal::ParseThreadsSpec("0"), 0);
  EXPECT_EQ(internal::ParseThreadsSpec("4"), 4);
  EXPECT_EQ(internal::ParseThreadsSpec("12x"), 0);
  EXPECT_EQ(internal::ParseThreadsSpec("-3"), 0);
  EXPECT_EQ(internal::ParseThreadsSpec("99999"), internal::kMaxThreads);

  EXPECT_GE(DefaultNumThreads(), 1);
}

// ------------------------------------------- thread-count invariance

TEST(ThreadInvarianceTest, RandomCnfsBitIdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(4242);
  Compiler compiler;
  for (int trial = 0; trial < 12; ++trial) {
    Cnf cnf = RandomCnf(rng);
    NnfCircuit circuit = compiler.Compile(cnf);
    WeightMatrix weights = RandomDyadicWeights(19, cnf.num_vars, rng);

    const std::vector<Rational> serial = circuit.EvaluateBatch(weights, 1);
    const std::vector<Rational> serial_dyadic =
        circuit.EvaluateBatchDyadic(weights, 1);
    const std::vector<ProbInterval> serial_interval =
        circuit.EvaluateBatchInterval(weights, 1);
    for (int threads : {2, 8}) {
      EXPECT_EQ(circuit.EvaluateBatch(weights, threads), serial)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(circuit.EvaluateBatchDyadic(weights, threads), serial_dyadic)
          << "trial " << trial << " threads " << threads;
      // Doubles too: slices only regroup columns, they never reorder the
      // arithmetic inside one, so even floating point is bit-identical.
      const std::vector<ProbInterval> interval =
          circuit.EvaluateBatchInterval(weights, threads);
      ASSERT_EQ(interval.size(), serial_interval.size());
      for (size_t k = 0; k < interval.size(); ++k) {
        EXPECT_EQ(std::bit_cast<uint64_t>(interval[k].lo),
                  std::bit_cast<uint64_t>(serial_interval[k].lo))
            << "trial " << trial << " threads " << threads << " k " << k;
        EXPECT_EQ(std::bit_cast<uint64_t>(interval[k].hi),
                  std::bit_cast<uint64_t>(serial_interval[k].hi))
            << "trial " << trial << " threads " << threads << " k " << k;
      }
    }
    // The dyadic and Rational paths agree bit-for-bit as well.
    EXPECT_EQ(serial, serial_dyadic);
    // And so does the BigInt arena behind the fixed-width kernels.
    EXPECT_EQ(walk_internal::WalkEvaluateBatchDyadicBig(
                  circuit.view(), weights, 8),
              serial_dyadic);
  }
}

TEST(ThreadInvarianceTest, TypeIGadgetSweepAcrossThreadsAndRouting) {
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/17);
  // The actual reduction TIDs ({1/2, 1} probabilities), one per multiset
  // parameter — the sweep the paper's oracle sees.
  std::vector<Tid> tids;
  std::vector<Lineage> lineages;
  for (int p1 = 1; p1 <= 2; ++p1) {
    for (int p2 = p1; p2 <= 2; ++p2) {
      tids.push_back(reduction.BuildTid(phi, p1, p2));
      lineages.push_back(Ground(reduction.query(), tids.back()));
    }
  }
  // The reference: the Rational walk, one lineage at a time.
  std::vector<Rational> reference;
  CircuitCache rational;
  for (size_t i = 0; i < lineages.size(); ++i) {
    const WeightMatrix row =
        WeightMatrix::FromRows({lineages[i].probabilities});
    reference.push_back(
        rational.GetShared(lineages[i].cnf)->EvaluateBatch(row, 1).front());
  }
  for (int threads : {1, 2, 8}) {
    CompiledOracle oracle;
    SetThreads(oracle, threads);
    EXPECT_EQ(oracle.ProbabilityBatch(reduction.query(), tids), reference)
        << "threads " << threads;
    EXPECT_EQ(oracle.session().stats().cache.dyadic_vectors, tids.size());
  }
}

TEST(ThreadInvarianceTest, TypeIiMobiusInversionAcrossThreadCounts) {
  Query q = ExampleC9();
  TypeIIStructure structure = AnalyzeTypeII(q);
  Tid delta(q.vocab_ptr(), 2, 2, Rational::One());
  const Vocabulary& vocab = q.vocab();
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    if (vocab.kind(s) != SymbolKind::kBinary) continue;
    for (int u = 0; u < 2; ++u) {
      for (int v = 0; v < 2; ++v) {
        delta.SetBinary(s, u, v, Rational::Half());
      }
    }
  }
  // The per-block batches inside VerifyMobiusInversion run on the oracle's
  // session workers; the inversion result must not move with them.
  CompiledOracle serial_oracle;
  SetThreads(serial_oracle, 1);
  MobiusInversionCheck serial =
      VerifyMobiusInversion(structure, delta, serial_oracle);
  EXPECT_EQ(serial.direct, serial.via_inversion);
  for (int threads : {2, 8}) {
    CompiledOracle oracle;
    SetThreads(oracle, threads);
    MobiusInversionCheck check =
        VerifyMobiusInversion(structure, delta, oracle);
    EXPECT_EQ(check.via_inversion, serial.via_inversion)
        << "threads " << threads;
    EXPECT_EQ(check.direct, serial.direct);
  }
}

// ------------------------------------------------------- thread safety

TEST(CircuitCacheConcurrencyTest, HammerStatsAddUp) {
  // N threads × R rounds, each round evaluating every one of S distinct
  // structures with a private weight batch. The striped cache must compile
  // each structure exactly once, serve everything else from cache, and
  // count every access.
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  constexpr int kVectors = 7;
  std::mt19937_64 rng(777);
  std::vector<Cnf> cnfs;
  while (cnfs.size() < 4) {
    Cnf cnf = RandomCnf(rng);
    bool duplicate = false;
    for (const Cnf& seen : cnfs) duplicate |= CnfClauseEq{}(seen, cnf);
    if (!duplicate) cnfs.push_back(std::move(cnf));
  }

  // Per-(thread, structure) weights and their single-threaded reference
  // results, computed before the hammer starts.
  CircuitCache reference;
  GmcOptions serial = reference.options();
  serial.num_threads = 1;
  reference.Configure(serial);
  std::vector<std::vector<WeightMatrix>> weights;
  std::vector<std::vector<std::vector<Rational>>> expected;
  for (int t = 0; t < kThreads; ++t) {
    weights.emplace_back();
    expected.emplace_back();
    for (const Cnf& cnf : cnfs) {
      weights[t].push_back(RandomDyadicWeights(kVectors, cnf.num_vars, rng));
      expected[t].push_back(reference.EvaluatePinned(
          *reference.GetShared(cnf), weights[t].back()));
    }
  }

  CircuitCache cache;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t s = 0; s < cnfs.size(); ++s) {
          std::vector<Rational> result =
              cache.EvaluatePinned(*cache.GetShared(cnfs[s]), weights[t][s]);
          if (result != expected[t][s]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const CircuitCache::Stats stats = cache.stats();
  const uint64_t batches = uint64_t{kThreads} * kRounds * cnfs.size();
  EXPECT_EQ(stats.compiles, cnfs.size());  // no duplicate compiles
  EXPECT_EQ(stats.batch_passes, batches);
  EXPECT_EQ(stats.batched_vectors, batches * kVectors);
  // hits counts lookups: every batch's lookup beyond each structure's
  // first compile is a hit.
  EXPECT_EQ(stats.hits, batches - cnfs.size());
  EXPECT_EQ(stats.dyadic_vectors,
            stats.fixed64_vectors + stats.fixed128_vectors +
                stats.bigint_vectors);
  EXPECT_EQ(cache.size(), cnfs.size());
}

TEST(CircuitCacheConcurrencyTest, ConcurrentGetReferencesStayValid) {
  // A GetShared pin must survive other threads inserting: hold the first
  // circuit across a flood of distinct insertions and use it at the end.
  std::mt19937_64 rng(31337);
  CircuitCache cache;
  Cnf first = RandomCnf(rng);
  const std::shared_ptr<const NnfCircuit> held = cache.GetShared(first);
  const size_t nodes_before = held->num_nodes();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    std::vector<Cnf> mine;
    for (int i = 0; i < 12; ++i) mine.push_back(RandomCnf(rng));
    threads.emplace_back(
        [&cache, mine = std::move(mine)] {
          for (const Cnf& cnf : mine) cache.GetShared(cnf);
        });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(held->num_nodes(), nodes_before);  // pin still alive
}

TEST(GfomcSessionTest, SharedSessionServesConcurrentTraffic) {
  GfomcSession session;
  GmcOptions options = session.options();
  options.num_threads = 2;
  session.Configure(options);
  Query query = H1();
  // GFOMC instances over a 2×2 domain: every thread evaluates the same
  // sweep; the session must serialize internally and agree with a private
  // session's answers.
  std::vector<Tid> tids;
  for (int mask = 0; mask < 4; ++mask) {
    Tid tid(query.vocab_ptr(), 2, 2, Rational::Half());
    const Vocabulary& vocab = query.vocab();
    for (SymbolId s = 0; s < vocab.size(); ++s) {
      if (vocab.kind(s) != SymbolKind::kBinary) continue;
      tid.SetBinary(s, 0, 0, (mask & 1) ? Rational::One() : Rational::Half());
      tid.SetBinary(s, 1, 1, (mask & 2) ? Rational::Zero() : Rational::Half());
    }
    tids.push_back(std::move(tid));
  }
  GfomcSession reference;
  options.num_threads = 1;
  reference.Configure(options);
  std::vector<GfomcResult> expected = reference.EvaluateMany(query, tids);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        std::vector<GfomcResult> results = session.EvaluateMany(query, tids);
        for (size_t i = 0; i < results.size(); ++i) {
          if (results[i].probability != expected[i].probability) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(session.stats().queries, uint64_t{4} * 10 * tids.size());
}

}  // namespace
}  // namespace gmc
