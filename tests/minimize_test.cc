// Sweep-and-merge minimization and batched evaluation: the minimized
// circuit must compute exactly the same function as the raw compiler
// output (random monotone CNFs and the real Type I/II gadget lineages),
// must preserve the decomposability/determinism audits, and must never
// grow the node count; EvaluateBatch must agree point by point with a loop
// of Evaluate calls.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/minimize.h"
#include "compile/nnf.h"
#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "hardness/type2.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "safe/safe_eval.h"
#include "wmc/wmc.h"
#include "fault_guard.h"

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

std::vector<Rational> RandomProbabilities(int num_vars, std::mt19937_64& rng) {
  std::vector<Rational> probs;
  for (int v = 0; v < num_vars; ++v) {
    switch (rng() % 5) {
      case 0:
        probs.push_back(Rational::Zero());
        break;
      case 1:
        probs.push_back(Rational::One());
        break;
      case 2:
        probs.push_back(Rational(1 + static_cast<int64_t>(rng() % 6), 7));
        break;
      default:
        probs.push_back(Rational::Half());
        break;
    }
  }
  return probs;
}

Cnf RandomMonotoneCnf(std::mt19937_64& rng) {
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
  cnf.RemoveSubsumed();
  return cnf;
}

// Raw-vs-minimized agreement on one circuit at a few weight vectors, plus
// the structural invariants and the no-growth guarantee.
void ExpectMinimizePreserves(const NnfCircuit& raw, int num_sweeps,
                             std::mt19937_64& rng) {
  Minimizer minimizer;
  NnfCircuit minimized = minimizer.Minimize(raw);
  EXPECT_LE(minimized.num_nodes(), raw.num_nodes());
  EXPECT_TRUE(minimized.CheckDecomposable());
  EXPECT_TRUE(minimized.CheckDeterministic());
  for (int sweep = 0; sweep < num_sweeps; ++sweep) {
    std::vector<Rational> probs = RandomProbabilities(raw.num_vars(), rng);
    EXPECT_EQ(raw.Evaluate(probs), minimized.Evaluate(probs));
  }
}

// 100 random monotone CNFs: compile without minimization, minimize
// explicitly, and demand exact agreement at random weight vectors.
class MinimizeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandomTest, PreservesEvaluationAuditsAndSize) {
  std::mt19937_64 rng(GetParam());
  Compiler raw_compiler;
  raw_compiler.set_minimize(false);
  for (int trial = 0; trial < 25; ++trial) {
    Cnf cnf = RandomMonotoneCnf(rng);
    NnfCircuit raw = raw_compiler.Compile(cnf);
    ExpectMinimizePreserves(raw, /*num_sweeps=*/3, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandomTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(MinimizeGadgetTest, TypeIGadgetLineages) {
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/17);
  Compiler raw_compiler;
  raw_compiler.set_minimize(false);
  std::mt19937_64 rng(7);
  for (int p1 = 1; p1 <= 2; ++p1) {
    for (int p2 = p1; p2 <= 2; ++p2) {
      Lineage lineage =
          Ground(reduction.query(), reduction.BuildTid(phi, p1, p2));
      NnfCircuit raw = raw_compiler.Compile(lineage);
      ExpectMinimizePreserves(raw, /*num_sweeps=*/2, rng);
    }
  }
}

TEST(MinimizeGadgetTest, TypeIiGadgetLineageStrictlyShrinks) {
  // The acceptance bar: on the Type-II gadget circuit the sweep must find
  // real reductions, not just re-canonicalize. The Shannon expansion
  // re-derives the components untouched by the decision variable in both
  // branches; common-factor extraction hoists them.
  Query q = ExampleC9();
  Tid tid(q.vocab_ptr(), 3, 3, Rational::Half());
  Lineage lineage = Ground(q, tid);
  Compiler raw_compiler;
  raw_compiler.set_minimize(false);
  NnfCircuit raw = raw_compiler.Compile(lineage);
  Minimizer minimizer;
  NnfCircuit minimized = minimizer.Minimize(raw);
  EXPECT_LT(minimized.num_nodes(), raw.num_nodes());
  EXPECT_GT(minimizer.stats().factored_decisions, 0u);
  EXPECT_TRUE(minimized.CheckDecomposable());
  EXPECT_TRUE(minimized.CheckDeterministic());
  EXPECT_EQ(raw.Evaluate(lineage.probabilities),
            minimized.Evaluate(lineage.probabilities));
  // The compiler runs the same pass by default.
  Compiler default_compiler;
  EXPECT_EQ(default_compiler.Compile(lineage).num_nodes(),
            minimized.num_nodes());
}

TEST(MinimizeTest, MinimizationIsIdempotent) {
  Query q = ExampleC9();
  Tid tid(q.vocab_ptr(), 2, 2, Rational::Half());
  Lineage lineage = Ground(q, tid);
  Compiler compiler;  // minimizes by default
  NnfCircuit once = compiler.Compile(lineage);
  Minimizer minimizer;
  NnfCircuit twice = minimizer.Minimize(once);
  EXPECT_EQ(twice.num_nodes(), once.num_nodes());
  EXPECT_EQ(once.Evaluate(lineage.probabilities),
            twice.Evaluate(lineage.probabilities));
}

TEST(MinimizeTest, FlattensHandBuiltNestedAnds) {
  // The compiler never emits AND-under-AND, but hand-built circuits (and
  // future rewrites) can; the sweep splices them.
  NnfCircuit circuit;
  const int inner = circuit.And({circuit.Var(0), circuit.Var(1)});
  const int outer = circuit.And({inner, circuit.Var(2)});
  circuit.SetRoot(outer);
  Minimizer minimizer;
  NnfCircuit minimized = minimizer.Minimize(circuit);
  EXPECT_GT(minimizer.stats().flattened_ands, 0u);
  EXPECT_LT(minimized.num_nodes(), circuit.num_nodes());
  std::vector<Rational> probs = {Rational::Half(), Rational(1, 3),
                                 Rational(2, 5)};
  EXPECT_EQ(circuit.Evaluate(probs), minimized.Evaluate(probs));
}

// ---------------------------------------------------------------- batching

TEST(EvaluateBatchTest, AgreesWithLoopedEvaluateOnRandomCnfs) {
  std::mt19937_64 rng(99);
  Compiler compiler;
  for (int trial = 0; trial < 20; ++trial) {
    Cnf cnf = RandomMonotoneCnf(rng);
    NnfCircuit circuit = compiler.Compile(cnf);
    const int num_k = 1 + static_cast<int>(rng() % 9);
    std::vector<std::vector<Rational>> rows;
    for (int k = 0; k < num_k; ++k) {
      rows.push_back(RandomProbabilities(cnf.num_vars, rng));
    }
    WeightMatrix weights = WeightMatrix::FromRows(rows);
    // Rational path: exact equality, point by point.
    std::vector<Rational> batched = circuit.EvaluateBatch(weights);
    ASSERT_EQ(batched.size(), rows.size());
    for (int k = 0; k < num_k; ++k) {
      EXPECT_EQ(batched[k], circuit.Evaluate(rows[k])) << "k=" << k;
    }
  }
}

TEST(EvaluateBatchTest, AgreesOnTypeIGadgetSweep) {
  // The interpolation-grid shape the hardness reductions actually probe.
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/17);
  Lineage lineage = Ground(reduction.query(), reduction.BuildTid(phi, 2, 2));
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(lineage);
  const int num_k = 16;
  std::vector<std::vector<Rational>> rows;
  for (int k = 1; k <= num_k; ++k) {
    rows.emplace_back(lineage.probabilities.size(),
                      Rational(k, num_k + 1));
  }
  WeightMatrix weights = WeightMatrix::FromRows(rows);
  std::vector<Rational> batched = circuit.EvaluateBatch(weights);
  for (int k = 0; k < num_k; ++k) {
    EXPECT_EQ(batched[k], circuit.Evaluate(rows[k])) << "k=" << k;
  }
}

TEST(EvaluateBatchTest, ConstantCircuits) {
  NnfCircuit circuit;  // root defaults to FALSE
  WeightMatrix weights(3, 0);
  std::vector<Rational> values = circuit.EvaluateBatch(weights);
  EXPECT_EQ(values, std::vector<Rational>(3, Rational::Zero()));
  circuit.SetRoot(circuit.True());
  values = circuit.EvaluateBatch(weights);
  EXPECT_EQ(values, std::vector<Rational>(3, Rational::One()));
}

TEST(SessionGroupPassTest, InterleavedSupportPatternsBatchPerStructure) {
  // One EvaluateMany call whose TIDs alternate between two support
  // patterns, so their lineages have two structures: the session must
  // compile each once, batch within each structure, and return the answers
  // in input order. The guard keeps a lost cache insert from adding a
  // compile and a pass.
  FaultGuard guard;
  const Query q = H1();
  std::vector<Tid> tids;
  for (int k = 1; k <= 6; ++k) {
    Tid tid(q.vocab_ptr(), 2, 2, Rational(k, 7));
    // Even k: S(0,0) is certain, which drops both of its clauses.
    if (k % 2 == 0) {
      tid.SetBinary(q.vocab().Find("S"), 0, 0, Rational::One());
    }
    tids.push_back(std::move(tid));
  }
  GfomcSession session;
  const std::vector<GfomcResult> results = session.EvaluateMany(q, tids);
  ASSERT_EQ(results.size(), tids.size());
  WmcEngine engine;
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(results[i].probability, engine.QueryProbability(q, tids[i]))
        << "tid " << i;
  }
  const CircuitCache::Stats stats = session.stats().cache;
  EXPECT_EQ(stats.compiles, 2u);
  EXPECT_EQ(stats.batch_passes, 2u);
  EXPECT_EQ(stats.batched_vectors, 6u);
  // Minimization payoff is surfaced through the cache stats.
  EXPECT_GE(stats.nodes_before_minimize, stats.nodes_after_minimize);
  EXPECT_GT(stats.nodes_after_minimize, 0u);
}

TEST(ClauseEqualGroupTest, SharesOneEntryAndReadsTheWidestBatch) {
  // A group shares clause lists only, but a grounder can intern a variable
  // and then drop its clause (certain-true tuple, subsumption), so two
  // lineages with identical clauses can disagree on num_vars. They share
  // one circuit, and its pass reads a batch as wide as the widest member —
  // the orphan columns are never read — rather than the group key's width.
  FaultGuard guard;  // a lost insert would recompile for the second lookup
  Cnf narrow;
  narrow.num_vars = 2;
  narrow.AddClause({0, 1});
  Cnf wide;
  wide.num_vars = 4;  // vars 2..3 orphaned: no clause mentions them
  wide.AddClause({0, 1});
  const std::vector<Rational> a = {Rational(1, 3), Rational(1, 4)};
  const std::vector<Rational> b = {Rational(2, 3), Rational(3, 4),
                                   Rational::Half(), Rational::Half()};
  // The narrow member's row leaves the orphan columns at zero, as a
  // session group's batch does.
  const WeightMatrix weights = WeightMatrix::FromRows(
      {{a[0], a[1], Rational::Zero(), Rational::Zero()}, b});
  CircuitCache cache;
  const std::shared_ptr<const NnfCircuit> circuit = cache.GetShared(narrow);
  // One structure: the cache key compares clause lists only.
  EXPECT_EQ(cache.GetShared(wide), circuit);
  EXPECT_EQ(cache.stats().compiles, 1u);
  const std::vector<Rational> results = cache.EvaluatePinned(*circuit, weights);
  WmcEngine engine;
  EXPECT_EQ(results[0], engine.Probability(narrow, a));
  EXPECT_EQ(results[1], engine.Probability(wide, b));
}

TEST(OracleBatchTest, CompiledBatchMatchesPerCallOracle) {
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/5);
  std::vector<Tid> tids;
  for (int p1 = 1; p1 <= 2; ++p1) {
    for (int p2 = 1; p2 <= 2; ++p2) {
      tids.push_back(reduction.BuildTid(phi, p1, p2));
    }
  }
  CompiledOracle batched;
  WmcOracle looped;
  std::vector<Rational> batch =
      batched.ProbabilityBatch(reduction.query(), tids);
  std::vector<Rational> loop = looped.ProbabilityBatch(reduction.query(), tids);
  EXPECT_EQ(batch, loop);
  EXPECT_EQ(batched.calls(), static_cast<int>(tids.size()));
  EXPECT_EQ(looped.calls(), static_cast<int>(tids.size()));
}

TEST(SafeSessionBatchTest, GfomcAssignmentsRouteThroughCircuitCache) {
  // Safe query, GFOMC weights: a session call must agree with per-TID
  // lifted evaluation and actually take the compiled route.
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  std::vector<Tid> tids;
  for (int i = 0; i < 4; ++i) {
    Tid tid(q.vocab_ptr(), 2, 2, Rational::One());
    const Vocabulary& v = q.vocab();
    for (int u = 0; u < 2; ++u) {
      tid.SetUnaryLeft(v.Find("R"), u,
                       (u + i) % 2 == 0 ? Rational::Half() : Rational::One());
      for (int w = 0; w < 2; ++w) {
        tid.SetBinary(v.Find("S"), u, w, Rational::Half());
      }
    }
    tids.push_back(std::move(tid));
  }
  GfomcSession session;
  const std::vector<GfomcResult> results = session.EvaluateMany(q, tids);
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.safe_compiled, 4u);
  EXPECT_EQ(stats.safe_lifted, 0u);
  EXPECT_GT(stats.cache.batch_passes, 0u);
  for (size_t i = 0; i < tids.size(); ++i) {
    auto expected = LiftedProbability(q, tids[i]);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(results[i].probability, *expected) << "tid " << i;
  }
}

TEST(SafeSessionBatchTest, GeneralWeightsFallBackToLiftedPath) {
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  std::vector<Tid> tids;
  for (int i = 1; i <= 3; ++i) {
    Tid tid(q.vocab_ptr(), 2, 2, Rational::One());
    const Vocabulary& v = q.vocab();
    for (int u = 0; u < 2; ++u) {
      for (int w = 0; w < 2; ++w) {
        tid.SetBinary(v.Find("S"), u, w, Rational(i, 5));  // not GFOMC
      }
    }
    tids.push_back(std::move(tid));
  }
  GfomcSession session;
  const std::vector<GfomcResult> results = session.EvaluateMany(q, tids);
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.safe_lifted, 3u);
  EXPECT_EQ(stats.safe_compiled, 0u);
  for (size_t i = 0; i < tids.size(); ++i) {
    auto expected = LiftedProbability(q, tids[i]);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(results[i].probability, *expected);
  }
}

}  // namespace
}  // namespace gmc
