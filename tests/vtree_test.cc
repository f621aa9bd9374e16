// Vtree-guided compilation orders: the heuristics move circuit SIZE, never
// results. Pins (a) structural well-formedness of the vtrees themselves,
// (b) exact agreement of every OrderHeuristic with the recursive engine on
// random CNFs and the paper's gadget lineages — bit-identical at every
// thread count, on the Rational and dyadic routes, (c) the regression
// guarantee that kMinFill never produces a larger circuit than the legacy
// order on the gadget corpus, and (d) the CircuitCache / GfomcSession
// plumbing (GMC_ORDER parsing, per-cache order stats).

#include <random>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/vtree.h"
#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "logic/incidence.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "scoped_env.h"
#include "wmc/brute_force.h"
#include "wmc/wmc.h"

namespace gmc {
namespace {

constexpr OrderHeuristic kAllOrders[] = {
    OrderHeuristic::kDefault, OrderHeuristic::kMinFill,
    OrderHeuristic::kBalanced};

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Query ExampleC9() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
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
  cnf.RemoveSubsumed();
  return cnf;
}

std::vector<Rational> RandomProbabilities(int num_vars, std::mt19937_64& rng) {
  std::vector<Rational> probs;
  for (int v = 0; v < num_vars; ++v) {
    switch (rng() % 4) {
      case 0:
        probs.push_back(Rational::Zero());
        break;
      case 1:
        probs.push_back(Rational(1 + static_cast<int64_t>(rng() % 6), 7));
        break;
      default:
        probs.push_back(Rational::Half());
        break;
    }
  }
  return probs;
}

// The Type-I gadget lineages the reduction actually probes, across P2CNF
// sizes, plus the Type-II Möbius gadget at growing domains — the corpus of
// the size-regression test below.
std::vector<Lineage> GadgetCorpus(int max_type2_domain) {
  std::vector<Lineage> corpus;
  for (int nm = 2; nm <= 5; ++nm) {
    Type1Reduction reduction(H1());
    P2Cnf phi = P2Cnf::Random(nm, std::min(nm, nm * (nm - 1) / 2),
                              /*seed=*/17);
    for (int p1 = 1; p1 <= 2; ++p1) {
      Tid tid = reduction.BuildTid(phi, p1, 2);
      corpus.push_back(Ground(reduction.query(), tid));
    }
  }
  Query q = ExampleC9();
  for (int d = 3; d <= max_type2_domain; ++d) {
    Tid tid(q.vocab_ptr(), d, d, Rational::Half());
    corpus.push_back(Ground(q, tid));
  }
  return corpus;
}

TEST(OrderHeuristicTest, NamesRoundTrip) {
  for (OrderHeuristic order : kAllOrders) {
    OrderHeuristic parsed = OrderHeuristic::kDefault;
    EXPECT_TRUE(ParseOrderHeuristic(OrderHeuristicName(order), &parsed));
    EXPECT_EQ(parsed, order);
  }
  OrderHeuristic out = OrderHeuristic::kMinFill;
  EXPECT_FALSE(ParseOrderHeuristic("min-fill", &out));
  EXPECT_FALSE(ParseOrderHeuristic("", &out));
  EXPECT_FALSE(ParseOrderHeuristic(nullptr, &out));
  EXPECT_EQ(out, OrderHeuristic::kMinFill);  // untouched on failure
}

TEST(OrderHeuristicTest, EnvSpecParsing) {
  // The GMC_ORDER vocabulary: unknown, empty or missing values mean
  // kDefault.
  ScopedEnv env;
  const std::pair<const char*, OrderHeuristic> kSpecs[] = {
      {"minfill", OrderHeuristic::kMinFill},
      {"balanced", OrderHeuristic::kBalanced},
      {"default", OrderHeuristic::kDefault},
      {"bogus", OrderHeuristic::kDefault},
      {"", OrderHeuristic::kDefault},
      {nullptr, OrderHeuristic::kDefault}};
  for (const auto& [spec, order] : kSpecs) {
    env.Set("GMC_ORDER", spec);
    EXPECT_EQ(GmcOptions::FromEnv().order, order)
        << (spec != nullptr ? spec : "(unset)");
  }
}

TEST(OrderHeuristicTest, ProcessDefaultFlowsIntoNewCaches) {
  ScopedEnv env;
  env.Set("GMC_ORDER", "minfill");
  CircuitCache cache;
  EXPECT_EQ(cache.order(), OrderHeuristic::kMinFill);
  env.Set("GMC_ORDER", nullptr);
  CircuitCache restored;
  EXPECT_EQ(restored.order(), OrderHeuristic::kDefault);
  // A cache keeps the order it was built with.
  EXPECT_EQ(cache.order(), OrderHeuristic::kMinFill);
}

TEST(VtreeTest, FromLinearOrderIsWellFormed) {
  Vtree vtree = Vtree::FromLinearOrder(6, {4, 1, 5});
  EXPECT_TRUE(vtree.CheckWellFormed());
  EXPECT_EQ(vtree.num_leaves(), 3);
  EXPECT_EQ(vtree.decision_rank()[4], 0);
  EXPECT_EQ(vtree.decision_rank()[1], 1);
  EXPECT_EQ(vtree.decision_rank()[5], 2);
  EXPECT_EQ(vtree.decision_rank()[0], -1);  // no leaf → no rank
}

TEST(VtreeTest, ConstantCnfYieldsEmptyTree) {
  Cnf cnf;
  cnf.num_vars = 3;  // no clauses
  for (OrderHeuristic order :
       {OrderHeuristic::kMinFill, OrderHeuristic::kBalanced}) {
    Vtree vtree = Vtree::Build(cnf, order);
    EXPECT_TRUE(vtree.CheckWellFormed());
    EXPECT_EQ(vtree.root(), -1);
    EXPECT_EQ(vtree.num_leaves(), 0);
  }
}

TEST(VtreeTest, BuildIsWellFormedOnRandomCnfs) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Cnf cnf = RandomCnf(rng);
    const size_t used = cnf.UsedVariables().size();
    for (OrderHeuristic order :
         {OrderHeuristic::kMinFill, OrderHeuristic::kBalanced}) {
      Vtree vtree = Vtree::Build(cnf, order);
      EXPECT_TRUE(vtree.CheckWellFormed()) << "trial " << trial;
      EXPECT_EQ(static_cast<size_t>(vtree.num_leaves()), used)
          << "trial " << trial;
    }
  }
}

TEST(VtreeTest, BuildIsDeterministic) {
  std::mt19937_64 rng(23);
  Cnf cnf = RandomCnf(rng);
  for (OrderHeuristic order :
       {OrderHeuristic::kMinFill, OrderHeuristic::kBalanced}) {
    Vtree a = Vtree::Build(cnf, order);
    Vtree b = Vtree::Build(cnf, order);
    EXPECT_EQ(a.decision_rank(), b.decision_rank());
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    for (size_t i = 0; i < a.nodes().size(); ++i) {
      EXPECT_EQ(a.nodes()[i].var, b.nodes()[i].var);
      EXPECT_EQ(a.nodes()[i].left, b.nodes()[i].left);
      EXPECT_EQ(a.nodes()[i].right, b.nodes()[i].right);
    }
  }
}

TEST(PrimalGraphTest, ExtractionAndOrders) {
  // (0|1) & (1|2) & (3): a path 0–1–2 plus the isolated-but-occurring 3.
  Cnf cnf;
  cnf.num_vars = 5;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  cnf.AddClause({3});
  PrimalGraph graph = PrimalGraph::FromClauses(cnf.num_vars, cnf.clauses);
  EXPECT_EQ(graph.NumEdges(), 2u);
  EXPECT_EQ(graph.UsedVariables(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(graph.adjacency[1], (std::vector<int>{0, 2}));
  EXPECT_TRUE(graph.adjacency[3].empty());
  EXPECT_TRUE(graph.adjacency[4].empty());
  // Every order covers exactly the used variables.
  for (auto order : {MinFillOrder(graph), MinDegreeOrder(graph),
                     BfsOrder(graph)}) {
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  }
}

TEST(PrimalGraphTest, MinFillCompactsSparseOccurrenceOverHugeIdSpace) {
  // A handful of occurring variables scattered across an id space larger
  // than kMinFillMaxVars must still take the true min-fill path (compacted
  // ids), not the min-degree fallback — and come back with original ids.
  const int num_vars = kMinFillMaxVars + 500;
  std::vector<std::vector<int>> clauses = {
      {3, 2100}, {2100, 2400}, {2400, 3}, {7}};
  PrimalGraph graph = PrimalGraph::FromClauses(num_vars, clauses);
  std::vector<int> order = MinFillOrder(graph);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(order, (std::vector<int>{3, 7, 2100, 2400}));
  // Both vtree builders handle the same sparse-over-huge-id-space shape
  // (the balanced builder compacts ids internally).
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (const auto& clause : clauses) cnf.AddClause(clause);
  for (OrderHeuristic heuristic :
       {OrderHeuristic::kMinFill, OrderHeuristic::kBalanced}) {
    Vtree vtree = Vtree::Build(cnf, heuristic);
    EXPECT_TRUE(vtree.CheckWellFormed()) << OrderHeuristicName(heuristic);
    EXPECT_EQ(vtree.num_leaves(), 4);
  }
}

// The invariance heart: every heuristic yields the same probabilities as
// the recursive engine (and brute force on small inputs), on random CNFs.
class OrderInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderInvarianceTest, AllOrdersAgreeOnRandomCnfs) {
  std::mt19937_64 rng(GetParam());
  WmcEngine engine;
  for (int trial = 0; trial < 20; ++trial) {
    Cnf cnf = RandomCnf(rng);
    std::vector<Rational> probs = RandomProbabilities(cnf.num_vars, rng);
    const Rational reference = engine.Probability(cnf, probs);
    for (OrderHeuristic order : kAllOrders) {
      Compiler compiler;
      compiler.set_order(order);
      NnfCircuit circuit = compiler.Compile(cnf);
      EXPECT_TRUE(circuit.CheckDecomposable())
          << OrderHeuristicName(order) << " trial " << trial;
      EXPECT_TRUE(circuit.CheckDeterministic())
          << OrderHeuristicName(order) << " trial " << trial;
      EXPECT_EQ(circuit.Evaluate(probs), reference)
          << OrderHeuristicName(order) << " trial " << trial;
      if (cnf.num_vars <= 10) {
        EXPECT_EQ(circuit.Evaluate(probs), BruteForceProbability(cnf, probs))
            << OrderHeuristicName(order) << " trial " << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderInvarianceTest,
                         ::testing::Values(31, 62, 93));

TEST(OrderInvarianceGadgetTest, BitIdenticalAcrossOrdersAndThreadCounts) {
  // The acceptance contract, verbatim: identical probabilities on the
  // gadget corpus under every heuristic, at 1 and 4 threads, dyadic
  // routing exercised via the power-of-two weights the sweeps use.
  for (const Lineage& lineage : GadgetCorpus(/*max_type2_domain=*/3)) {
    const int num_vars = lineage.cnf.num_vars;
    WeightMatrix weights(4, num_vars);
    for (int v = 0; v < num_vars; ++v) {
      weights.Set(0, v, Rational::Half());
      weights.Set(1, v, Rational::One());
      weights.Set(2, v, Rational(1, 4));
      weights.Set(3, v, Rational(3, 8));
    }
    std::vector<std::vector<Rational>> reference;
    for (OrderHeuristic order : kAllOrders) {
      Compiler compiler;
      compiler.set_order(order);
      NnfCircuit circuit = compiler.Compile(lineage);
      for (int num_threads : {1, 4}) {
        std::vector<Rational> exact =
            circuit.EvaluateBatch(weights, num_threads);
        DyadicBatchStats routes;
        std::vector<Rational> dyadic =
            circuit.EvaluateBatchDyadic(weights, num_threads, &routes);
        EXPECT_EQ(routes.rational_vectors, 0);  // the dyadic kernel ran
        EXPECT_EQ(exact, dyadic) << OrderHeuristicName(order);
        if (reference.empty()) {
          reference.push_back(exact);
        } else {
          EXPECT_EQ(exact, reference[0])
              << OrderHeuristicName(order) << " threads=" << num_threads;
        }
      }
    }
  }
}

TEST(OrderRegressionTest, MinFillNeverLargerThanDefaultOnGadgetCorpus) {
  // The size-regression pin: on the gadget corpus (Type-I lineages across
  // P2CNF sizes, Type-II at domains 3 and 4 — the range where the order
  // can matter asymptotically; the 16-variable d=2 instance is
  // constant-sized either way), the min-fill vtree order never produces
  // more post-minimization edges than the legacy most-occurring order,
  // and wins outright on the largest Type-II instance.
  size_t total_default = 0, total_minfill = 0;
  for (const Lineage& lineage : GadgetCorpus(/*max_type2_domain=*/4)) {
    Compiler default_compiler;
    NnfCircuit default_circuit = default_compiler.Compile(lineage);
    Compiler minfill_compiler;
    minfill_compiler.set_order(OrderHeuristic::kMinFill);
    NnfCircuit minfill_circuit = minfill_compiler.Compile(lineage);
    const size_t default_edges = default_circuit.ComputeStats().edges;
    const size_t minfill_edges = minfill_circuit.ComputeStats().edges;
    EXPECT_LE(minfill_edges, default_edges)
        << "lineage vars=" << lineage.variables.size();
    total_default += default_edges;
    total_minfill += minfill_edges;
  }
  // Strict overall win, not just non-regression (the Type-II d=4 gadget
  // alone shrinks ~12×).
  EXPECT_LT(total_minfill, total_default);
}

CircuitCache::Stats OrderedCacheRun(OrderHeuristic order,
                                    const Lineage& lineage,
                                    uint64_t* edges) {
  CircuitCache cache;
  GmcOptions options = cache.options();
  options.order = order;
  cache.Configure(options);
  EXPECT_EQ(cache.order(), order);
  WmcEngine engine;
  EXPECT_EQ(cache.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
            engine.Probability(lineage))
      << OrderHeuristicName(order);
  // Second probe: cache hit, no new compile.
  EXPECT_EQ(cache.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
            engine.Probability(lineage));
  *edges = cache.GetShared(lineage.cnf)->ComputeStats().edges;
  return cache.stats();
}

TEST(CircuitCacheOrderTest, OrderStatsCountOrderedCompiles) {
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/9);
  Tid tid = reduction.BuildTid(phi, 1, 2);
  Lineage lineage = Ground(reduction.query(), tid);

  // The default order records nothing in the order counters.
  uint64_t default_edges = 0;
  const CircuitCache::Stats plain =
      OrderedCacheRun(OrderHeuristic::kDefault, lineage, &default_edges);
  EXPECT_EQ(plain.compiles, 1u);
  EXPECT_EQ(plain.ordered_compiles, 0u);
  EXPECT_EQ(plain.order_edges, 0u);

  for (OrderHeuristic order :
       {OrderHeuristic::kMinFill, OrderHeuristic::kBalanced}) {
    uint64_t edges = 0;
    const CircuitCache::Stats stats = OrderedCacheRun(order, lineage, &edges);
    EXPECT_EQ(stats.compiles, 1u);
    EXPECT_EQ(stats.ordered_compiles, 1u);
    EXPECT_EQ(stats.order_edges, edges);
    // On this gadget the min-fill circuit is strictly smaller than the
    // same structure compiled under the default order.
    if (order == OrderHeuristic::kMinFill) {
      EXPECT_LT(edges, default_edges);
    }
  }
}

TEST(GfomcSessionOrderTest, SessionResultsInvariantUnderOrder) {
  Query q = H1();
  const Vocabulary& v = q.vocab();
  Tid tid(q.vocab_ptr(), 2, 2);
  for (int u = 0; u < 2; ++u) {
    tid.SetUnaryLeft(v.Find("R"), u, Rational::Half());
    tid.SetUnaryRight(v.Find("T"), u, Rational::Half());
  }
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      tid.SetBinary(v.Find("S"), a, b, Rational::Half());
    }
  }
  const Rational reference = WmcEngine().QueryProbability(q, tid);
  for (OrderHeuristic order : kAllOrders) {
    GfomcSession session;
    GmcOptions options = session.options();
    options.order = order;
    session.Configure(options);
    GfomcResult result = session.Evaluate(q, tid);
    EXPECT_EQ(result.probability, reference) << OrderHeuristicName(order);
    EXPECT_FALSE(result.used_lifted);
  }
}

}  // namespace
}  // namespace gmc
