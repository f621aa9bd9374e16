// The knowledge-compilation subsystem: d-DNNF circuits must agree exactly
// with the recursive WMC engine and with brute-force enumeration on every
// formula, structural invariants (decomposability, determinism) must hold
// on every emitted circuit, and compiled circuits must be reusable across
// weight vectors — the compile-once / evaluate-many contract.

#include <random>
#include <span>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "hardness/type2.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "wmc/brute_force.h"
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
        probs.push_back(Rational(1 + static_cast<int64_t>(rng() % 6),
                                 7));
        break;
      default:
        probs.push_back(Rational::Half());
        break;
    }
  }
  return probs;
}

TEST(NnfCircuitTest, ConstantsAndFolding) {
  NnfCircuit circuit;
  EXPECT_EQ(circuit.And({}), circuit.True());
  EXPECT_EQ(circuit.And({circuit.True(), circuit.False()}), circuit.False());
  const int x = circuit.Var(3);
  EXPECT_EQ(circuit.Var(3), x);  // hash-consed
  EXPECT_EQ(circuit.And({x, circuit.True()}), x);
  EXPECT_EQ(circuit.And({x, x}), x);
  EXPECT_EQ(circuit.Decision(5, x, x), x);
  EXPECT_EQ(circuit.Decision(5, circuit.True(), circuit.False()),
            circuit.Var(5));
  circuit.SetRoot(x);
  std::vector<Rational> probs(6, Rational::Zero());
  probs[3] = Rational(1, 3);
  EXPECT_EQ(circuit.Evaluate(probs), Rational(1, 3));
}

TEST(CompilerTest, ConstantFormulas) {
  Compiler compiler;
  Cnf empty;
  empty.num_vars = 0;
  NnfCircuit true_circuit = compiler.Compile(empty);
  EXPECT_EQ(true_circuit.root(), true_circuit.True());
  EXPECT_EQ(true_circuit.Evaluate({}), Rational::One());

  Cnf contradiction;
  contradiction.num_vars = 1;
  contradiction.clauses.push_back({});
  NnfCircuit false_circuit = compiler.Compile(contradiction);
  EXPECT_EQ(false_circuit.root(), false_circuit.False());
  EXPECT_EQ(false_circuit.Evaluate({Rational::Half()}), Rational::Zero());
}

TEST(CompilerTest, SingleClause) {
  // Pr(a ∨ b) with Pr(a)=1/2, Pr(b)=1/3: 2/3.
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({0, 1});
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(cnf);
  EXPECT_EQ(circuit.Evaluate({Rational(1, 2), Rational(1, 3)}),
            Rational(2, 3));
  EXPECT_TRUE(circuit.CheckDecomposable());
  EXPECT_TRUE(circuit.CheckDeterministic());
}

TEST(CompilerTest, ComponentsBecomeDecomposableAnd) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({2, 3});
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(cnf);
  EXPECT_GE(compiler.stats().component_splits, 1u);
  std::vector<Rational> probs(4, Rational::Half());
  EXPECT_EQ(circuit.Evaluate(probs), Rational(9, 16));
  NnfCircuit::Stats stats = circuit.ComputeStats();
  EXPECT_GE(stats.and_nodes, 1u);
  EXPECT_TRUE(circuit.CheckDecomposable());
}

TEST(CompilerTest, CompilationIsDeterministic) {
  Cnf cnf;
  cnf.num_vars = 5;
  cnf.AddClause({0, 1, 2});
  cnf.AddClause({1, 3});
  cnf.AddClause({2, 4});
  Compiler compiler;
  NnfCircuit a = compiler.Compile(cnf);
  NnfCircuit b = compiler.Compile(cnf);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.root(), b.root());
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.nodes()[i].kind, b.nodes()[i].kind);
    EXPECT_EQ(a.nodes()[i].var, b.nodes()[i].var);
    EXPECT_EQ(a.nodes()[i].a, b.nodes()[i].a);
    EXPECT_EQ(a.nodes()[i].b, b.nodes()[i].b);
  }
  const CircuitWalkView va = a.view();
  const CircuitWalkView vb = b.view();
  EXPECT_EQ(std::vector<int32_t>(va.children, va.children + va.num_children),
            std::vector<int32_t>(vb.children, vb.children + vb.num_children));
}

TEST(CompilerTest, HashConsingSurvivesTheReleasedIndex) {
  // PruneUnreachable releases the build-time index and FromFlat never has
  // one; the node constructors must re-derive it, so re-creating an
  // existing Var, And or Decision returns its id and appends nothing.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({2, 3});
  NnfCircuit pruned = Compiler().Compile(cnf);
  pruned.PruneUnreachable();
  NnfCircuit copy = NnfCircuit::FromFlat(pruned.view());
  for (NnfCircuit* circuit : {&pruned, &copy}) {
    const size_t before = circuit->num_nodes();
    int seen_kinds = 0;
    for (int id = 2; id < static_cast<int>(before); ++id) {
      const FlatNode node = circuit->nodes()[id];
      switch (static_cast<NnfKind>(node.kind)) {
        case NnfKind::kVar:
          EXPECT_EQ(circuit->Var(node.var), id);
          seen_kinds |= 1;
          break;
        case NnfKind::kAnd: {
          const std::span<const int32_t> children = circuit->children(id);
          EXPECT_EQ(circuit->And({children.begin(), children.end()}), id);
          seen_kinds |= 2;
          break;
        }
        case NnfKind::kDecision:
          EXPECT_EQ(circuit->Decision(node.var, node.a, node.b), id);
          seen_kinds |= 4;
          break;
        default:
          ADD_FAILURE() << "constant past id 1";
      }
    }
    EXPECT_EQ(seen_kinds, 7) << "the fixture must hold every inner kind";
    EXPECT_EQ(circuit->num_nodes(), before);
  }
}

TEST(CompilerTest, DotDumpMentionsEveryReachableKind) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  cnf.AddClause({3});
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(cnf);
  const std::string dot = circuit.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("AND"), std::string::npos);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);
}

// The heart of the satellite-test task: ~100 random monotone CNFs, three
// evaluators, exact agreement — and each circuit re-evaluated at a second
// weight vector to exercise evaluate-many.
class CompileRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CompileRandomTest, AgreesWithWmcAndBruteForce) {
  std::mt19937_64 rng(GetParam());
  Compiler compiler;
  WmcEngine engine;
  for (int trial = 0; trial < 25; ++trial) {
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
    NnfCircuit circuit = compiler.Compile(cnf);
    EXPECT_TRUE(circuit.CheckDecomposable())
        << "seed " << GetParam() << " trial " << trial;
    EXPECT_TRUE(circuit.CheckDeterministic())
        << "seed " << GetParam() << " trial " << trial;
    for (int sweep = 0; sweep < 2; ++sweep) {
      std::vector<Rational> probs = RandomProbabilities(num_vars, rng);
      const Rational compiled = circuit.Evaluate(probs);
      EXPECT_EQ(compiled, engine.Probability(cnf, probs))
          << "seed " << GetParam() << " trial " << trial;
      EXPECT_EQ(compiled, BruteForceProbability(cnf, probs))
          << "seed " << GetParam() << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileRandomTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(CompileGadgetTest, TypeIGadgetLineages) {
  // The actual TIDs the Type-I reduction sends to its oracle. The (1,1)
  // gadget (15 lineage variables) is additionally brute-forced; the larger
  // ones are checked circuit-vs-engine only (brute force is 2^vars).
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/17);
  WmcEngine engine;
  Compiler compiler;
  for (int p1 = 1; p1 <= 2; ++p1) {
    for (int p2 = p1; p2 <= 2; ++p2) {
      Tid tid = reduction.BuildTid(phi, p1, p2);
      Lineage lineage = Ground(reduction.query(), tid);
      NnfCircuit circuit = compiler.Compile(lineage);
      EXPECT_TRUE(circuit.CheckDecomposable());
      EXPECT_TRUE(circuit.CheckDeterministic());
      const Rational compiled = circuit.Evaluate(lineage.probabilities);
      EXPECT_EQ(compiled, engine.Probability(lineage))
          << "p1=" << p1 << " p2=" << p2;
      if (lineage.variables.size() <= 16) {
        EXPECT_EQ(compiled, BruteForceProbability(lineage))
            << "p1=" << p1 << " p2=" << p2;
      }
    }
  }
}

TEST(CompileGadgetTest, TypeIiGadgetLineage) {
  Query q = ExampleC9();
  Tid tid(q.vocab_ptr(), 2, 2, Rational::Half());
  Lineage lineage = Ground(q, tid);
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(lineage);
  EXPECT_TRUE(circuit.CheckDecomposable());
  EXPECT_TRUE(circuit.CheckDeterministic());
  WmcEngine engine;
  const Rational compiled = circuit.Evaluate(lineage.probabilities);
  EXPECT_EQ(compiled, engine.Probability(lineage));
  EXPECT_EQ(compiled, BruteForceProbability(lineage));
}

TEST(CircuitCacheTest, CompilesOncePerStructure) {
  // Same CNF structure at many weight vectors: one compile, many hits.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  CircuitCache cache;
  WmcEngine engine;
  for (int k = 1; k <= 8; ++k) {
    std::vector<Rational> probs = {Rational(k, 9), Rational(1, 2),
                                   Rational(9 - k, 9)};
    EXPECT_EQ(cache.GetShared(cnf)->Evaluate(probs),
              engine.Probability(cnf, probs));
  }
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.stats().hits, 7u);
}

TEST(GfomcSessionTest, CompiledQueryPathMatchesRecursive) {
  Query q = H1();
  const Vocabulary& v = q.vocab();
  Tid tid(q.vocab_ptr(), 2, 2);
  for (int u = 0; u < 2; ++u) tid.SetUnaryLeft(v.Find("R"), u, Rational::Half());
  for (int w = 0; w < 2; ++w) tid.SetUnaryRight(v.Find("T"), w, Rational::Half());
  for (int u = 0; u < 2; ++u) {
    for (int w = 0; w < 2; ++w) {
      tid.SetBinary(v.Find("S"), u, w, Rational(1, 3));
    }
  }
  GfomcSession session;
  EXPECT_EQ(session.Evaluate(q, tid).probability,
            WmcEngine().QueryProbability(q, tid));
  EXPECT_EQ(session.stats().cache.compiles, 1u);
}

TEST(CompiledOracleTest, DrivesTheType1ReductionExactly) {
  // End-to-end: the Cook reduction recovers #Φ through the compiled oracle.
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(3, 2, /*seed=*/5);
  CompiledOracle oracle;
  Type1ReductionResult result = reduction.Run(phi, &oracle);
  EXPECT_EQ(result.model_count, CountSatisfying(phi));
  EXPECT_TRUE(result.solution_integral);
  EXPECT_EQ(oracle.calls(), result.oracle_calls);
}

TEST(CompiledOracleTest, MobiusInversionSharesCircuitsAcrossBlocks) {
  FaultGuard guard;  // a lost cache insert would add a compile
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
  CompiledOracle oracle;
  MobiusInversionCheck check = VerifyMobiusInversion(structure, delta, oracle);
  EXPECT_EQ(check.direct, check.via_inversion);
  // 4 uniform blocks per (α, β): one compile per lineage structure, every
  // other block evaluation reuses a cached circuit, and each (α, β) is one
  // batched pass.
  const CircuitCache::Stats stats = oracle.session().stats().cache;
  EXPECT_GT(stats.compiles, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GE(stats.hits, 3 * stats.compiles);
  EXPECT_EQ(stats.compiles, 4u);
  EXPECT_EQ(stats.hits, 32u);
  EXPECT_EQ(stats.batch_passes, 9u);
  EXPECT_EQ(oracle.calls(), 36);  // 9 (α, β) pairs × 4 blocks
}

}  // namespace
}  // namespace gmc
