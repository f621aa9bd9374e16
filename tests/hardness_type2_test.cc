#include <random>

#include <gtest/gtest.h>

#include "core/dichotomy.h"
#include "hardness/ccp.h"
#include "hardness/reduction_type1.h"
#include "hardness/type2.h"
#include "hardness/zigzag.h"
#include "logic/bipartite.h"
#include "logic/parser.h"
#include "wmc/wmc.h"

namespace gmc {
namespace {

Query ExampleC9() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// A Type II-II chain of length 5 (Lemma C.10's regime).
Query LongTypeII() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ax Ay (S3(x,y) | S4(x,y)) & Ax Ay (S4(x,y) | S5(x,y)) & "
      "Ax Ay (S5(x,y) | S6(x,y)) & Ay (Ax (S6(x,y)) | Ax (S7(x,y)))");
}

// --- Zig-zag (E9) ------------------------------------------------------------

TEST(ZigzagTest, H1MapsToTypeIiDashI) {
  // H1 is Type I-I, right part Type I ⇒ n = 2; zg(H1) is Type I-I of
  // length 2k..2k+1 = 2..3.
  Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  ZigzagQuery zg = MakeZigzagQuery(h1);
  EXPECT_EQ(zg.n, 2);
  BipartiteAnalysis analysis = AnalyzeBipartite(zg.query);
  EXPECT_FALSE(analysis.safe);
  EXPECT_EQ(analysis.left_type, PartType::kTypeI);
  EXPECT_EQ(analysis.right_type, PartType::kTypeI);
  EXPECT_GE(analysis.length, 2);  // ≥ 2k with k = 1
  EXPECT_LE(analysis.length, 3);
}

TEST(ZigzagTest, TypeIiMapsToTypeIiDashIi) {
  Query q = ExampleC9();
  ZigzagQuery zg = MakeZigzagQuery(q);
  EXPECT_GE(zg.n, 3);
  BipartiteAnalysis analysis = AnalyzeBipartite(zg.query);
  EXPECT_FALSE(analysis.safe);
  EXPECT_EQ(analysis.left_type, PartType::kTypeII);
  EXPECT_EQ(analysis.right_type, PartType::kTypeII);
  EXPECT_GE(analysis.length, 2 * 2);  // Q has length 2
}

// Lemma A.1: Pr_∆(zg(Q)) = Pr_{zg(∆)}(Q) with identical probability values.
class ZigzagEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ZigzagEquivalenceTest, LineageProbabilitiesAgree) {
  std::mt19937_64 rng(GetParam());
  for (const char* text :
       {"Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))",
        "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S1(x,y) | S2(x,y)) & "
        "Ax Ay (S2(x,y) | T(y))"}) {
    Query q = ParseQueryOrDie(text);
    ZigzagQuery zg = MakeZigzagQuery(q);
    // Random GFOMC TID over the zg vocabulary.
    Tid delta(zg.query.vocab_ptr(), 2, 2, Rational::One());
    const Vocabulary& vocab = zg.query.vocab();
    auto random_probability = [&rng]() {
      switch (rng() % 4) {
        case 0:
          return Rational::Zero();
        case 1:
          return Rational::One();
        default:
          return Rational::Half();
      }
    };
    for (SymbolId s = 0; s < vocab.size(); ++s) {
      switch (vocab.kind(s)) {
        case SymbolKind::kUnaryLeft:
          for (int u = 0; u < 2; ++u) {
            delta.SetUnaryLeft(s, u, random_probability());
          }
          break;
        case SymbolKind::kUnaryRight:
          for (int v = 0; v < 2; ++v) {
            delta.SetUnaryRight(s, v, random_probability());
          }
          break;
        case SymbolKind::kBinary:
          for (int u = 0; u < 2; ++u) {
            for (int v = 0; v < 2; ++v) {
              delta.SetBinary(s, u, v, random_probability());
            }
          }
          break;
      }
    }
    Tid zg_delta = MakeZigzagTid(zg, delta);
    EXPECT_TRUE(zg_delta.IsGfomcInstance());
    WmcEngine engine;
    Rational lhs = engine.QueryProbability(zg.query, delta);
    WmcEngine engine2;
    Rational rhs = engine2.QueryProbability(q, zg_delta);
    EXPECT_EQ(lhs, rhs) << text << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZigzagEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44));

// --- CCP (E13) -----------------------------------------------------------------

TEST(CcpTest, PP2CnfBruteForce) {
  BipartiteGraph graph;
  graph.num_u = 1;
  graph.num_v = 1;
  graph.edges = {{0, 0}};
  EXPECT_EQ(CountPP2Cnf(graph), BigInt(3));
}

TEST(CcpTest, ColoringCountsTotal) {
  BipartiteGraph graph = BipartiteGraph::Random(2, 2, 3, 7);
  auto counts = ColoringCounts(graph, 2, 3);
  BigInt total(0);
  for (const auto& [signature, count] : counts) total += count;
  // m^|U| · n^|V| colorings in total.
  EXPECT_EQ(total, BigInt(2).Pow(2) * BigInt(3).Pow(2));
}

class CcpRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(CcpRecoveryTest, TheoremC3RecoversPP2Cnf) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    const int nu = 1 + static_cast<int>(rng() % 3);
    const int nv = 1 + static_cast<int>(rng() % 3);
    const int max_edges = nu * nv;
    const int ne = 1 + static_cast<int>(rng() % max_edges);
    BipartiteGraph graph = BipartiteGraph::Random(nu, nv, ne, rng());
    for (auto [m, n] : {std::pair<int, int>{2, 2}, {3, 2}, {3, 3}}) {
      auto counts = ColoringCounts(graph, m, n);
      EXPECT_EQ(PP2CnfFromColoringCounts(graph, counts, m, n),
                CountPP2Cnf(graph))
          << graph.ToString() << " m=" << m << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcpRecoveryTest, ::testing::Values(1, 2, 3));

// --- Type II structure (E12, E14) ---------------------------------------------

TEST(TypeIiTest, ExampleC9Structure) {
  TypeIIStructure structure = AnalyzeTypeII(ExampleC9());
  // G ∈ {S1∧C, S2∧C} and H ∈ {C∧S3, C∧S4}.
  EXPECT_EQ(structure.left_formulas.size(), 2u);
  EXPECT_EQ(structure.right_formulas.size(), 2u);
  // Strict supports: m̄, n̄ ≥ 3 for unsafe queries (§C.1).
  EXPECT_GE(structure.m_bar, 3);
  EXPECT_GE(structure.n_bar, 3);
  EXPECT_EQ(structure.left_lattice->MobiusSum(), 0);
  EXPECT_EQ(structure.right_lattice->MobiusSum(), 0);
}

TEST(TypeIiTest, InvertibilityOnLongChain) {
  // Lemma C.10 needs length ≥ 5; the long chain satisfies it.
  Query q = LongTypeII();
  BipartiteAnalysis analysis = AnalyzeBipartite(q);
  ASSERT_GE(analysis.length, 5);
  TypeIIStructure structure = AnalyzeTypeII(q);
  EXPECT_TRUE(CheckInvertibility(structure));
}

class MobiusInversionTest : public ::testing::TestWithParam<int> {};

TEST_P(MobiusInversionTest, TheoremC19OnRandomBlockTids) {
  std::mt19937_64 rng(GetParam());
  Query q = ExampleC9();
  TypeIIStructure structure = AnalyzeTypeII(q);
  for (int trial = 0; trial < 2; ++trial) {
    const int nu = 1 + static_cast<int>(rng() % 2);
    const int nv = 1 + static_cast<int>(rng() % 2);
    Tid delta(q.vocab_ptr(), nu, nv, Rational::One());
    const Vocabulary& vocab = q.vocab();
    for (SymbolId s = 0; s < vocab.size(); ++s) {
      if (vocab.kind(s) != SymbolKind::kBinary) continue;
      for (int u = 0; u < nu; ++u) {
        for (int v = 0; v < nv; ++v) {
          const Rational p = (rng() % 4 == 0) ? Rational::One()
                                              : Rational::Half();
          delta.SetBinary(s, u, v, p);
        }
      }
    }
    CompiledOracle compiled;
    MobiusInversionCheck check =
        VerifyMobiusInversion(structure, delta, compiled);
    EXPECT_EQ(check.direct, check.via_inversion)
        << "nu=" << nu << " nv=" << nv << " seed " << GetParam();
    // Differential: the session path answers every block as the
    // structure-blind WMC oracle does.
    WmcOracle wmc;
    MobiusInversionCheck reference =
        VerifyMobiusInversion(structure, delta, wmc);
    EXPECT_EQ(check.via_inversion, reference.via_inversion);
    EXPECT_EQ(check.terms, reference.terms);
    EXPECT_EQ(compiled.calls(), wmc.calls());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MobiusInversionTest,
                         ::testing::Values(5, 6, 7, 8));

}  // namespace
}  // namespace gmc
