#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "core/dichotomy.h"
#include "hardness/big_matrix.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "hardness/small_matrix.h"
#include "logic/parser.h"
#include "prob/block.h"
#include "wmc/brute_force.h"
#include "wmc/wmc.h"

namespace gmc {
namespace {

Query H1() {
  return ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

// (R ∨ S1) ∧ (S1 ∨ S2) ∧ (S2 ∨ T): final Type-I of length 2.
Query Chain2() {
  return ParseQueryOrDie(
      "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S1(x,y) | S2(x,y)) & "
      "Ax Ay (S2(x,y) | T(y))");
}

// --- Blocks -----------------------------------------------------------------

TEST(BlockTest, PathBlockStructure) {
  Query q = H1();
  IsolatedBlock block = MakeIsolatedBlock(q.vocab_ptr(), {3});
  // p = 3: lefts r0..r3 (2 endpoints + 2 internal), rights t1..t3.
  EXPECT_EQ(block.tid.num_left(), 4);
  EXPECT_EQ(block.tid.num_right(), 3);
  // Explicit tuples: R on 4 lefts, T on 3 rights, S on 2·3 path edges.
  EXPECT_EQ(block.tid.explicit_tuples().size(), 4u + 3u + 6u);
  EXPECT_TRUE(block.tid.IsFomcInstance());  // only 1/2 and 1 appear
}

TEST(BlockTest, GraphTidSharesEndpoints) {
  Query q = H1();
  P2Cnf phi;
  phi.num_vars = 3;
  phi.edges = {{0, 1}, {1, 2}};
  Tid tid = MakeBlockTidForGraph(q.vocab_ptr(), 3, phi.edges, 1, 2);
  // Vertices 0..2 plus internals: per edge p=1 contributes 0 internal lefts
  // and 1 right; p=2 contributes 1 internal left and 2 rights.
  EXPECT_EQ(tid.num_left(), 3 + 2 * (0 + 1));
  EXPECT_EQ(tid.num_right(), 2 * (1 + 2));
  EXPECT_TRUE(tid.IsFomcInstance());
}

// --- Small matrix (E5, E7, E8) ----------------------------------------------

TEST(SmallMatrixTest, A1OfH1MatchesHandComputation) {
  // Y(1) = (R_u ∨ S_u)(S_u ∨ T)(R_v ∨ S_v)(S_v ∨ T) at probability 1/2:
  // z00 = 1/4, z01 = z10 = 3/8, z11 = 5/8.
  RationalMatrix a1 = ComputeA1(H1());
  EXPECT_EQ(a1.At(0, 0), Rational(1, 4));
  EXPECT_EQ(a1.At(0, 1), Rational(3, 8));
  EXPECT_EQ(a1.At(1, 0), Rational(3, 8));
  EXPECT_EQ(a1.At(1, 1), Rational(5, 8));
}

TEST(SmallMatrixTest, Lemma319TransferMatrix) {
  // A(p) from matrix powers equals the direct WMC definition (E5).
  for (const Query& q : {H1(), Chain2()}) {
    RationalMatrix a1 = ComputeA1(q);
    for (int p = 1; p <= 4; ++p) {
      EXPECT_EQ(ComputeAp(a1, p), ComputeApDirect(q, p))
          << q.ToString() << " p=" << p;
    }
  }
}

TEST(SmallMatrixTest, DesignConditionsHoldForFinalQueries) {
  for (const Query& q : {H1(), Chain2()}) {
    DesignConditionReport report = CheckDesignConditions(ComputeA1(q));
    EXPECT_TRUE(report.AllHold()) << q.ToString() << "\n"
                                  << report.ToString();
    EXPECT_LT(std::abs(report.lambda1), report.lambda2);  // |λ1| < λ2
  }
}

TEST(SmallMatrixTest, Corollary318Factorization) {
  // f_A = c·Π uᵢ(1−uᵢ): vanishes at every 0/1 substitution, and the
  // constant is f_A(1/2,…,1/2)·4^N.
  Polynomial det = SmallMatrixDetPolynomial(H1());
  ASSERT_FALSE(det.IsZero());
  std::vector<int> vars = det.Variables();
  for (int v : vars) {
    EXPECT_TRUE(det.SubstituteValue(v, Rational(0)).IsZero()) << v;
    EXPECT_TRUE(det.SubstituteValue(v, Rational(1)).IsZero()) << v;
  }
  std::unordered_map<int, Rational> half_point;
  for (int v : vars) half_point[v] = Rational::Half();
  Rational at_half = det.Evaluate(half_point);
  EXPECT_NE(at_half, Rational::Zero());  // Theorem 3.16
  // Compare against c·Π uᵢ(1−uᵢ) at a non-uniform interior point.
  Rational c = at_half * Rational(4).Pow(static_cast<int64_t>(vars.size()));
  std::unordered_map<int, Rational> point;
  Rational expected = c;
  int i = 0;
  for (int v : vars) {
    Rational u(1 + (i++ % 3), 5);  // 1/5, 2/5, 3/5, ...
    point[v] = u;
    expected *= u * (Rational::One() - u);
  }
  EXPECT_EQ(det.Evaluate(point), expected);
}

// --- P2CNF ------------------------------------------------------------------

TEST(P2CnfTest, CountsAndSignatures) {
  P2Cnf phi;
  phi.num_vars = 2;
  phi.edges = {{0, 1}};
  EXPECT_EQ(CountSatisfying(phi), BigInt(3));
  auto counts = SignatureCounts(phi);
  // Signatures over 1 clause: (1,0,0) for 00, (0,1,0) for 01/10, (0,0,1).
  EXPECT_EQ(counts[(Signature{1, 0, 0})], BigInt(1));
  EXPECT_EQ(counts[(Signature{0, 1, 0})], BigInt(2));
  EXPECT_EQ(counts[(Signature{0, 0, 1})], BigInt(1));
}

TEST(P2CnfTest, RandomInstanceShape) {
  P2Cnf phi = P2Cnf::Random(6, 7, 42);
  EXPECT_EQ(phi.num_vars, 6);
  EXPECT_EQ(phi.num_clauses(), 7);
  for (const auto& [i, j] : phi.edges) {
    EXPECT_NE(i, j);
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 6);
  }
}

// --- Big matrix (E6) ---------------------------------------------------------

TEST(BigMatrixTest, SymmetricSystemNonSingularForH1Series) {
  RationalMatrix a1 = ComputeA1(H1());
  for (int m = 1; m <= 3; ++m) {
    auto z = ZSeries(a1, m + 1);
    SymmetricBigMatrix big = BuildSymmetricBigMatrix(z, m);
    EXPECT_EQ(big.matrix.rows(), (m + 1) * (m + 2) / 2);
    EXPECT_FALSE(big.matrix.Determinant().IsZero()) << "m=" << m;
  }
}

TEST(BigMatrixTest, LiteralTheorem36MatrixHasPermutedDuplicateRows) {
  // Reproduction note (big_matrix.h): with the same parameter set on both
  // coordinates, y_i(p1,p2) = y_i(p2,p1), so the literal (m+1)²×(m+1)²
  // matrix has duplicate rows and is singular; the reduction therefore
  // solves the multiset-indexed square system instead.
  RationalMatrix a1 = ComputeA1(H1());
  auto z = ZSeries(a1, 2);
  RationalMatrix naive = BuildBigMatrix(z, 1, 2);
  EXPECT_EQ(naive.rows(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(naive.At(BigMatrixRowIndex({1, 2}, 1), c),
              naive.At(BigMatrixRowIndex({2, 1}, 1), c));
  }
  EXPECT_TRUE(naive.Determinant().IsZero());
}

TEST(BigMatrixTest, SingularWhenConditionsViolated) {
  // A degenerate series z_i(p) = constant per i (aᵢ·bⱼ = aⱼ·bᵢ everywhere)
  // must produce a singular matrix — the converse direction of Theorem 3.6.
  std::vector<std::vector<Rational>> z(3, {Rational(1, 2), Rational(1, 2),
                                           Rational(1, 2)});
  SymmetricBigMatrix big = BuildSymmetricBigMatrix(z, 2);
  EXPECT_TRUE(big.matrix.Determinant().IsZero());
}

// --- End-to-end reduction (E1) ----------------------------------------------

TEST(Type1ReductionTest, SingleClauseFormula) {
  Type1Reduction reduction(H1());
  P2Cnf phi;
  phi.num_vars = 2;
  phi.edges = {{0, 1}};
  Type1ReductionResult result = reduction.Run(phi);
  EXPECT_EQ(result.model_count, BigInt(3));
  EXPECT_TRUE(result.solution_integral);
  EXPECT_TRUE(result.big_matrix_nonsingular);
  EXPECT_EQ(result.oracle_calls, 3);  // C(m+2,2) multisets {p1 <= p2}
}

TEST(Type1ReductionTest, RecoversAllSignatureCounts) {
  Type1Reduction reduction(H1());
  P2Cnf phi;
  phi.num_vars = 4;
  phi.edges = {{0, 1}, {1, 2}, {2, 3}};
  Type1ReductionResult result = reduction.Run(phi);
  EXPECT_EQ(result.model_count, CountSatisfying(phi));
  auto expected = SignatureCounts(phi);
  EXPECT_EQ(result.signature_counts.size(), expected.size());
  for (const auto& [signature, count] : expected) {
    EXPECT_EQ(result.signature_counts[signature], count)
        << signature[0] << "," << signature[1] << "," << signature[2];
  }
}

TEST(Type1ReductionTest, HonestWmcOracleAgrees) {
  // The full pipeline with the structure-blind WMC oracle on the actual
  // gadget TIDs (small instance: 9 oracle calls).
  Type1Reduction reduction(H1());
  P2Cnf phi;
  phi.num_vars = 3;
  phi.edges = {{0, 1}, {1, 2}};
  WmcOracle oracle;
  Type1ReductionResult result = reduction.Run(phi, &oracle);
  EXPECT_EQ(result.model_count, CountSatisfying(phi));
  EXPECT_EQ(result.oracle_calls, 6);  // C(m+2,2) with m = 2
  // Differential: the serving path (templates, the group pass, the dyadic
  // widths) recovers the same counts from the same oracle calls.
  CompiledOracle compiled;
  Type1ReductionResult served = reduction.Run(phi, &compiled);
  EXPECT_EQ(served.model_count, result.model_count);
  EXPECT_EQ(served.signature_counts, result.signature_counts);
  EXPECT_EQ(served.oracle_calls, result.oracle_calls);
}

TEST(Type1ReductionTest, OracleTidProbabilityMatchesTheorem34) {
  // Pr over the real TID (exact WMC) equals the factorized formula — the
  // content of Theorem 3.4 on a concrete instance.
  Type1Reduction reduction(H1());
  P2Cnf phi;
  phi.num_vars = 3;
  phi.edges = {{0, 1}, {0, 2}};
  RationalMatrix a1 = ComputeA1(H1());
  auto z = ZSeries(a1, 3);
  for (int p1 = 1; p1 <= 2; ++p1) {
    for (int p2 = 1; p2 <= 2; ++p2) {
      Tid tid = reduction.BuildTid(phi, p1, p2);
      WmcEngine engine;
      Rational direct = engine.QueryProbability(reduction.query(), tid);
      FactorizedOracle factorized;
      Rational via_theorem = factorized.GraphProbability(
          phi, {z[p1 - 1][0] * z[p2 - 1][0], z[p1 - 1][1] * z[p2 - 1][1],
                z[p1 - 1][2] * z[p2 - 1][2]});
      EXPECT_EQ(direct, via_theorem) << "p1=" << p1 << " p2=" << p2;
    }
  }
}

TEST(Type1ReductionTest, LongerChainQuery) {
  Type1Reduction reduction(Chain2());
  P2Cnf phi;
  phi.num_vars = 3;
  phi.edges = {{0, 1}, {1, 2}, {0, 2}};  // triangle: #Φ = 4
  Type1ReductionResult result = reduction.Run(phi);
  EXPECT_EQ(result.model_count, BigInt(4));
  EXPECT_EQ(result.model_count, CountSatisfying(phi));
}

class Type1ReductionRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(Type1ReductionRandomTest, MatchesBruteForce) {
  Type1Reduction reduction(H1());
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 5);
    const int max_m = std::min(4, n * (n - 1) / 2);
    const int m = 1 + static_cast<int>(rng() % max_m);
    P2Cnf phi = P2Cnf::Random(n, m, rng());
    Type1ReductionResult result = reduction.Run(phi);
    EXPECT_EQ(result.model_count, CountSatisfying(phi))
        << phi.ToString() << " seed " << GetParam();
    EXPECT_TRUE(result.solution_integral);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Type1ReductionRandomTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace gmc
