#include <random>

#include <gtest/gtest.h>

#include "lineage/boolean_formula.h"
#include "poly/lemmas.h"
#include "poly/poly_matrix.h"
#include "poly/polynomial.h"

namespace gmc {
namespace {

TEST(PolynomialTest, BasicArithmetic) {
  Polynomial x = Polynomial::Variable(0);
  Polynomial y = Polynomial::Variable(1);
  Polynomial p = x * y + Polynomial::Constant(Rational(2)) * x;
  EXPECT_EQ(p.DegreeIn(0), 1);
  EXPECT_EQ(p.DegreeIn(1), 1);
  Polynomial q = p - p;
  EXPECT_TRUE(q.IsZero());
  Polynomial square = (x + y) * (x + y);
  EXPECT_EQ(square.DegreeIn(0), 2);
  // (x+y)^2 at x=2, y=3 is 25.
  EXPECT_EQ(square.Evaluate({{0, Rational(2)}, {1, Rational(3)}}),
            Rational(25));
}

TEST(PolynomialTest, SubstituteValue) {
  // x^2*y + x at x := 1/2 gives y/4 + 1/2.
  Polynomial x = Polynomial::Variable(0);
  Polynomial y = Polynomial::Variable(1);
  Polynomial p = x * x * y + x;
  Polynomial sub = p.SubstituteValue(0, Rational::Half());
  EXPECT_EQ(sub.Evaluate({{1, Rational(1)}}), Rational(3, 4));
  EXPECT_EQ(sub.DegreeIn(0), 0);
}

TEST(PolynomialTest, SubstituteVariableMergesExponents) {
  // x*y with y := x becomes x^2.
  Polynomial p = Polynomial::Variable(0) * Polynomial::Variable(1);
  Polynomial merged = p.SubstituteVariable(1, 0);
  EXPECT_EQ(merged.DegreeIn(0), 2);
  EXPECT_EQ(merged.Evaluate({{0, Rational(3)}}), Rational(9));
}

TEST(ArithmetizeTest, PaperSection16) {
  // Y = (R ∨ S) ∧ (S ∨ T) over vars r=0, s=1, t=2:
  // y = rt + s − rst (§1.6), and y(1/2,1/2,1/2) = 5/8.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  Polynomial y = ArithmetizeCnf(cnf);
  Polynomial expected =
      Polynomial::Variable(0) * Polynomial::Variable(2) +
      Polynomial::Variable(1) -
      Polynomial::Variable(0) * Polynomial::Variable(1) *
          Polynomial::Variable(2);
  EXPECT_EQ(y, expected);
  EXPECT_EQ(y.Evaluate({{0, Rational::Half()},
                        {1, Rational::Half()},
                        {2, Rational::Half()}}),
            Rational(5, 8));
}

// Agreement on every point of {0,1}^n plus multilinearity pins the
// arithmetization uniquely.
void ExpectArithmetizes(const Cnf& cnf) {
  const Polynomial y = ArithmetizeCnf(cnf);
  EXPECT_LE(y.MaxVariableDegree(), 1) << cnf.ToString();
  for (int mask = 0; mask < (1 << cnf.num_vars); ++mask) {
    std::unordered_map<int, Rational> point;
    for (int v = 0; v < cnf.num_vars; ++v) {
      point[v] = Rational((mask >> v) & 1);
    }
    bool satisfied = true;
    for (const auto& clause : cnf.clauses) {
      bool clause_sat = false;
      for (int v : clause) clause_sat |= ((mask >> v) & 1) != 0;
      satisfied &= clause_sat;
    }
    EXPECT_EQ(y.Evaluate(point), Rational(satisfied ? 1 : 0))
        << cnf.ToString() << " mask " << mask;
  }
}

TEST(ArithmetizeTest, AgreesWithFormulaOnBooleanPoints) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2, 3});
  cnf.AddClause({0, 3});
  ExpectArithmetizes(cnf);

  std::mt19937_64 rng(1729);
  for (int trial = 0; trial < 100; ++trial) {
    Cnf random;
    random.num_vars = 1 + static_cast<int>(rng() % 8);
    const int num_clauses = static_cast<int>(rng() % 7);
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      const int len = 1 + static_cast<int>(rng() % 3);
      for (int l = 0; l < len; ++l) {
        clause.push_back(static_cast<int>(rng() % random.num_vars));
      }
      random.AddClause(std::move(clause));
    }
    ExpectArithmetizes(random);
  }
}

TEST(Lemma11Test, SimpleWitness) {
  // f = x(1-x): roots at 0 and 1, so the witness must pick 1/2.
  Polynomial x = Polynomial::Variable(0);
  Polynomial f = x * (Polynomial::Constant(Rational::One()) - x);
  auto theta = FindNonRoot(f, Rational(0), Rational::Half(), Rational(1));
  EXPECT_EQ(theta.at(0), Rational::Half());
  EXPECT_NE(f.Evaluate({{0, theta.at(0)}}), Rational::Zero());
}

class Lemma11RandomTest : public ::testing::TestWithParam<int> {};

TEST_P(Lemma11RandomTest, RandomDegreeTwoPolynomials) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const int num_vars = 2 + static_cast<int>(rng() % 6);
    // Build f as a product of two random multilinear polynomials, so each
    // variable has degree ≤ 2 — mirroring det(A) = y00·y11 − y01·y10.
    auto random_multilinear = [&rng, num_vars]() {
      Polynomial p = Polynomial::Constant(
          Rational(static_cast<int64_t>(rng() % 3) - 1));
      for (int v = 0; v < num_vars; ++v) {
        if (rng() % 2) {
          int64_t coeff = static_cast<int64_t>(rng() % 5) - 2;
          p += Polynomial::Variable(v).ScaledBy(Rational(coeff));
        }
      }
      return p;
    };
    Polynomial f = random_multilinear() * random_multilinear();
    if (f.IsZero()) continue;
    auto theta =
        FindNonRoot(f, Rational(0), Rational::Half(), Rational(1));
    std::unordered_map<int, Rational> full = theta;
    for (int v = 0; v < num_vars; ++v) {
      if (full.find(v) == full.end()) full[v] = Rational(0);
    }
    EXPECT_NE(f.Evaluate(full), Rational::Zero())
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma11RandomTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(Lemma12Test, ConnectedPaperExample) {
  // Y = (R ∨ S) ∧ (S ∨ T): connected, so det ≢ 0; indeed det = s(1−s).
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  Polynomial y = ArithmetizeCnf(cnf);
  EXPECT_FALSE(SmallMatrixSingular(y, 0, 2));
  Polynomial det = SmallMatrix(y, 0, 2).Determinant();
  Polynomial s = Polynomial::Variable(1);
  EXPECT_EQ(det, s - s * s);
}

TEST(Lemma12Test, DisconnectedFormula) {
  // Y = R ∧ T: disconnects {r}, {t}; det ≡ 0.
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.AddClause({0});
  cnf.AddClause({1});
  Polynomial y = ArithmetizeCnf(cnf);
  EXPECT_TRUE(SmallMatrixSingular(y, 0, 1));
  EXPECT_TRUE(cnf.Disconnects({0}, {1}));
}

// E3: the algebraic test (det ≡ 0) coincides with the syntactic component
// test on canonical monotone CNFs — both directions of Lemma 1.2.
class Lemma12EquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(Lemma12EquivalenceTest, DetZeroIffDisconnects) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const int num_vars = 3 + static_cast<int>(rng() % 5);
    Cnf cnf;
    cnf.num_vars = num_vars;
    const int num_clauses = 1 + static_cast<int>(rng() % 6);
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      const int len = 1 + static_cast<int>(rng() % 3);
      for (int l = 0; l < len; ++l) {
        clause.push_back(static_cast<int>(rng() % num_vars));
      }
      cnf.AddClause(std::move(clause));
    }
    cnf.RemoveSubsumed();
    const int r = 0;
    const int t = num_vars - 1;
    Polynomial y = ArithmetizeCnf(cnf);
    EXPECT_EQ(SmallMatrixSingular(y, r, t), cnf.Disconnects({r}, {t}))
        << "seed " << GetParam() << " trial " << trial << "\n"
        << cnf.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma12EquivalenceTest,
                         ::testing::Values(7, 17, 27, 37, 47));

TEST(PolyMatrixTest, MultiplyAndDeterminant) {
  PolyMatrix a = PolyMatrix::Identity(2);
  a.At(0, 1) = Polynomial::Variable(0);
  PolyMatrix b = PolyMatrix::Identity(2);
  b.At(1, 0) = Polynomial::Variable(1);
  PolyMatrix product = a * b;
  // [[1+xy, x], [y, 1]]: det = 1 + xy − xy = 1.
  Polynomial det = product.Determinant();
  EXPECT_EQ(det, Polynomial::Constant(Rational::One()));
  // 3×3 determinant sanity.
  PolyMatrix c(3, 3);
  for (int i = 0; i < 3; ++i) {
    c.At(i, i) = Polynomial::Constant(Rational(i + 1));
  }
  EXPECT_EQ(c.Determinant(), Polynomial::Constant(Rational(6)));
}

}  // namespace
}  // namespace gmc
