#include <random>

#include <gtest/gtest.h>

#include "logic/parser.h"
#include "safe/lattice.h"
#include "safe/safe_eval.h"
#include "wmc/brute_force.h"
#include "wmc/wmc.h"

namespace gmc {
namespace {

// --- Lattice / Möbius (Example C.7) ----------------------------------------

TEST(LatticeTest, PaperExampleC7First) {
  // Y1 = Z1Z2, Y2 = Z1Z3, Y3 = Z2Z3 (symbols 0,1,2):
  // Lˆ = {∅, 1, 2, 3, 123}, µ = 1, −1, −1, −1, 2.
  SymbolCnf y1 = SymbolCnf::FromClauses({{0}, {1}});
  SymbolCnf y2 = SymbolCnf::FromClauses({{0}, {2}});
  SymbolCnf y3 = SymbolCnf::FromClauses({{1}, {2}});
  ImplicationLattice lattice({y1, y2, y3});
  ASSERT_EQ(lattice.elements().size(), 5u);
  EXPECT_EQ(lattice.elements()[0].mobius, 1);   // 1̂
  EXPECT_EQ(lattice.elements()[1].mobius, -1);  // {1}
  EXPECT_EQ(lattice.elements()[2].mobius, -1);  // {2}
  EXPECT_EQ(lattice.elements()[3].mobius, -1);  // {3}
  EXPECT_EQ(lattice.elements()[4].subset, 0b111u);
  EXPECT_EQ(lattice.elements()[4].mobius, 2);
  EXPECT_EQ(lattice.MobiusSum(), 0);
}

TEST(LatticeTest, PaperExampleC7Second) {
  // Y1 = Z1Z2, Y2 = Z2Z3, Y3 = Z3Z4: support drops 123 (µ = 0).
  SymbolCnf y1 = SymbolCnf::FromClauses({{0}, {1}});
  SymbolCnf y2 = SymbolCnf::FromClauses({{1}, {2}});
  SymbolCnf y3 = SymbolCnf::FromClauses({{2}, {3}});
  ImplicationLattice lattice({y1, y2, y3});
  ASSERT_EQ(lattice.elements().size(), 7u);
  int64_t mu_123 = -999;
  for (const auto& element : lattice.elements()) {
    if (element.subset == 0b111u) mu_123 = element.mobius;
  }
  EXPECT_EQ(mu_123, 0);
  EXPECT_EQ(lattice.StrictSupport().size(), 5u);  // 1,2,3,12,23
  EXPECT_EQ(lattice.MobiusSum(), 0);
}

TEST(LatticeTest, ImplicationIsSubsumption) {
  SymbolCnf strong = SymbolCnf::FromClauses({{0}});
  SymbolCnf weak = SymbolCnf::FromClauses({{0, 1}});
  EXPECT_TRUE(SymbolCnf::Implies(strong, weak));
  EXPECT_FALSE(SymbolCnf::Implies(weak, strong));
  SymbolCnf conj = SymbolCnf::And(strong, weak);
  EXPECT_EQ(conj, strong);  // absorbed
}

// --- Safe evaluation ---------------------------------------------------------

Tid RandomTid(const Query& q, int nu, int nv, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Tid tid(q.vocab_ptr(), nu, nv);
  const Vocabulary& vocab = q.vocab();
  auto random_probability = [&rng]() {
    switch (rng() % 6) {
      case 0:
        return Rational::Zero();
      case 1:
        return Rational::One();
      case 2:
        return Rational(1, 3);
      case 3:
        return Rational(2, 5);
      default:
        return Rational::Half();
    }
  };
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    switch (vocab.kind(s)) {
      case SymbolKind::kUnaryLeft:
        for (int u = 0; u < nu; ++u) {
          tid.SetUnaryLeft(s, u, random_probability());
        }
        break;
      case SymbolKind::kUnaryRight:
        for (int v = 0; v < nv; ++v) {
          tid.SetUnaryRight(s, v, random_probability());
        }
        break;
      case SymbolKind::kBinary:
        for (int u = 0; u < nu; ++u) {
          for (int v = 0; v < nv; ++v) {
            tid.SetBinary(s, u, v, random_probability());
          }
        }
        break;
    }
  }
  return tid;
}

void ExpectMatchesWmc(const std::string& text, int nu, int nv,
                      uint64_t seed) {
  Query q = ParseQueryOrDie(text);
  Tid tid = RandomTid(q, nu, nv, seed);
  auto lifted = LiftedProbability(q, tid);
  ASSERT_TRUE(lifted.has_value()) << text;
  WmcEngine engine;
  EXPECT_EQ(*lifted, engine.QueryProbability(q, tid)) << text << "\nseed "
                                                      << seed;
}

TEST(SafeEvalTest, UnsafeReturnsNullopt) {
  Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  Tid tid(h1.vocab_ptr(), 2, 2);
  EXPECT_FALSE(LiftedProbability(h1, tid).has_value());
}

TEST(SafeEvalTest, LeftOnlyTypeI) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ExpectMatchesWmc("Ax Ay (R(x) | S(x,y))", 3, 3, seed);
  }
}

TEST(SafeEvalTest, RightOnlyTypeI) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    ExpectMatchesWmc("Ax Ay (S(x,y) | T(y))", 3, 3, seed);
  }
}

TEST(SafeEvalTest, MiddleOnly) {
  for (uint64_t seed : {7u, 8u}) {
    ExpectMatchesWmc("Ax Ay (S(x,y))", 3, 4, seed);
  }
}

TEST(SafeEvalTest, PureUnaryClauses) {
  for (uint64_t seed : {9u, 10u}) {
    ExpectMatchesWmc("Ax (R(x)) & Ay (B(y))", 3, 3, seed);
  }
}

TEST(SafeEvalTest, DisconnectedLeftAndRight) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    ExpectMatchesWmc("Ax Ay (R(x) | S1(x,y)) & Ax Ay (S2(x,y) | T(y))", 3,
                     3, seed);
  }
}

TEST(SafeEvalTest, TypeIiLeftMobius) {
  for (uint64_t seed : {14u, 15u, 16u}) {
    ExpectMatchesWmc("Ax (Ay (S1(x,y)) | Ay (S2(x,y)))", 2, 3, seed);
  }
}

TEST(SafeEvalTest, TypeIiSharedSymbols) {
  // Two Type-II left clauses sharing S1: the per-u lattice has non-trivial
  // closures (G_{S1,S2} etc.).
  for (uint64_t seed : {17u, 18u, 19u}) {
    ExpectMatchesWmc(
        "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax (Ay (S1(x,y)) | Ay "
        "(S3(x,y)))",
        2, 3, seed);
  }
}

TEST(SafeEvalTest, TypeIiRight) {
  for (uint64_t seed : {20u, 21u}) {
    ExpectMatchesWmc("Ay (Ax (S1(x,y)) | Ax (S2(x,y)))", 3, 2, seed);
  }
}

TEST(SafeEvalTest, MixedSafeConjunction) {
  for (uint64_t seed : {22u, 23u}) {
    ExpectMatchesWmc(
        "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S1(x,y) | S2(x,y)) & "
        "Ax (Ay (S1(x,y)) | Ay (S2(x,y)))",
        2, 3, seed);
  }
}

class SafeEvalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SafeEvalRandomTest, AgainstBruteForceOnManyTids) {
  // The whole safe suite at growing domain sizes.
  const char* kQueries[] = {
      "Ax Ay (R(x) | S(x,y))",
      "Ax Ay (S(x,y) | T(y))",
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y)))",
      "Ax Ay (R(x) | S1(x,y)) & Ax Ay (S2(x,y) | T(y))",
      "Ax Ay (R(x) | S1(x,y) | S2(x,y)) & Ax Ay (S1(x,y) | S2(x,y))",
  };
  std::mt19937_64 rng(GetParam());
  for (const char* text : kQueries) {
    Query q = ParseQueryOrDie(text);
    const int nu = 1 + static_cast<int>(rng() % 3);
    const int nv = 1 + static_cast<int>(rng() % 3);
    Tid tid = RandomTid(q, nu, nv, rng());
    auto lifted = LiftedProbability(q, tid);
    ASSERT_TRUE(lifted.has_value()) << text;
    EXPECT_EQ(*lifted, BruteForceQueryProbability(q, tid))
        << text << " nu=" << nu << " nv=" << nv;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafeEvalRandomTest,
                         ::testing::Values(31, 32, 33, 34, 35, 36));

}  // namespace
}  // namespace gmc
