// The exact dyadic batch path and the BigInt hot-loop machinery under it.
//
// Two families of checks:
//   1. EvaluateBatchDyadic vs EvaluateBatch exact (bit-identical) equality
//      on random CNFs and on the Type I / Type II gadget lineages, and the
//      automatic CircuitCache routing through every production caller,
//      checked against independent exact references;
//   2. BigInt small-value-optimization boundaries (1→2→3 limb transitions,
//      heap spill and shrink-back) and in-place aliasing (a += a, a *= a),
//      since the in-place compound operators are load-bearing in the
//      dyadic kernel's BigInt width.

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "safe/safe_eval.h"
#include "util/bigint.h"
#include "util/rational.h"
#include "wmc/wmc.h"

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

// Random signed BigInt of roughly `limbs` 32-bit limbs (possibly fewer
// after leading-zero trimming), occasionally zero.
BigInt RandomBigInt(std::mt19937_64& rng, int limbs) {
  BigInt out;
  for (int i = 0; i < limbs; ++i) {
    out = out.ShiftLeft(32) + BigInt(static_cast<int64_t>(rng() & 0xffffffffu));
  }
  if (rng() % 2) out = -out;
  return out;
}

// ------------------------------------------------------------------
// Batched circuit evaluation: dyadic vs Rational, bit-identical.

// K dyadic weight rows over `num_vars` variables: mixed denominators
// 2^0..2^7, zeros and ones sprinkled in.
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
          row.push_back(Rational(static_cast<int64_t>(rng() % (den + 1)), den));
          break;
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return WeightMatrix::FromRows(rows);
}

// True iff every weight has a power-of-two denominator: the cross-checks
// below assert it, so they compare the dyadic kernel and not the Rational
// walk its fold hands other batches to.
bool AllDyadic(const WeightMatrix& weights) {
  for (int v = 0; v < weights.num_vars(); ++v) {
    for (int k = 0; k < weights.num_vectors(); ++k) {
      const BigInt& den = weights.at(k, v).denominator();
      if (!den.IsOne() && !den.IsPowerOfTwo()) return false;
    }
  }
  return true;
}

TEST(EvaluateBatchDyadicTest, MatchesRationalOnRandomCnfs) {
  std::mt19937_64 rng(909);
  Compiler compiler;
  for (int trial = 0; trial < 40; ++trial) {
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
    WeightMatrix weights = RandomDyadicWeights(9, num_vars, rng);
    ASSERT_TRUE(AllDyadic(weights));
    const std::vector<Rational> exact = circuit.EvaluateBatch(weights);
    const std::vector<Rational> dyadic = circuit.EvaluateBatchDyadic(weights);
    ASSERT_EQ(exact.size(), dyadic.size());
    for (size_t k = 0; k < exact.size(); ++k) {
      // Rational equality is structural (lowest terms), so == here means
      // bit-identical numerator and denominator.
      EXPECT_EQ(exact[k], dyadic[k]) << "trial " << trial << " k " << k;
    }
  }
}

TEST(EvaluateBatchDyadicTest, MatchesRationalOnTypeIGadgets) {
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(4, 3, /*seed=*/23);
  Compiler compiler;
  std::mt19937_64 rng(1234);
  for (int p1 = 1; p1 <= 2; ++p1) {
    for (int p2 = p1; p2 <= 2; ++p2) {
      Tid tid = reduction.BuildTid(phi, p1, p2);
      Lineage lineage = Ground(reduction.query(), tid);
      NnfCircuit circuit = compiler.Compile(lineage);
      // The gadget's own weights (all {1/2, 1} after grounding) plus random
      // dyadic perturbations of them.
      std::vector<std::vector<Rational>> rows;
      rows.push_back(lineage.probabilities);
      for (int k = 0; k < 7; ++k) {
        std::vector<Rational> row = lineage.probabilities;
        for (auto& p : row) {
          if (rng() % 3 == 0) {
            p = Rational(static_cast<int64_t>(rng() % 65), 64);
          }
        }
        rows.push_back(std::move(row));
      }
      WeightMatrix weights = WeightMatrix::FromRows(rows);
      ASSERT_TRUE(AllDyadic(weights));
      EXPECT_EQ(circuit.EvaluateBatch(weights),
                circuit.EvaluateBatchDyadic(weights))
          << "p1=" << p1 << " p2=" << p2;
    }
  }
}

TEST(EvaluateBatchDyadicTest, MatchesRationalOnTypeIiGadget) {
  Query q = ExampleC9();
  Tid tid(q.vocab_ptr(), 2, 2, Rational::Half());
  Lineage lineage = Ground(q, tid);
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(lineage);
  std::mt19937_64 rng(555);
  WeightMatrix weights = RandomDyadicWeights(
      16, static_cast<int>(lineage.probabilities.size()), rng);
  ASSERT_TRUE(AllDyadic(weights));
  EXPECT_EQ(circuit.EvaluateBatch(weights),
            circuit.EvaluateBatchDyadic(weights));
}

TEST(CircuitCacheRoutingTest, DyadicBatchesRouteAutomatically) {
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2, 3});
  std::mt19937_64 rng(31337);
  WeightMatrix dyadic_weights = RandomDyadicWeights(8, 4, rng);
  // One non-dyadic entry disqualifies the whole batch.
  WeightMatrix mixed_weights = dyadic_weights;
  mixed_weights.Set(3, 2, Rational(1, 3));
  ASSERT_TRUE(AllDyadic(dyadic_weights));
  ASSERT_FALSE(AllDyadic(mixed_weights));

  CircuitCache cache;
  const std::shared_ptr<const NnfCircuit> circuit = cache.GetShared(cnf);
  const std::vector<Rational> via_dyadic =
      cache.EvaluatePinned(*circuit, dyadic_weights);
  EXPECT_EQ(cache.stats().dyadic_batches, 1u);
  EXPECT_EQ(cache.stats().dyadic_vectors, 8u);
  const std::vector<Rational> mixed =
      cache.EvaluatePinned(*circuit, mixed_weights);
  EXPECT_EQ(cache.stats().dyadic_batches, 1u);  // mixed batch fell back
  EXPECT_EQ(cache.stats().batch_passes, 2u);

  // Both routes agree with the Rational walk.
  EXPECT_EQ(via_dyadic, circuit->EvaluateBatch(dyadic_weights, 1));
  EXPECT_EQ(mixed, circuit->EvaluateBatch(mixed_weights, 1));
}

TEST(CircuitCacheRoutingTest, NonDyadicOrphanColumnsKeepTheDyadicRoute) {
  // A session group's batch is as wide as its widest member, so a circuit
  // can see columns past its own variables. The fold reads only the
  // circuit's columns, so non-dyadic weights past them leave the batch on
  // the dyadic kernel.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2, 3});
  std::mt19937_64 rng(4242);
  const WeightMatrix dyadic = RandomDyadicWeights(8, 4, rng);
  WeightMatrix wide(8, 6);
  for (int k = 0; k < 8; ++k) {
    for (int v = 0; v < 4; ++v) wide.Set(k, v, dyadic.at(k, v));
    wide.Set(k, 4, Rational(1, 3));
    wide.Set(k, 5, Rational(2, 5));
  }
  ASSERT_FALSE(AllDyadic(wide));

  CircuitCache cache;
  const std::shared_ptr<const NnfCircuit> circuit = cache.GetShared(cnf);
  ASSERT_EQ(circuit->num_vars(), 4);
  const std::vector<Rational> results = cache.EvaluatePinned(*circuit, wide);
  EXPECT_EQ(cache.stats().dyadic_batches, 1u);
  EXPECT_EQ(cache.stats().dyadic_vectors, 8u);
  EXPECT_EQ(results, circuit->EvaluateBatch(wide, 1));
  EXPECT_EQ(results, circuit->EvaluateBatch(dyadic, 1));
}

// The dyadic routing through every production caller — the cache behind
// the session, and so behind the reductions' CompiledOracle — against
// independent exact references.
TEST(DyadicRoutingTest, Type1ReductionBitIdentical) {
  Type1Reduction reduction(H1());
  P2Cnf phi = P2Cnf::Random(4, 3, /*seed=*/7);

  CompiledOracle compiled;
  Type1ReductionResult result = reduction.Run(phi, &compiled);
  EXPECT_GT(compiled.session().stats().cache.dyadic_batches, 0u);

  // The structure-blind recursive WMC oracle never touches a circuit.
  WmcOracle wmc;
  Type1ReductionResult reference = reduction.Run(phi, &wmc);

  EXPECT_EQ(result.model_count, CountSatisfying(phi));
  EXPECT_EQ(result.model_count, reference.model_count);
  EXPECT_EQ(result.signature_counts, reference.signature_counts);
}

TEST(DyadicRoutingTest, CacheBatchMatchesRecursiveEngine) {
  Cnf cnf;
  cnf.num_vars = 5;
  cnf.AddClause({0, 1, 2});
  cnf.AddClause({2, 3});
  cnf.AddClause({3, 4});
  std::mt19937_64 rng(2718);
  WeightMatrix weights = RandomDyadicWeights(12, 5, rng);

  CircuitCache cache;
  const std::vector<Rational> batch =
      cache.EvaluatePinned(*cache.GetShared(cnf), weights);
  // The per-vector recursive engine is the reference.
  WmcEngine engine;
  for (int k = 0; k < weights.num_vectors(); ++k) {
    EXPECT_EQ(batch[k], engine.Probability(cnf, weights.Row(k)));
  }
}

TEST(DyadicRoutingTest, SafeSessionCallBitIdentical) {
  // A safe query whose GFOMC instances route through the session's cache.
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  std::vector<Tid> tids;
  for (int i = 0; i < 6; ++i) {
    Tid tid(q.vocab_ptr(), 2, 2, Rational::Half());
    const Vocabulary& v = q.vocab();
    tid.SetUnaryLeft(v.Find("R"), i % 2, i < 3 ? Rational::One()
                                               : Rational::Half());
    tids.push_back(std::move(tid));
  }

  GfomcSession session;
  const std::vector<GfomcResult> batched = session.EvaluateMany(q, tids);
  EXPECT_GT(session.stats().cache.dyadic_batches, 0u);

  // The lifted per-TID algorithm is the reference.
  for (size_t i = 0; i < tids.size(); ++i) {
    auto value = LiftedProbability(q, tids[i]);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(batched[i].probability, *value) << "tid " << i;
  }
}

// ------------------------------------------------------------------
// BigInt small-value-optimization boundaries and in-place aliasing.

TEST(BigIntSvoTest, LimbBoundaryTransitions) {
  // 1 limb → 2 limbs (still inline) → 3 limbs (heap spill), and back.
  const BigInt one_limb_max(0xffffffffll);
  BigInt x = one_limb_max;
  x += BigInt(1);
  EXPECT_EQ(x, BigInt(0x100000000ll));  // 2 limbs
  x -= BigInt(1);
  EXPECT_EQ(x, one_limb_max);  // shrank back to 1 limb
  EXPECT_EQ(x.ToInt64(), 0xffffffffll);

  const BigInt two_limb_max = BigInt(1).ShiftLeft(64) - BigInt(1);
  BigInt y = two_limb_max;
  y += BigInt(1);  // 3 limbs: spills to the heap
  EXPECT_EQ(y, BigInt(1).ShiftLeft(64));
  EXPECT_EQ(y.ToString(), "18446744073709551616");
  y -= BigInt(1);
  EXPECT_EQ(y, two_limb_max);  // value shrinks; correctness over storage
  y -= two_limb_max;
  EXPECT_TRUE(y.IsZero());

  // Multiplication across the same boundaries.
  BigInt z(0x100000000ll);  // 2^32
  z *= z;                   // 2^64, in place with self-aliasing
  EXPECT_EQ(z, BigInt(1).ShiftLeft(64));
  z *= BigInt(2);
  EXPECT_EQ(z, BigInt(1).ShiftLeft(65));
}

TEST(BigIntSvoTest, InPlaceAliasing) {
  std::mt19937_64 rng(161803);
  for (int limbs = 1; limbs <= 4; ++limbs) {
    for (int trial = 0; trial < 50; ++trial) {
      BigInt a = RandomBigInt(rng, limbs);
      BigInt doubled = a;
      doubled += doubled;  // a += a
      EXPECT_EQ(doubled, a + a);
      EXPECT_EQ(doubled, a.ShiftLeft(1));
      BigInt zero = a;
      zero -= zero;  // a -= a
      EXPECT_TRUE(zero.IsZero());
      BigInt squared = a;
      squared *= squared;  // a *= a
      EXPECT_EQ(squared, a * a);
      EXPECT_TRUE(squared.sign() >= 0);
    }
  }
}

TEST(BigIntSvoTest, InPlaceMatchesOutOfPlaceRandomized) {
  std::mt19937_64 rng(271828);
  for (int trial = 0; trial < 2000; ++trial) {
    const BigInt a = RandomBigInt(rng, 1 + static_cast<int>(rng() % 5));
    const BigInt b = RandomBigInt(rng, 1 + static_cast<int>(rng() % 5));
    BigInt c = a;
    c += b;
    EXPECT_EQ(c, a + b);
    c = a;
    c -= b;
    EXPECT_EQ(c, a - b);
    c = a;
    c *= b;
    EXPECT_EQ(c, a * b);
    // Shift round trips (the dyadic alignment primitives).
    const uint64_t bits = rng() % 100;
    BigInt s = a;
    s.ShiftLeftInPlace(bits);
    EXPECT_EQ(s, a.ShiftLeft(bits));
    s.ShiftRightInPlace(bits);
    EXPECT_EQ(s, a);
  }
}

TEST(BigIntSvoTest, GcdFastPathsAgree) {
  std::mt19937_64 rng(141421);
  // Unit operands and 64-bit pairs take dedicated fast paths; cross-check
  // the gcd contract on both plus multi-limb values.
  EXPECT_EQ(BigInt::Gcd(BigInt(1), RandomBigInt(rng, 4).Abs()), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(RandomBigInt(rng, 4).Abs(), BigInt(1)), BigInt(1));
  for (int trial = 0; trial < 500; ++trial) {
    const BigInt a = RandomBigInt(rng, 1 + static_cast<int>(rng() % 4));
    const BigInt b = RandomBigInt(rng, 1 + static_cast<int>(rng() % 4));
    if (a.IsZero() || b.IsZero()) continue;
    const BigInt g = BigInt::Gcd(a, b);
    EXPECT_GT(g.sign(), 0);
    EXPECT_TRUE((a % g).IsZero());
    EXPECT_TRUE((b % g).IsZero());
    EXPECT_TRUE(
        BigInt::Gcd(a / g, b / g).IsOne());  // cofactors are coprime
  }
}

// Rational's in-place operators are new; pin them to the binary forms
// (which the rest of the suite exercises heavily).
TEST(RationalInPlaceTest, CompoundMatchesBinaryRandomized) {
  std::mt19937_64 rng(333);
  auto random_rational = [&rng]() {
    if (rng() % 8 == 0) return Rational::Zero();
    if (rng() % 4 == 0) {  // integral operands take the gcd-free branches
      return Rational(static_cast<int64_t>(rng() % 2000) - 1000);
    }
    const int64_t den = 1 + static_cast<int64_t>(rng() % 1000);
    return Rational(static_cast<int64_t>(rng() % 2000) - 1000, den);
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const Rational a = random_rational();
    const Rational b = random_rational();
    Rational c = a;
    c += b;
    EXPECT_EQ(c, a + b);
    c = a;
    c -= b;
    EXPECT_EQ(c, a - b);
    c = a;
    c *= b;
    EXPECT_EQ(c, a * b);
    if (!b.IsZero()) {
      c = a;
      c /= b;
      EXPECT_EQ(c, a / b);
    }
    // Self-aliasing.
    c = a;
    c += c;
    EXPECT_EQ(c, a + a);
    c = a;
    c *= c;
    EXPECT_EQ(c, a * a);
    c = a;
    c -= c;
    EXPECT_TRUE(c.IsZero());
    if (!a.IsZero()) {
      c = a;
      c /= c;
      EXPECT_TRUE(c.IsOne());
    }
  }
}

}  // namespace
}  // namespace gmc
