// Fixed-width dyadic layer: the UInt128 limb-pair word, the
// BigInt::Bits64At extraction it builds on, and the dyadic batch kernel —
// every width (uint64 / UInt128 / BigInt) pinned by DyadicBatchStats and
// cross-checked bit-identically against the Rational evaluator, including
// signed and wide weights at the BigInt width.

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "util/bigint.h"
#include "util/dyadic_fixed.h"
#include "util/rational.h"

namespace gmc {
namespace {

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

BigInt RandomMagnitude(std::mt19937_64& rng, int bits) {
  BigInt out;
  for (int produced = 0; produced < bits; produced += 32) {
    out = out.ShiftLeft(32) +
          BigInt(static_cast<int64_t>(rng() & 0xffffffffu));
  }
  return out.ShiftRight(out.BitLength() > static_cast<uint64_t>(bits)
                            ? out.BitLength() - bits
                            : 0);
}

// ------------------------------------------------------------- Bits64At

TEST(Bits64AtTest, MatchesShiftAndMask) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const BigInt value = RandomMagnitude(rng, 1 + static_cast<int>(rng() % 200));
    const uint64_t offset = rng() % 220;
    const BigInt reference = value.ShiftRight(offset);
    uint64_t expected = 0;
    for (int bit = 63; bit >= 0; --bit) {
      expected <<= 1;
      if (!(reference.ShiftRight(bit) % BigInt(2)).IsZero()) expected |= 1;
    }
    EXPECT_EQ(value.Bits64At(offset), expected)
        << value.ToString() << " @ " << offset;
  }
}

// -------------------------------------------------------------- UInt128

TEST(UInt128Test, RoundTripAndOrdering) {
  std::mt19937_64 rng(22);
  for (int trial = 0; trial < 500; ++trial) {
    const BigInt a = RandomMagnitude(rng, 1 + static_cast<int>(rng() % 128));
    const UInt128 ua = UInt128::FromBigInt(a);
    EXPECT_EQ(ua.ToBigInt(), a);
    EXPECT_EQ(ua.BitLength(), a.BitLength());
    EXPECT_EQ(ua.CountTrailingZeros(),
              a.IsZero() ? 0u : a.TrailingZeroBits());
    const BigInt b = RandomMagnitude(rng, 1 + static_cast<int>(rng() % 128));
    const UInt128 ub = UInt128::FromBigInt(b);
    EXPECT_EQ(ua < ub, a < b);
    EXPECT_EQ(ua == ub, a == b);
  }
}

TEST(UInt128Test, ArithmeticMatchesBigInt) {
  std::mt19937_64 rng(33);
  const BigInt modulus = BigInt(1).ShiftLeft(128);
  for (int trial = 0; trial < 500; ++trial) {
    const BigInt a = RandomMagnitude(rng, 1 + static_cast<int>(rng() % 127));
    const BigInt b = RandomMagnitude(rng, 1 + static_cast<int>(rng() % 127));
    const UInt128 ua = UInt128::FromBigInt(a);
    const UInt128 ub = UInt128::FromBigInt(b);
    EXPECT_EQ((ua + ub).ToBigInt(), (a + b) % modulus);
    if (b <= a) {
      EXPECT_EQ((ua - ub).ToBigInt(), a - b);
    }
    const unsigned shift = static_cast<unsigned>(rng() % 128);
    EXPECT_EQ(ua.Shl(shift).ToBigInt(), a.ShiftLeft(shift) % modulus);
    EXPECT_EQ(ua.Shr(shift).ToBigInt(), a.ShiftRight(shift));
    // Mul is exercised only where a product provably fits.
    const BigInt product = a * b;
    if (product.BitLength() <= 128) {
      EXPECT_EQ(UInt128::Mul(ua, ub).ToBigInt(), product);
    }
  }
}

// ------------------------------------------------------- batch routing

// The Type-I gadget circuit used throughout, with a weight grid of
// denominator 2^e on every tuple.
struct GadgetFixture {
  Lineage lineage;
  NnfCircuit circuit;
  GadgetFixture(int n, int m) {
    Type1Reduction reduction(H1());
    P2Cnf phi = P2Cnf::Random(n, m, /*seed=*/42);
    lineage = Ground(reduction.query(), reduction.BuildTid(phi, 2, 2));
    Compiler compiler;
    circuit = compiler.Compile(lineage);
  }
  WeightMatrix Grid(int num_k, int exponent) const {
    std::vector<std::vector<Rational>> rows;
    for (int k = 1; k <= num_k; ++k) {
      std::vector<Rational> row;
      for (size_t v = 0; v < lineage.probabilities.size(); ++v) {
        row.emplace_back(1 + ((k + v) % (int64_t{1} << exponent)),
                         int64_t{1} << exponent);
      }
      rows.push_back(std::move(row));
    }
    return WeightMatrix::FromRows(rows);
  }
};

TEST(FixedWidthBatchTest, Uint64ClassMatchesRationalBitIdentically) {
  GadgetFixture gadget(3, 2);  // 31 lineage variables
  WeightMatrix weights = gadget.Grid(24, /*exponent=*/2);  // bound ≈ 62
  DyadicBatchStats stats;
  const std::vector<Rational> fixed =
      gadget.circuit.EvaluateBatchDyadic(weights, 1, &stats);
  EXPECT_EQ(stats.fixed64_vectors, 24);
  EXPECT_EQ(stats.fixed128_vectors, 0);
  EXPECT_EQ(stats.bigint_vectors, 0);
  EXPECT_EQ(fixed, gadget.circuit.EvaluateBatch(weights, 1));
}

TEST(FixedWidthBatchTest, Uint128ClassMatchesRationalBitIdentically) {
  GadgetFixture gadget(5, 5);  // 75 lineage variables
  WeightMatrix weights = gadget.Grid(24, /*exponent=*/1);  // bound ≈ 75
  DyadicBatchStats stats;
  const std::vector<Rational> fixed =
      gadget.circuit.EvaluateBatchDyadic(weights, 1, &stats);
  EXPECT_EQ(stats.fixed64_vectors, 0);
  EXPECT_EQ(stats.fixed128_vectors, 24);
  EXPECT_EQ(stats.bigint_vectors, 0);
  EXPECT_EQ(fixed, gadget.circuit.EvaluateBatch(weights, 1));
}

TEST(FixedWidthBatchTest, WideExponentsFallBackToBigInt) {
  GadgetFixture gadget(5, 5);
  WeightMatrix weights = gadget.Grid(8, /*exponent=*/7);  // bound ≈ 525
  DyadicBatchStats stats;
  const std::vector<Rational> fixed =
      gadget.circuit.EvaluateBatchDyadic(weights, 1, &stats);
  EXPECT_EQ(stats.fixed64_vectors, 0);
  EXPECT_EQ(stats.fixed128_vectors, 0);
  EXPECT_EQ(stats.bigint_vectors, 8);
  EXPECT_EQ(fixed, gadget.circuit.EvaluateBatch(weights, 1));
}

TEST(FixedWidthBatchTest, MixedPrecisionBatchRunsWhollyAtBigIntWidth) {
  // A small chain circuit (exponent depth 3) where half the columns use
  // 1/2-grid weights (bound 3 on their own) and half use 2^43
  // denominators (bound 129): the width is chosen once per batch, so the
  // batch-wide bound sends all 16 columns to the BigInt width.
  Cnf cnf;
  cnf.num_vars = 4;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  cnf.AddClause({2, 3});
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(cnf);
  std::vector<std::vector<Rational>> rows;
  const BigInt wide_den = BigInt(1).ShiftLeft(43);
  for (int k = 0; k < 16; ++k) {
    std::vector<Rational> row;
    for (int v = 0; v < 4; ++v) {
      if (k % 2 == 0) {
        row.push_back(Rational(1 + (k + v) % 2, 2));
      } else {
        // Odd numerators: the fractions never reduce, so every wide
        // column keeps the full 43-bit exponents (bound 129 > 127).
        row.push_back(Rational(BigInt(2 * (k + v) + 1), wide_den));
      }
    }
    rows.push_back(std::move(row));
  }
  WeightMatrix weights = WeightMatrix::FromRows(rows);
  DyadicBatchStats stats;
  const std::vector<Rational> fixed =
      circuit.EvaluateBatchDyadic(weights, 1, &stats);
  EXPECT_EQ(stats.fixed64_vectors, 0);
  EXPECT_EQ(stats.fixed128_vectors, 0);
  EXPECT_EQ(stats.bigint_vectors, 16);
  EXPECT_EQ(fixed, circuit.EvaluateBatch(weights, 1));
}

TEST(FixedWidthBatchTest, NonUnitWeightsUseBigIntAndStillAgree) {
  // Weights above one (legal for plain WMC) violate the probability
  // invariant the fixed kernels rely on — the router must detect that and
  // keep the exact BigInt arena.
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  Compiler compiler;
  NnfCircuit circuit = compiler.Compile(cnf);
  std::vector<std::vector<Rational>> rows;
  for (int k = 1; k <= 6; ++k) {
    rows.emplace_back(3, Rational(3 * k, 2));  // 3k/2 > 1
  }
  WeightMatrix weights = WeightMatrix::FromRows(rows);
  DyadicBatchStats stats;
  const std::vector<Rational> dyadic =
      circuit.EvaluateBatchDyadic(weights, 1, &stats);
  EXPECT_EQ(stats.bigint_vectors, 6);
  EXPECT_EQ(stats.fixed64_vectors + stats.fixed128_vectors, 0);
  EXPECT_EQ(dyadic, circuit.EvaluateBatch(weights, 1));
}

TEST(FixedWidthBatchTest, FixedWidthMatchesTheBigIntArena) {
  GadgetFixture gadget(3, 2);
  WeightMatrix weights = gadget.Grid(16, /*exponent=*/2);
  DyadicBatchStats stats;
  const std::vector<Rational> fixed =
      gadget.circuit.EvaluateBatchDyadic(weights, 1, &stats);
  EXPECT_EQ(stats.fixed64_vectors, 16);
  EXPECT_EQ(stats.bigint_vectors, 0);
  EXPECT_EQ(fixed, walk_internal::WalkEvaluateBatchDyadicBig(
                       gadget.circuit.view(), weights, 1));
  EXPECT_EQ(fixed, gadget.circuit.EvaluateBatch(weights, 1));
}

TEST(FixedWidthBatchTest, CircuitCacheSurfacesWidthRouting) {
  GadgetFixture gadget(3, 2);
  CircuitCache cache;
  GmcOptions options = cache.options();
  options.num_threads = 1;
  cache.Configure(options);
  const std::vector<std::vector<Rational>> rows(
      5, gadget.lineage.probabilities);
  std::vector<Rational> results =
      cache.EvaluatePinned(*cache.GetShared(gadget.lineage.cnf),
                           WeightMatrix::FromRows(rows));
  for (const Rational& r : results) EXPECT_EQ(r, results[0]);
  const CircuitCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.dyadic_vectors, 5u);
  // The reduction TID's {1/2, 1} weights put a 31-variable gadget well
  // inside the uint64 class.
  EXPECT_EQ(stats.fixed64_vectors, 5u);
  EXPECT_EQ(stats.bigint_vectors, 0u);
}

TEST(FixedWidthBatchTest, RandomCircuitsAgreeAcrossAllPaths) {
  std::mt19937_64 rng(616);
  Compiler compiler;
  for (int trial = 0; trial < 20; ++trial) {
    const int num_vars = 3 + static_cast<int>(rng() % 8);
    Cnf cnf;
    cnf.num_vars = num_vars;
    const int num_clauses = 1 + static_cast<int>(rng() % 10);
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      const int len = 1 + static_cast<int>(rng() % 3);
      for (int l = 0; l < len; ++l) {
        clause.push_back(static_cast<int>(rng() % num_vars));
      }
      cnf.AddClause(std::move(clause));
    }
    NnfCircuit circuit = compiler.Compile(cnf);
    // Exponents drawn wide enough to hit all three classes across trials.
    std::vector<std::vector<Rational>> rows;
    for (int k = 0; k < 9; ++k) {
      std::vector<Rational> row;
      for (int v = 0; v < num_vars; ++v) {
        const int exponent = static_cast<int>(rng() % 30);
        const int64_t den = int64_t{1} << exponent;
        row.push_back(Rational(static_cast<int64_t>(rng() % (den + 1)), den));
      }
      rows.push_back(std::move(row));
    }
    WeightMatrix weights = WeightMatrix::FromRows(rows);
    const std::vector<Rational> rational = circuit.EvaluateBatch(weights, 1);
    EXPECT_EQ(circuit.EvaluateBatchDyadic(weights, 1), rational)
        << "trial " << trial;
    EXPECT_EQ(walk_internal::WalkEvaluateBatchDyadicBig(
                  circuit.view(), weights, 1),
              rational)
        << "trial " << trial;
  }
}

// m · 2^-e with e < 70 and |m| < 2^90: negative, zero, below and above
// one.
Rational RandomSignedDyadic(std::mt19937_64& rng) {
  if (rng() % 8 == 0) return Rational::Zero();
  BigInt mantissa = RandomMagnitude(rng, 1 + static_cast<int>(rng() % 90));
  if (rng() % 2 == 0) mantissa = -mantissa;
  return Rational::Dyadic(std::move(mantissa), rng() % 70);
}

TEST(BigIntWidthTest, SignedAndWideWeightsMatchTheRationalWalk) {
  // Weights outside [0, 1] break the probability bound the word widths
  // rest on, so every batch here runs at the BigInt width, whose mantissas
  // carry the sign.
  std::mt19937_64 rng(1919);
  Compiler compiler;
  for (int trial = 0; trial < 100; ++trial) {
    const int num_vars = 2 + static_cast<int>(rng() % 9);
    Cnf cnf;
    cnf.num_vars = num_vars;
    const int num_clauses = 1 + static_cast<int>(rng() % 10);
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<int> clause;
      const int len = 1 + static_cast<int>(rng() % 3);
      for (int l = 0; l < len; ++l) {
        clause.push_back(static_cast<int>(rng() % num_vars));
      }
      cnf.AddClause(std::move(clause));
    }
    NnfCircuit circuit = compiler.Compile(cnf);
    const int num_k = 1 + static_cast<int>(rng() % 9);
    std::vector<std::vector<Rational>> rows;
    for (int k = 0; k < num_k; ++k) {
      std::vector<Rational> row;
      for (int v = 0; v < num_vars; ++v) row.push_back(RandomSignedDyadic(rng));
      rows.push_back(std::move(row));
    }
    rows[0][0] = Rational(-3, 2);  // at least one weight outside [0, 1]
    WeightMatrix weights = WeightMatrix::FromRows(rows);
    const std::vector<Rational> rational = circuit.EvaluateBatch(weights, 1);
    for (int threads : {1, 2, 8}) {
      DyadicBatchStats stats;
      EXPECT_EQ(circuit.EvaluateBatchDyadic(weights, threads, &stats),
                rational)
          << "trial " << trial << " threads " << threads;
      EXPECT_EQ(stats.bigint_vectors, num_k);
      EXPECT_EQ(stats.fixed64_vectors + stats.fixed128_vectors, 0);
    }
  }
}

}  // namespace
}  // namespace gmc
