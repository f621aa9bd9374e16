// The certified anytime tier: directed-rounding interval enclosures,
// Karp–Luby (ε, δ) sampling, compile budgets, and the three-way router.
// Everything here is deterministic — the sampler runs fixed seeds, the
// budgets use the node/call caps (never wall clock) — so every pin is a
// hard equality or containment, not a flaky tolerance. The one wall-clock
// input, a request deadline, is set 35x below the work it interrupts.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "approx/karp_luby.h"
#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "core/dichotomy.h"
#include "fault_guard.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "scoped_env.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/rational.h"
#include "wmc/brute_force.h"
#include "wmc/wmc.h"

namespace gmc {
namespace {

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Query H1Wide() {
  return ParseQueryOrDie(
      "Ax Ay (R(x) | S1(x,y) | S2(x,y)) & Ax Ay (S1(x,y) | T(y))");
}

Query ExampleC9() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// A finite double as the exact rational it denotes (doubles are dyadic).
// Only needed for values in [0, 2), where the dyadic exponent is
// non-negative; that covers every probability bound in these tests.
Rational RationalOfDouble(double value) {
  if (value == 0.0) return Rational::Zero();
  int exponent = 0;
  const double fraction = std::frexp(value, &exponent);
  const double scaled = std::ldexp(fraction, 53);  // integral, < 2^53
  EXPECT_LE(exponent, 53);
  return Rational::Dyadic(BigInt(static_cast<int64_t>(scaled)),
                          static_cast<uint64_t>(53 - exponent));
}

// The enclosure contract, checked exactly: lo <= p <= hi as rationals.
void ExpectEncloses(const ProbInterval& interval, const Rational& exact) {
  EXPECT_LE(RationalOfDouble(interval.lo), exact)
      << "lo=" << interval.lo << " exact=" << exact.ToDouble();
  EXPECT_LE(exact, RationalOfDouble(interval.hi))
      << "hi=" << interval.hi << " exact=" << exact.ToDouble();
}

// A TID over the query's vocabulary with varied non-dyadic weights.
Tid CorpusTid(const Query& query, int num_left, int num_right, int salt) {
  Tid tid(query.vocab_ptr(), num_left, num_right, Rational::Half());
  const Vocabulary& vocab = query.vocab();
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    switch (vocab.kind(s)) {
      case SymbolKind::kUnaryLeft:
        tid.SetUnaryLeft(s, 0, Rational(1 + (salt % 6), 7));
        break;
      case SymbolKind::kUnaryRight:
        tid.SetUnaryRight(s, 0, Rational(2 + (salt % 5), 9));
        break;
      case SymbolKind::kBinary:
        tid.SetBinary(s, 0, 0, Rational(1 + (salt % 10), 11));
        if (num_left > 1 && num_right > 1) {
          tid.SetBinary(s, 1, 1, Rational(3, 13));
        }
        break;
    }
  }
  return tid;
}

TEST(ProbIntervalTest, Basics) {
  ProbInterval interval{0.25, 0.75};
  EXPECT_DOUBLE_EQ(interval.width(), 0.5);
  EXPECT_DOUBLE_EQ(interval.midpoint(), 0.5);
  EXPECT_TRUE(interval.Contains(0.25));
  EXPECT_TRUE(interval.Contains(0.75));
  EXPECT_FALSE(interval.Contains(0.76));
}

TEST(IntervalEvalTest, EnclosesExactAcrossCorpusOrdersAndThreads) {
  const Query queries[] = {H1(), H1Wide(), ExampleC9()};
  int checked = 0;
  for (const Query& query : queries) {
    for (int salt = 0; salt < 3; ++salt) {
      const Lineage lineage = Ground(query, CorpusTid(query, 3, 3, salt));
      if (lineage.is_false || lineage.cnf.clauses.empty()) continue;
      const WeightMatrix weights =
          WeightMatrix::FromRows({lineage.probabilities});
      for (OrderHeuristic order :
           {OrderHeuristic::kDefault, OrderHeuristic::kMinFill,
            OrderHeuristic::kBalanced}) {
        CircuitCache cache;
        GmcOptions options = cache.options();
        options.order = order;
        cache.Configure(options);
        const std::shared_ptr<const NnfCircuit> circuit =
            cache.GetShared(lineage.cnf);
        const Rational exact = circuit->EvaluateBatch(weights, 1)[0];
        for (int threads : {1, 8}) {
          const std::vector<ProbInterval> intervals =
              circuit->EvaluateBatchInterval(weights, threads);
          ASSERT_EQ(intervals.size(), 1u);
          ExpectEncloses(intervals[0], exact);
          // Rounding error grows per node, not per magnitude: these
          // gadget circuits stay far inside a comfortable bound.
          EXPECT_LT(intervals[0].width(), 1e-9);
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 3 * 3 * 2);  // the corpus actually exercised
}

TEST(IntervalEvalTest, MultiColumnBatchEnclosesEveryColumn) {
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 0));
  std::vector<std::vector<Rational>> rows;
  for (int k = 0; k <= 8; ++k) {
    std::vector<Rational> row = lineage.probabilities;
    row[0] = Rational(k, 8);  // sweep one weight across [0, 1]
    rows.push_back(std::move(row));
  }
  const WeightMatrix weights = WeightMatrix::FromRows(rows);
  CircuitCache cache;
  const std::shared_ptr<const NnfCircuit> circuit =
      cache.GetShared(lineage.cnf);
  const std::vector<Rational> exact = circuit->EvaluateBatch(weights, 1);
  const std::vector<ProbInterval> intervals =
      circuit->EvaluateBatchInterval(weights, 4);
  ASSERT_EQ(intervals.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    ExpectEncloses(intervals[i], exact[i]);
  }
}

TEST(IntervalEvalTest, EndpointWeightsStayEnclosedAndClamped) {
  // Probabilities 0 and 1 bracket exactly; the walk still rounds each
  // product outward (one ulp per node), and the clamp pins the enclosure
  // inside [0, 1] — so a formula forced true encloses 1 with hi == 1.
  Cnf cnf;
  cnf.num_vars = 2;
  cnf.clauses = {{0}, {1}};
  NnfCircuit circuit = Compiler().Compile(cnf);
  const WeightMatrix weights =
      WeightMatrix::FromRows({{Rational::One(), Rational::One()}});
  const ProbInterval interval =
      circuit.EvaluateBatchInterval(weights, 1)[0];
  ExpectEncloses(interval, Rational::One());
  EXPECT_EQ(interval.hi, 1.0);  // the clamp: never past the unit interval
  EXPECT_LT(interval.width(), 1e-15);
}

// Every endpoint's bit pattern folded into one 64-bit word (FNV-1a over
// 64-bit words): any change to a weight bracket or a rounding step moves it.
uint64_t IntervalBitsHash(const std::vector<ProbInterval>& intervals) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const ProbInterval& interval : intervals) {
    for (const double end : {interval.lo, interval.hi}) {
      hash ^= std::bit_cast<uint64_t>(end);
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

// The certified_interval request shape: C9 over 3×3 with all 36 tuples
// uncertain, each at k/7 or k/11 drawn from a fixed SplitMix64 stream.
Tid C9UncertainTid(const Query& query, uint64_t seed) {
  Tid tid(query.vocab_ptr(), 3, 3, Rational::Half());
  approx_internal::SplitMix64 rng(seed);
  const Vocabulary& vocab = query.vocab();
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    EXPECT_EQ(vocab.kind(s), SymbolKind::kBinary);
    for (int u = 0; u < 3; ++u) {
      for (int v = 0; v < 3; ++v) {
        const uint64_t word = rng.Next();
        const int64_t denominator = (word & 1) != 0 ? 11 : 7;
        const auto k = static_cast<int64_t>(1 + (word >> 1) %
                                                    (denominator - 1));
        tid.SetBinary(s, u, v, Rational(k, denominator));
      }
    }
  }
  return tid;
}

// Golden pins: interval bits recorded from the BigInt-bracket, nextafter
// walk (commit 628985f) that the double-arithmetic brackets and bit-step
// rounding replaced. Every other interval pin checks enclosure; these are
// the ones a change to any returned bit cannot pass.
TEST(IntervalGoldenTest, BitsMatchTheRecordedHashes) {
  struct Golden {
    const char* name;
    std::vector<std::pair<Lineage, WeightMatrix>> batches;
    uint64_t hash;
  };
  const Query c9 = ExampleC9();
  const Query h1 = H1();
  Golden c9_uncertain{"C9 3x3, 36 tuples at k/7 or k/11", {},
                      0xbdfab063be8b2cc4ull};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Lineage lineage = Ground(c9, C9UncertainTid(c9, 0x1e7a0000u + seed));
    ASSERT_EQ(lineage.cnf.num_vars, 36);
    WeightMatrix weights = WeightMatrix::FromRows({lineage.probabilities});
    c9_uncertain.batches.emplace_back(std::move(lineage), std::move(weights));
  }
  Golden h1_default{"H1 3x3 at 3/7", {}, 0x12b4aab91b42634cull};
  {
    Lineage lineage = Ground(h1, Tid(h1.vocab_ptr(), 3, 3, Rational(3, 7)));
    WeightMatrix weights = WeightMatrix::FromRows({lineage.probabilities});
    h1_default.batches.emplace_back(std::move(lineage), std::move(weights));
  }
  // bench_anytime's SweepWeights over C9 3×3 at K = 64.
  Golden c9_sweep{"C9 3x3 K=64 sweep", {}, 0x244207f094662cd0ull};
  {
    Lineage lineage = Ground(c9, Tid(c9.vocab_ptr(), 3, 3, Rational(3, 7)));
    WeightMatrix weights(64, lineage.cnf.num_vars);
    for (int column = 0; column < 64; ++column) {
      for (int v = 0; v < lineage.cnf.num_vars; ++v) {
        weights.Set(column, v, Rational(1 + (column + v) % 9, 11));
      }
    }
    c9_sweep.batches.emplace_back(std::move(lineage), std::move(weights));
  }
  for (const Golden* golden : {&c9_uncertain, &h1_default, &c9_sweep}) {
    std::vector<NnfCircuit> circuits;
    for (const auto& [lineage, weights] : golden->batches) {
      Compiler compiler;
      compiler.set_order(OrderHeuristic::kDefault);
      circuits.push_back(compiler.Compile(lineage));
    }
    for (int threads : {1, 8}) {
      std::vector<ProbInterval> all;
      for (size_t i = 0; i < circuits.size(); ++i) {
        const std::vector<ProbInterval> intervals =
            circuits[i].EvaluateBatchInterval(golden->batches[i].second,
                                              threads);
        all.insert(all.end(), intervals.begin(), intervals.end());
      }
      EXPECT_EQ(IntervalBitsHash(all), golden->hash)
          << golden->name << " threads=" << threads << " hash=0x" << std::hex
          << IntervalBitsHash(all);
    }
  }
}

// A weight whose denominator passes 900 bits, where Rational::ToDouble
// rescales both parts and turns 1/2^1000 into 0: the bracket must not step
// up from that value one subnormal at a time (about 2^74 steps, which no
// deadline interrupts), so the request answers well inside a second.
TEST(SessionRouterTest, IntervalModeAnswersAThousandBitWeightPromptly) {
  const Query h1 = H1();
  Tid tid(h1.vocab_ptr(), 1, 1, Rational::Half());
  const Vocabulary& vocab = h1.vocab();
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    if (vocab.kind(s) == SymbolKind::kBinary) {
      tid.SetBinary(s, 0, 0, Rational::Dyadic(BigInt(1), 1000));
    }
  }
  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kInterval;
  options.num_threads = 1;
  options.deadline_ms = 2000;
  session.Configure(options);
  const auto start = std::chrono::steady_clock::now();
  std::vector<GmcAnswer> answers;
  ASSERT_TRUE(session.EvaluateAnswers(h1, {tid}, &answers).ok());
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, 1000.0);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].tier, AnswerTier::kCertifiedInterval);
  ExpectEncloses(answers[0].interval, Gfomc(h1, tid).probability);
}

// ---------------------------------------------------------------------------
// The interval walk's fast routes against their references

using walk_internal::BracketBig;
using walk_internal::BracketFast;
using walk_internal::FitsBracketFast;
using walk_internal::StepDown;
using walk_internal::StepUp;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

bool SameBits(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}
bool SameBits(const ProbInterval& x, const ProbInterval& y) {
  return SameBits(x.lo, y.lo) && SameBits(x.hi, y.hi);
}

// [RD(p), RU(p)] from its definition, in exact rational arithmetic:
// lo <= p < next(lo) and prev(hi) < p <= hi.
void ExpectTightBracket(const ProbInterval& bracket, const Rational& p) {
  EXPECT_LE(RationalOfDouble(bracket.lo), p);
  EXPECT_LT(p, RationalOfDouble(std::nextafter(bracket.lo, kInfinity)));
  EXPECT_LE(p, RationalOfDouble(bracket.hi));
  EXPECT_LT(RationalOfDouble(std::nextafter(bracket.hi, -kInfinity)), p);
}

// Sign of x − a/b (b >= 1) in 128-bit integers, independent of BigInt: a
// finite 0 < x <= 2 is m / 2^s with s >= 51, and m·b < 2^106.
int CompareWords(double x, uint64_t a, uint64_t b) {
  if (x <= 0.0) return x == 0.0 && a == 0 ? 0 : -1;
  if (a == 0) return 1;
  int exponent = 0;
  const auto mantissa =
      static_cast<uint64_t>(std::ldexp(std::frexp(x, &exponent), 53));
  const int shift = 53 - exponent;
  // a·2^shift >= 2^127 > m·b: x is below p without a wider product.
  if (static_cast<int>(std::bit_width(a)) + shift > 127) return -1;
  const unsigned __int128 lhs = static_cast<unsigned __int128>(mantissa) * b;
  const unsigned __int128 rhs = static_cast<unsigned __int128>(a) << shift;
  return lhs < rhs ? -1 : (rhs < lhs ? 1 : 0);
}

bool IsTightWordBracket(const ProbInterval& bracket, uint64_t a, uint64_t b) {
  return CompareWords(bracket.lo, a, b) <= 0 &&
         CompareWords(std::nextafter(bracket.lo, kInfinity), a, b) > 0 &&
         CompareWords(bracket.hi, a, b) >= 0 &&
         CompareWords(std::nextafter(bracket.hi, -kInfinity), a, b) < 0;
}

// A random BigInt of exactly `bits` bits.
BigInt RandomBigInt(approx_internal::SplitMix64* rng, int bits) {
  BigInt out(1);
  for (int have = 1; have < bits;) {
    const int take = std::min(31, bits - have);
    out.ShiftLeftInPlace(static_cast<uint64_t>(take));
    out += BigInt(static_cast<int64_t>(rng->Next() >> (64 - take)));
    have += take;
  }
  return out;
}

TEST(IntervalBracketTest, BigIntBracketIsTightAtAnySize) {
  // 1/2^1000 is a normal double; 3/2^1100 lies below the subnormal range.
  const Rational tiny = Rational::Dyadic(BigInt(1), 1000);
  const ProbInterval tiny_bracket = BracketBig(tiny);
  EXPECT_EQ(tiny_bracket.lo, std::ldexp(1.0, -1000));
  EXPECT_EQ(tiny_bracket.hi, std::ldexp(1.0, -1000));
  ExpectTightBracket(tiny_bracket, tiny);
  const Rational below = Rational::Dyadic(BigInt(3), 1100);
  const ProbInterval below_bracket = BracketBig(below);
  EXPECT_EQ(below_bracket.lo, 0.0);
  EXPECT_EQ(below_bracket.hi, std::numeric_limits<double>::denorm_min());
  ExpectTightBracket(below_bracket, below);
  // A 528-bit numerator over a 1001-bit denominator.
  const Rational skewed(BigInt(3).Pow(333),
                        BigInt(1).ShiftLeft(1000) + BigInt(1));
  ASSERT_EQ(skewed.numerator().BitLength(), 528u);
  ASSERT_EQ(skewed.denominator().BitLength(), 1001u);
  ExpectTightBracket(BracketBig(skewed), skewed);
  for (const Rational& p : {tiny, below, skewed}) {
    EXPECT_FALSE(FitsBracketFast(p));
  }
  EXPECT_TRUE(SameBits(BracketBig(Rational::Zero()), ProbInterval{0.0, 0.0}));
  EXPECT_TRUE(SameBits(BracketBig(Rational::One()), ProbInterval{1.0, 1.0}));
}

// The fast bracket of p and of 1 − p on a million fractions with
// 1 <= b < 2^53 at every bit width (a power of two one time in eight), a
// drawn from {0, 1, b − 1, b} half the time: bitwise the BigInt
// bracket's, and the tight pair by an independent 128-bit check.
TEST(IntervalBracketTest, FastBracketEqualsTheBigIntBracketFuzzed) {
  approx_internal::SplitMix64 rng(0xb7ac4e70u);
  int failures = 0;
  for (int i = 0; i < 1000000 && failures < 10; ++i) {
    const uint64_t word = rng.Next();
    const int width = 1 + static_cast<int>(word % 53);
    const uint64_t top = uint64_t{1} << (width - 1);
    const uint64_t b =
        ((word >> 8) & 7) == 0 ? top : top | (rng.Next() & (top - 1));
    const uint64_t edges[] = {0, 1, b - 1, b};
    const uint64_t a = ((word >> 16) & 1) == 0 ? edges[(word >> 17) & 3]
                                               : rng.Next() % (b + 1);
    const Rational p(BigInt(static_cast<int64_t>(a)),
                     BigInt(static_cast<int64_t>(b)));
    const ProbInterval fast = BracketFast(a, b);
    const ProbInterval fast_complement = BracketFast(b - a, b);
    if (!FitsBracketFast(p) || !SameBits(fast, BracketBig(p)) ||
        !SameBits(fast_complement, BracketBig(Rational::One() - p)) ||
        !IsTightWordBracket(fast, a, b) ||
        !IsTightWordBracket(fast_complement, b - a, b)) {
      ADD_FAILURE() << "p = " << a << "/" << b;
      ++failures;
    }
  }
}

// Parts of 54, 64 and over 900 bits take the BigInt route, which still
// returns the tight pair — down through the subnormal range.
TEST(IntervalBracketTest, WidePartsTakeTheBigIntRouteAndStayTight) {
  approx_internal::SplitMix64 rng(0x31de0000u);
  int checked = 0;
  for (const int width : {54, 64, 901, 1500}) {
    for (int i = 0; i < 200; ++i) {
      BigInt den = RandomBigInt(&rng, width);
      const auto num_width = 1 + static_cast<int>(rng.Next() % 1500);
      BigInt num = RandomBigInt(&rng, std::min(num_width, width));
      if (den < num) std::swap(num, den);
      const Rational p(num, den);
      // A common factor can shrink the reduced parts back under 54 bits.
      if (p.denominator().BitLength() < 54) continue;
      EXPECT_FALSE(FitsBracketFast(p)) << p.ToString();
      ExpectTightBracket(BracketBig(p), p);
      ExpectTightBracket(BracketBig(Rational::One() - p),
                         Rational::One() - p);
      ++checked;
    }
  }
  EXPECT_GE(checked, 700);
}

// StepDown/StepUp against std::nextafter toward ∓inf, bitwise (NaN as
// NaN): the special values, then a million random finite doubles.
TEST(IntervalBracketTest, StepsEqualNextafterFuzzed) {
  auto same = [](double got, double want) {
    return std::isnan(want) ? std::isnan(got) : SameBits(got, want);
  };
  int failures = 0;
  auto check = [&](double x) {
    if (!same(StepDown(x), std::nextafter(x, -kInfinity)) ||
        !same(StepUp(x), std::nextafter(x, kInfinity))) {
      ADD_FAILURE() << "x bits = 0x" << std::hex << std::bit_cast<uint64_t>(x);
      ++failures;
    }
  };
  using Limits = std::numeric_limits<double>;
  for (const double x :
       {0.0, Limits::denorm_min(), Limits::min(),
        std::nextafter(Limits::min(), 0.0), std::nextafter(Limits::min(), 1.0),
        1.0, 2.0, Limits::max(), kInfinity, Limits::quiet_NaN()}) {
    check(x);
    check(-x);
  }
  approx_internal::SplitMix64 rng(0x57e90000u);
  for (int i = 0; i < 1000000 && failures < 10;) {
    const double x = std::bit_cast<double>(rng.Next());
    if (!std::isfinite(x)) continue;
    check(x);
    ++i;
  }
}

TEST(KarpLubyTest, TrivialInstancesAreExact) {
  KarpLubyParams params;
  Cnf empty;  // no clauses: always true
  empty.num_vars = 1;
  KarpLubyResult r = KarpLubyEstimate(empty, {Rational::Half()}, params);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.estimate, 1.0);
  EXPECT_EQ(r.epsilon, 0.0);

  Cnf falsy;
  falsy.num_vars = 1;
  falsy.clauses = {{}};
  r = KarpLubyEstimate(falsy, {Rational::Half()}, params);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.estimate, 0.0);

  // A single clause: Pr = 1 − Π(1 − p_v), no sampling needed.
  Cnf single;
  single.num_vars = 2;
  single.clauses = {{0, 1}};
  r = KarpLubyEstimate(single, {Rational::Half(), Rational(1, 4)}, params);
  EXPECT_TRUE(r.exact);
  EXPECT_DOUBLE_EQ(r.estimate, 1.0 - 0.5 * 0.75);

  // Zero failure weight: some variable in every clause has p = 1.
  Cnf certain;
  certain.num_vars = 1;
  certain.clauses = {{0}, {0}};
  r = KarpLubyEstimate(certain, {Rational::One()}, params);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.estimate, 1.0);
}

TEST(KarpLubyTest, SampleTargetMatchesTheFormula) {
  const double eps = 0.1;
  const double delta = 0.05;
  const uint64_t m = 10;
  const uint64_t expected = static_cast<uint64_t>(
      std::ceil(3.0 * m * std::log(2.0 / delta) / (eps * eps)));
  EXPECT_EQ(KarpLubySampleTarget(m, eps, delta), expected);
  EXPECT_EQ(KarpLubySampleTarget(0, eps, delta), 0u);
  // Past 2^64 the target saturates instead of overflowing the cast:
  // 3·63·ln(40)/ε² is ~7·10^20 at ε = 1e-9.
  EXPECT_EQ(KarpLubySampleTarget(63, 1e-9, delta), UINT64_MAX);
}

TEST(KarpLubyTest, CalibratesAgainstExactWmc) {
  // The grounded H1 gadget at two weight profiles: the fixed-seed estimate
  // must land within the certified epsilon of the exact probability.
  for (int salt : {0, 1}) {
    const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, salt));
    ASSERT_FALSE(lineage.is_false);
    const Rational exact = WmcEngine().Probability(lineage);
    KarpLubyParams params;
    params.epsilon = 0.05;
    params.delta = 0.01;
    params.max_samples = 0;  // run the full (ε, δ) target
    params.seed = 0x1234abcd + salt;
    const KarpLubyResult r = KarpLubyEstimate(lineage, params);
    EXPECT_FALSE(r.exact);
    EXPECT_EQ(r.samples, KarpLubySampleTarget(lineage.cnf.clauses.size(),
                                              params.epsilon, params.delta));
    EXPECT_EQ(r.epsilon, params.epsilon);
    EXPECT_LE(std::abs(r.estimate - exact.ToDouble()), params.epsilon)
        << "estimate=" << r.estimate << " exact=" << exact.ToDouble();
  }
}

TEST(KarpLubyTest, FixedSeedReproducesExactly) {
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 2));
  KarpLubyParams params;
  params.max_samples = 4096;
  params.seed = 99;
  const KarpLubyResult a = KarpLubyEstimate(lineage, params);
  const KarpLubyResult b = KarpLubyEstimate(lineage, params);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(KarpLubyTest, SampleCapReportsTheAchievedEpsilon) {
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 0));
  const size_t m = lineage.cnf.clauses.size();
  // Targets far beyond the cap; at 1e-12 past 2^64 samples (saturated).
  for (double epsilon : {0.01, 1e-12}) {
    KarpLubyParams params;
    params.epsilon = epsilon;
    params.max_samples = 500;
    const KarpLubyResult r = KarpLubyEstimate(lineage, params);
    ASSERT_GT(KarpLubySampleTarget(m, params.epsilon, params.delta), 500u);
    EXPECT_EQ(r.samples, 500u) << "epsilon=" << epsilon;
    // The anytime contract: the certificate is the epsilon 500 samples buy.
    const double achieved =
        std::sqrt(3.0 * static_cast<double>(m) *
                  std::log(2.0 / params.delta) / 500.0);
    EXPECT_DOUBLE_EQ(r.epsilon, achieved);
    EXPECT_GT(r.epsilon, params.epsilon);
  }
}

TEST(CompileBudgetTest, TryCompileRefusesAndRecovers) {
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 0));
  Compiler compiler;
  CompileBudget tiny;
  tiny.max_calls = 2;
  EXPECT_FALSE(compiler.TryCompile(lineage.cnf, tiny).has_value());
  EXPECT_EQ(compiler.stats().budget_exhausted, 1u);
  // The budget state must not leak: an unbudgeted Compile afterwards
  // produces the real circuit, and a generous budget succeeds.
  NnfCircuit full = compiler.Compile(lineage.cnf);
  EXPECT_GT(full.num_nodes(), 1u);
  Compiler fresh;
  std::optional<NnfCircuit> budgeted =
      fresh.TryCompile(lineage.cnf, DefaultCompileBudget());
  ASSERT_TRUE(budgeted.has_value());
  const WeightMatrix weights =
      WeightMatrix::FromRows({lineage.probabilities});
  EXPECT_EQ(full.EvaluateBatch(weights, 1)[0],
            budgeted->EvaluateBatch(weights, 1)[0]);
}

TEST(CompileBudgetTest, CacheTryGetMemoizesFailuresUntilABiggerBudget) {
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 1));
  CircuitCache cache;
  CompileBudget tiny;
  tiny.max_calls = 2;
  EXPECT_EQ(cache.TryGetShared(lineage.cnf, tiny), nullptr);
  EXPECT_EQ(cache.stats().budget_exhausted, 1u);
  EXPECT_EQ(cache.stats().compiles, 0u);
  // Same (or smaller) budget: refused from the failure memo, no recompile.
  EXPECT_EQ(cache.TryGetShared(lineage.cnf, tiny), nullptr);
  EXPECT_EQ(cache.stats().budget_exhausted, 2u);
  EXPECT_EQ(cache.stats().compiles, 0u);
  // Strictly more budget: the retry rule compiles for real.
  const std::shared_ptr<const NnfCircuit> circuit =
      cache.TryGetShared(lineage.cnf, DefaultCompileBudget());
  ASSERT_NE(circuit, nullptr);
  EXPECT_EQ(cache.stats().compiles, 1u);
  // Once cached, even the tiny budget is served from the cache.
  EXPECT_EQ(cache.TryGetShared(lineage.cnf, tiny), circuit);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(GmcOptionsTest, ConfigureRoundTripsThroughTheStack) {
  GmcOptions options;
  options.num_threads = 3;
  options.order = OrderHeuristic::kMinFill;
  options.routing_mode = RoutingMode::kInterval;
  options.compile_budget.max_calls = 123;
  options.epsilon = 0.25;
  options.delta = 0.125;
  options.max_samples = 777;
  options.sample_seed = 42;

  CircuitCache cache;
  cache.Configure(options);
  EXPECT_EQ(cache.options().num_threads, 3);
  EXPECT_EQ(cache.options().order, OrderHeuristic::kMinFill);

  GfomcSession session;
  session.Configure(options);
  const GmcOptions got = session.options();
  EXPECT_EQ(got.routing_mode, RoutingMode::kInterval);
  EXPECT_EQ(got.compile_budget.max_calls, 123u);
  EXPECT_EQ(got.epsilon, 0.25);
  EXPECT_EQ(got.delta, 0.125);
  EXPECT_EQ(got.max_samples, 777u);
  EXPECT_EQ(got.sample_seed, 42u);
  EXPECT_EQ(got.num_threads, 3);
}

TEST(GmcOptionsTest, FromEnvReadsTheRoutingKnobs) {
  // Every variable of the docs/ANYTIME.md option table.
  const char* const kVariables[] = {
      "GMC_THREADS",        "GMC_ORDER",         "GMC_STORE",
      "GMC_ROUTING",        "GMC_BUDGET_NODES",  "GMC_BUDGET_CALLS",
      "GMC_BUDGET_MS",      "GMC_EPSILON",       "GMC_DELTA",
      "GMC_MAX_SAMPLES",    "GMC_SEED",          "GMC_DEADLINE_MS",
      "GMC_CACHE_BYTES",    "GMC_STORE_SELF_HEAL"};
  ScopedEnv env;
  for (const char* name : kVariables) env.Set(name, nullptr);
  // All unset: the struct defaults.
  const GmcOptions defaults = GmcOptions::FromEnv();
  EXPECT_EQ(defaults.order, OrderHeuristic::kDefault);
  EXPECT_EQ(defaults.store_directory, "");
  EXPECT_EQ(defaults.routing_mode, RoutingMode::kAuto);
  EXPECT_EQ(defaults.compile_budget, DefaultCompileBudget());
  EXPECT_EQ(defaults.deadline_ms, 0u);
  EXPECT_EQ(defaults.max_resident_bytes, 0u);
  EXPECT_TRUE(defaults.store_self_heal);

  env.Set("GMC_THREADS", "3");
  env.Set("GMC_ORDER", "minfill");
  env.Set("GMC_STORE", "/nonexistent/gmc_store");
  env.Set("GMC_ROUTING", "sample");
  env.Set("GMC_BUDGET_NODES", "11");
  env.Set("GMC_BUDGET_CALLS", "77");
  env.Set("GMC_BUDGET_MS", "5");
  env.Set("GMC_EPSILON", "0.125");
  env.Set("GMC_DELTA", "0.25");
  env.Set("GMC_MAX_SAMPLES", "1000");
  env.Set("GMC_SEED", "99");
  env.Set("GMC_DEADLINE_MS", "250");
  env.Set("GMC_CACHE_BYTES", "4096");
  env.Set("GMC_STORE_SELF_HEAL", "off");
  const GmcOptions options = GmcOptions::FromEnv();
  // GMC_THREADS is resolved by util/parallel at use time, not here.
  EXPECT_EQ(options.num_threads, 0);
  EXPECT_EQ(options.order, OrderHeuristic::kMinFill);
  EXPECT_EQ(options.store_directory, "/nonexistent/gmc_store");
  EXPECT_EQ(options.routing_mode, RoutingMode::kSample);
  EXPECT_EQ(options.compile_budget.max_nodes, 11u);
  EXPECT_EQ(options.compile_budget.max_calls, 77u);
  EXPECT_EQ(options.compile_budget.max_millis, 5u);
  EXPECT_EQ(options.epsilon, 0.125);
  EXPECT_EQ(options.delta, 0.25);
  EXPECT_EQ(options.max_samples, 1000u);
  EXPECT_EQ(options.sample_seed, 99u);
  EXPECT_EQ(options.deadline_ms, 250u);
  EXPECT_EQ(options.max_resident_bytes, 4096u);
  EXPECT_FALSE(options.store_self_heal);

  // Read afresh on every call: an unknown order name keeps the default.
  env.Set("GMC_ORDER", "bogus");
  EXPECT_EQ(GmcOptions::FromEnv().order, OrderHeuristic::kDefault);
  env.Set("GMC_ORDER", "balanced");
  EXPECT_EQ(GmcOptions::FromEnv().order, OrderHeuristic::kBalanced);
}

TEST(RoutingPolicyTest, TierSelectionPins) {
  GmcOptions options;

  options.routing_mode = RoutingMode::kAuto;
  RoutingPolicy auto_policy(options);
  EXPECT_TRUE(auto_policy.WantsCompileProbe());
  EXPECT_EQ(auto_policy.TierForCompiled(), AnswerTier::kCompiledExact);
  EXPECT_FALSE(auto_policy.ExhaustedIsError());

  options.routing_mode = RoutingMode::kInterval;
  RoutingPolicy interval_policy(options);
  EXPECT_TRUE(interval_policy.WantsCompileProbe());
  EXPECT_EQ(interval_policy.TierForCompiled(),
            AnswerTier::kCertifiedInterval);
  EXPECT_FALSE(interval_policy.ExhaustedIsError());

  options.routing_mode = RoutingMode::kSample;
  RoutingPolicy sample_policy(options);
  EXPECT_FALSE(sample_policy.WantsCompileProbe());
  EXPECT_FALSE(sample_policy.ExhaustedIsError());

  options.routing_mode = RoutingMode::kExact;  // finite default budget
  RoutingPolicy exact_policy(options);
  EXPECT_TRUE(exact_policy.ExhaustedIsError());
  options.compile_budget = CompileBudget{};  // unlimited
  RoutingPolicy legacy_policy(options);
  EXPECT_FALSE(legacy_policy.ExhaustedIsError());
}

TEST(SessionRouterTest, SafeQueriesStayExactInEveryMode) {
  const Query safe = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  Tid tid = CorpusTid(safe, 2, 2, 0);
  const Rational exact = Gfomc(safe, tid).probability;
  for (RoutingMode mode : {RoutingMode::kExact, RoutingMode::kAuto,
                           RoutingMode::kInterval, RoutingMode::kSample}) {
    GfomcSession session;
    GmcOptions options = session.options();
    options.routing_mode = mode;
    session.Configure(options);
    GmcAnswer answer;
    ASSERT_TRUE(session.EvaluateAnswer(safe, tid, &answer).ok());
    EXPECT_TRUE(answer.IsExact());
    EXPECT_EQ(answer.tier, AnswerTier::kLifted);
    EXPECT_EQ(answer.exact, exact);
  }
}

TEST(SessionRouterTest, AutoCompilesInsideTheBudgetBitIdentically) {
  const Query h1 = H1();
  std::vector<Tid> tids;
  for (int salt = 0; salt < 4; ++salt) {
    tids.push_back(CorpusTid(h1, 2, 2, salt));
  }
  GfomcSession session;  // default mode is kAuto with the default budget
  ASSERT_EQ(session.options().routing_mode, RoutingMode::kAuto);
  std::vector<GmcAnswer> answers;
  ASSERT_TRUE(session.EvaluateAnswers(h1, tids, &answers).ok());
  ASSERT_EQ(answers.size(), tids.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i].tier, AnswerTier::kCompiledExact);
    // Exact, against an independent reference (8 variables: enumerable).
    EXPECT_EQ(answers[i].exact, BruteForceQueryProbability(h1, tids[i]));
  }
  EXPECT_EQ(session.stats().unsafe_compiled, tids.size());
  EXPECT_EQ(session.stats().anytime_sampled, 0u);
}

TEST(SessionRouterTest, IntervalModeCertifiablyEnclosesTheExactAnswer) {
  const Query h1 = H1();
  const Tid tid = CorpusTid(h1, 3, 3, 0);
  const Rational exact = Gfomc(h1, tid).probability;

  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kInterval;
  session.Configure(options);
  GmcAnswer answer;
  ASSERT_TRUE(session.EvaluateAnswer(h1, tid, &answer).ok());
  EXPECT_EQ(answer.tier, AnswerTier::kCertifiedInterval);
  EXPECT_FALSE(answer.IsExact());
  ExpectEncloses(answer.interval, exact);
  EXPECT_LT(answer.interval.width(), 1e-9);
  EXPECT_EQ(session.stats().anytime_interval, 1u);
}

TEST(SessionRouterTest, SampleModeSkipsTheProbeAndCertifies) {
  const Query h1 = H1();
  const Tid tid = CorpusTid(h1, 3, 3, 1);
  const Rational exact = Gfomc(h1, tid).probability;

  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kSample;
  options.sample_seed = 7;
  session.Configure(options);
  GmcAnswer answer;
  ASSERT_TRUE(session.EvaluateAnswer(h1, tid, &answer).ok());
  EXPECT_EQ(answer.tier, AnswerTier::kSampled);
  EXPECT_GT(answer.samples, 0u);
  EXPECT_EQ(answer.delta, options.delta);
  EXPECT_LE(std::abs(answer.estimate - exact.ToDouble()), answer.epsilon);
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.anytime_sampled, 1u);
  EXPECT_EQ(stats.cache.compiles, 0u);  // no probe, no compile
  EXPECT_EQ(stats.budget_exhausted, 0u);
}

// The sampler reports 1 − μ̂, and μ̂ = W·successes/N can exceed 1 when the
// union bound W does. On this H1 instance (the serve golden script's g13
// request: default 1/2, S(0,0)=0, S(1,1)=1, R(2)=1/3, ε = 1/4, δ = 1/3)
// the unclamped estimate was about −0.11; the reported one must lie in
// [0, 1].
TEST(SessionRouterTest, SampledEstimateStaysInTheUnitInterval) {
  const Query h1 = H1();
  const Vocabulary& vocab = h1.vocab();
  Tid tid(h1.vocab_ptr(), 3, 3, Rational::Half());
  tid.SetBinary(vocab.Find("S"), 0, 0, Rational::Zero());
  tid.SetBinary(vocab.Find("S"), 1, 1, Rational::One());
  tid.SetUnaryLeft(vocab.Find("R"), 2, Rational(1, 3));
  const double exact = Gfomc(h1, tid).probability.ToDouble();

  GmcOptions request;
  request.routing_mode = RoutingMode::kSample;
  request.epsilon = 0.25;
  request.delta = Rational(1, 3).ToDouble();
  GfomcSession session;
  std::vector<GmcAnswer> answers;
  const std::vector<GmcStatus> statuses =
      session.EvaluateAnswers(h1, {tid}, request, &answers);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].message;
  ASSERT_EQ(answers[0].tier, AnswerTier::kSampled);
  EXPECT_GE(answers[0].estimate, 0.0);
  EXPECT_LE(answers[0].estimate, 1.0);
  EXPECT_LE(std::abs(answers[0].estimate - exact), answers[0].epsilon);
}

TEST(SessionRouterTest, UncappedTinyEpsilonIsRefusedBeforeSampling) {
  // With max_samples = 0 the (ε, δ) target alone sizes the run; at
  // ε = 1e-9 it saturates, and sampling it would allocate ~2^54 chunk
  // tallies. The session refuses such an instance with a typed status
  // instead, and a sane ε on the same session still runs its full target.
  const Query h1 = H1();
  const Tid tid(h1.vocab_ptr(), 3, 3, Rational::Half());
  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kSample;
  options.max_samples = 0;
  options.delta = 0.5;
  session.Configure(options);

  GmcOptions tiny = session.options();
  tiny.epsilon = 1e-9;
  std::vector<GmcAnswer> answers;
  std::vector<GmcStatus> statuses =
      session.EvaluateAnswers(h1, {tid}, tiny, &answers);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].code, GmcStatusCode::kInvalidOptions);
  EXPECT_EQ(session.stats().anytime_sampled, 0u);
  EXPECT_EQ(session.stats().invalid_requests, 1u);

  GmcOptions sane = session.options();
  sane.epsilon = 0.1;
  statuses = session.EvaluateAnswers(h1, {tid}, sane, &answers);
  ASSERT_TRUE(statuses[0].ok()) << statuses[0].message;
  EXPECT_EQ(answers[0].tier, AnswerTier::kSampled);
  const size_t num_clauses = Ground(h1, tid).cnf.clauses.size();
  EXPECT_EQ(answers[0].samples,
            KarpLubySampleTarget(num_clauses, sane.epsilon, sane.delta));
  EXPECT_EQ(session.stats().anytime_sampled, 1u);
}

TEST(SessionRouterTest, OverBudgetInstanceDegradesToTheSampler) {
  // The headline contract: an unsafe instance whose compile probe exceeds
  // the budget still gets a certified answer, never an unbounded compile.
  const Query h1 = H1();
  const Tid tid = CorpusTid(h1, 3, 3, 0);
  const Rational exact = Gfomc(h1, tid).probability;

  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kAuto;
  options.compile_budget = CompileBudget{};
  options.compile_budget.max_calls = 2;  // guaranteed exhaustion
  session.Configure(options);
  GmcAnswer answer;
  ASSERT_TRUE(session.EvaluateAnswer(h1, tid, &answer).ok());
  EXPECT_EQ(answer.tier, AnswerTier::kSampled);
  EXPECT_LE(std::abs(answer.estimate - exact.ToDouble()), answer.epsilon);
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.budget_exhausted, 1u);
  EXPECT_EQ(stats.anytime_sampled, 1u);
  EXPECT_EQ(stats.unsafe_compiled, 0u);
}

TEST(SessionRouterTest, ExactModeRefusesOverBudgetWithATypedStatus) {
  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kExact;
  options.compile_budget = CompileBudget{};
  options.compile_budget.max_calls = 2;
  session.Configure(options);
  GmcAnswer answer;
  const GmcStatus status =
      session.EvaluateAnswer(H1(), CorpusTid(H1(), 3, 3, 0), &answer);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, GmcStatusCode::kBudgetExhausted);
  EXPECT_NE(status.message.find("budget"), std::string::npos);
}

TEST(SessionRouterTest, ExactModeUnlimitedReproducesLegacyRouting) {
  const Query h1 = H1();
  const Tid tid = CorpusTid(h1, 2, 2, 0);
  const Rational expected = BruteForceQueryProbability(h1, tid);

  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kExact;
  options.compile_budget = CompileBudget{};  // unlimited, like the legacy path
  session.Configure(options);
  GmcAnswer answer;
  ASSERT_TRUE(session.EvaluateAnswer(h1, tid, &answer).ok());
  EXPECT_EQ(answer.tier, AnswerTier::kCompiledExact);
  EXPECT_EQ(answer.exact, expected);
  EXPECT_EQ(answer.PointEstimate(), expected.ToDouble());
}

TEST(SessionRouterTest, ExactModeUnlimitedCompilesPastTheVarGate) {
  // Oversized lineage (125 variables, past the 96-variable gate that keeps
  // large safe GFOMC lineages on the lifted plan): kExact + unlimited
  // budget compiles it like any other — tier kCompiledExact, value
  // bit-identical to the reference engine — and a repeat is answered from
  // the resident circuit.
  const Query h1 = H1();
  Tid tid(h1.vocab_ptr(), 5, 20, Rational::Half());
  const Rational expected = WmcEngine().Probability(Ground(h1, tid));
  GfomcSession legacy;
  EXPECT_EQ(legacy.Evaluate(h1, tid).probability, expected);
  EXPECT_EQ(legacy.stats().unsafe_compiled, 1u);

  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kExact;
  options.compile_budget = CompileBudget{};  // unlimited
  session.Configure(options);
  GmcAnswer answer;
  ASSERT_TRUE(session.EvaluateAnswer(h1, tid, &answer).ok());
  EXPECT_EQ(answer.tier, AnswerTier::kCompiledExact);
  EXPECT_EQ(answer.exact, expected);
  EXPECT_EQ(session.stats().cache.compiles, 1u);
  EXPECT_EQ(session.stats().cache.hits, 0u);

  GmcAnswer repeat;
  ASSERT_TRUE(session.EvaluateAnswer(h1, tid, &repeat).ok());
  EXPECT_EQ(repeat.tier, AnswerTier::kCompiledExact);
  EXPECT_EQ(repeat.exact, expected);
  EXPECT_EQ(session.stats().cache.compiles, 1u);
  EXPECT_EQ(session.stats().cache.hits, 1u);
}

TEST(SessionRouterTest, DeadlineBoundsAnOversizedExactRequest) {
  // The compiler polls the request's deadline, so an oversized kExact
  // request with an unlimited budget is interruptible: H1 10x12 at 1/2
  // (142 variables) takes ~350 ms to compile on a Release build, 35x the
  // deadline below.
  const Query h1 = H1();
  const Tid tid(h1.vocab_ptr(), 10, 12, Rational::Half());
  GfomcSession session;
  GmcOptions request = session.options();
  request.routing_mode = RoutingMode::kExact;
  request.compile_budget = CompileBudget{};  // unlimited
  request.deadline_ms = 10;
  std::vector<GmcAnswer> answers;
  const std::vector<GmcStatus> timed =
      session.EvaluateAnswers(h1, {tid}, request, &answers);
  ASSERT_EQ(timed.size(), 1u);
  EXPECT_EQ(timed[0].code, GmcStatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.stats().deadline_exceeded, 1u);
  // Nothing memoized: no circuit, no budget failure.
  EXPECT_EQ(session.stats().cache.compiles, 0u);
  EXPECT_EQ(session.stats().budget_exhausted, 0u);

  // The undeadlined retry compiles and answers exactly.
  request.deadline_ms = 0;
  const std::vector<GmcStatus> retry =
      session.EvaluateAnswers(h1, {tid}, request, &answers);
  ASSERT_TRUE(retry[0].ok()) << retry[0].message;
  EXPECT_EQ(answers[0].tier, AnswerTier::kCompiledExact);
  EXPECT_EQ(answers[0].exact, WmcEngine().Probability(Ground(h1, tid)));
  EXPECT_EQ(session.stats().cache.compiles, 1u);
  EXPECT_EQ(session.stats().deadline_exceeded, 1u);
}

TEST(SessionRouterTest, PerCallOptionsAnswerEachInstanceOnItsOwn) {
  // The core's per-call surface: the request's routing fields apply to this
  // call only, and every instance gets its own status — an over-budget
  // instance fails alone while its neighbours are answered.
  const Query h1 = H1();
  const Tid small = CorpusTid(h1, 2, 2, 0);
  const Tid large = CorpusTid(h1, 3, 3, 0);
  GfomcSession session;
  const GmcOptions configured = session.options();
  session.Evaluate(h1, small);  // cached: lookups ignore the budget

  GmcOptions request;
  request.routing_mode = RoutingMode::kExact;
  request.compile_budget = CompileBudget{};
  request.compile_budget.max_calls = 2;  // refuses the cold 3x3 structure
  std::vector<GmcAnswer> answers;
  const std::vector<GmcStatus> statuses =
      session.EvaluateAnswers(h1, {small, large, small}, request, &answers);
  ASSERT_EQ(statuses.size(), 3u);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(statuses[1].code, GmcStatusCode::kBudgetExhausted);
  for (size_t i : {0u, 2u}) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].message;
    EXPECT_EQ(answers[i].tier, AnswerTier::kCompiledExact);
    EXPECT_EQ(answers[i].exact, BruteForceQueryProbability(h1, small));
  }
  // Nothing was written into the session's configuration.
  EXPECT_EQ(session.options().routing_mode, configured.routing_mode);
  EXPECT_EQ(session.options().compile_budget, configured.compile_budget);

  // Invalid per-call options reject every instance, typed.
  request.epsilon = 0;
  const std::vector<GmcStatus> invalid =
      session.EvaluateAnswers(h1, {small, large}, request, &answers);
  ASSERT_EQ(invalid.size(), 2u);
  for (const GmcStatus& status : invalid) {
    EXPECT_EQ(status.code, GmcStatusCode::kInvalidOptions);
  }
}

TEST(SessionRouterTest, InvalidOptionsComeBackTyped) {
  GfomcSession session;
  GmcOptions options = session.options();
  options.epsilon = 1.5;  // outside (0, 1)
  session.Configure(options);
  GmcAnswer answer;
  const GmcStatus status =
      session.EvaluateAnswer(H1(), CorpusTid(H1(), 2, 2, 0), &answer);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code, GmcStatusCode::kInvalidOptions);
  EXPECT_EQ(session.stats().invalid_requests, 1u);
  EXPECT_EQ(session.stats().queries, 0u);  // rejected before evaluation
}

TEST(SessionRouterTest, ValidateTidAcceptsWellFormedInputs) {
  const GmcStatus status = ValidateTid(CorpusTid(H1(), 2, 2, 0));
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code, GmcStatusCode::kOk);
}

TEST(SessionRouterTest, AnswerTierNamesAreTheWireVocabulary) {
  EXPECT_STREQ(AnswerTierName(AnswerTier::kLifted), "lifted");
  EXPECT_STREQ(AnswerTierName(AnswerTier::kCompiledExact), "compiled");
  EXPECT_STREQ(AnswerTierName(AnswerTier::kCertifiedInterval), "interval");
  EXPECT_STREQ(AnswerTierName(AnswerTier::kSampled), "sampled");
}

TEST(SessionRouterTest, GfomcCheckedOneShotMatchesTheSession) {
  const Query h1 = H1();
  const Tid tid = CorpusTid(h1, 2, 2, 1);
  GmcOptions options;
  GmcAnswer answer;
  ASSERT_TRUE(GfomcChecked(h1, tid, options, &answer).ok());
  EXPECT_EQ(answer.tier, AnswerTier::kCompiledExact);
  EXPECT_EQ(answer.exact, BruteForceQueryProbability(h1, tid));
}

TEST(AnytimeDefaultsTest, ParamsAndOptionsShareOneSourceOfTruth) {
  // Satellite contract: KarpLubyParams and GmcOptions must not drift —
  // both default from approx/anytime_defaults.h (precedence documented in
  // approx/karp_luby.h: FromEnv per process, session per request, explicit
  // KarpLubyParams per call).
  const KarpLubyParams params;
  const GmcOptions options;
  EXPECT_EQ(params.epsilon, options.epsilon);
  EXPECT_EQ(params.delta, options.delta);
  EXPECT_EQ(params.max_samples, options.max_samples);
  EXPECT_EQ(params.seed, options.sample_seed);
  EXPECT_EQ(params.epsilon, kDefaultSampleEpsilon);
  EXPECT_EQ(params.delta, kDefaultSampleDelta);
  EXPECT_EQ(params.max_samples, kDefaultMaxSamples);
  EXPECT_EQ(params.seed, kDefaultSampleSeed);
  EXPECT_EQ(params.num_threads, 0);   // both follow the process default
  EXPECT_EQ(options.num_threads, 0);
}

// The tentpole's headline pin: the reproducibility matrix. Fixed-seed
// estimates must be bit-identical at EVERY thread count, across the gadget
// corpus, with and without a binding sample cap — substreams are indexed
// by sample chunk, never by worker, so the schedule cannot leak into the
// arithmetic.
TEST(KarpLubyParallelTest, FixedSeedIsBitIdenticalAtEveryThreadCount) {
  const Query queries[] = {H1(), ExampleC9()};
  int checked = 0;
  for (const Query& query : queries) {
    for (int salt : {0, 2}) {
      const Lineage lineage = Ground(query, CorpusTid(query, 3, 3, salt));
      if (lineage.is_false || lineage.cnf.clauses.empty()) continue;
      for (uint64_t cap : {uint64_t{0}, uint64_t{500}}) {
        KarpLubyParams params;
        params.epsilon = 0.2;  // keeps the uncapped target test-sized
        params.delta = 0.05;
        params.max_samples = cap;
        params.seed = 0x5eed0000u + static_cast<uint64_t>(salt);
        params.num_threads = 1;
        const KarpLubyResult serial = KarpLubyEstimate(lineage, params);
        EXPECT_FALSE(serial.exact);
        for (int threads : {2, 4, 8}) {
          params.num_threads = threads;
          const KarpLubyResult r = KarpLubyEstimate(lineage, params);
          EXPECT_EQ(r.estimate, serial.estimate)
              << "threads=" << threads << " cap=" << cap;
          EXPECT_EQ(r.successes, serial.successes);
          EXPECT_EQ(r.samples, serial.samples);
          EXPECT_EQ(r.epsilon, serial.epsilon);
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 12);  // at least one query × both caps × all counts
}

TEST(KarpLubyParallelTest, PreFiredDeadlineIsThreadCountInvariant) {
  // A token fired before sampling begins is observed at the SAME point at
  // every thread count: chunk 0 always runs (its claim skips the poll) and
  // its first in-chunk poll sits at local index 64, while every other
  // chunk's pre-claim poll refuses — so exactly 64 samples are drawn and
  // the achieved-ε certificate is identical no matter the worker count.
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 0));
  ASSERT_FALSE(lineage.is_false);
  CancelToken token;
  token.Cancel();
  KarpLubyParams params;
  params.max_samples = 0;
  params.seed = 77;
  params.cancel = &token;
  params.num_threads = 1;
  const KarpLubyResult serial = KarpLubyEstimate(lineage, params);
  const uint64_t target = KarpLubySampleTarget(
      lineage.cnf.clauses.size(), params.epsilon, params.delta);
  EXPECT_EQ(serial.samples, 64u);
  EXPECT_LT(serial.samples, target);
  EXPECT_GT(serial.epsilon, params.epsilon);  // the anytime degradation
  const double achieved = std::sqrt(
      3.0 * static_cast<double>(lineage.cnf.clauses.size()) *
      std::log(2.0 / params.delta) / 64.0);
  EXPECT_DOUBLE_EQ(serial.epsilon, achieved);
  for (int threads : {2, 4, 8}) {
    params.num_threads = threads;
    const KarpLubyResult r = KarpLubyEstimate(lineage, params);
    EXPECT_EQ(r.samples, serial.samples) << "threads=" << threads;
    EXPECT_EQ(r.estimate, serial.estimate);
    EXPECT_EQ(r.successes, serial.successes);
    EXPECT_EQ(r.epsilon, serial.epsilon);
  }
}

// A TID on an n×n domain whose tuple weights cycle through `weights` in
// (symbol, u, v) order — every tuple gets its own weight, unlike
// CorpusTid's mostly-uniform profile.
Tid CyclingTid(const Query& query, int n,
               const std::vector<Rational>& weights) {
  Tid tid(query.vocab_ptr(), n, n, Rational::Half());
  const Vocabulary& vocab = query.vocab();
  size_t next = 0;
  auto weight = [&] { return weights[next++ % weights.size()]; };
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    for (int u = 0; u < n; ++u) {
      switch (vocab.kind(s)) {
        case SymbolKind::kUnaryLeft:
          tid.SetUnaryLeft(s, u, weight());
          break;
        case SymbolKind::kUnaryRight:
          tid.SetUnaryRight(s, u, weight());
          break;
        case SymbolKind::kBinary:
          for (int v = 0; v < n; ++v) tid.SetBinary(s, u, v, weight());
          break;
      }
    }
  }
  return tid;
}

// The end-to-end sampled workload's weights, k/7 and k/11, in the order
// CyclingTid hands them out.
std::vector<Rational> SeventhsElevenths() {
  return {Rational(1, 7), Rational(2, 11), Rational(3, 7), Rational(5, 11),
          Rational(6, 7), Rational(9, 11), Rational(2, 7), Rational(4, 11),
          Rational(5, 7), Rational(10, 11)};
}

// The sampler's golden instances: H1 and C9 on 3×3 at k/7 and k/11, H1
// at k/16, and a hand-built CNF with p = 0 and p = 1, each with a fixed
// seed.
struct SamplerInstance {
  const char* name;
  Cnf cnf;
  std::vector<Rational> probabilities;
  uint64_t seed;
};

std::vector<SamplerInstance> GoldenSamplerInstances() {
  const std::vector<Rational> sixteenths = {
      Rational(1, 16), Rational(3, 16), Rational(5, 16),  Rational(1, 2),
      Rational(9, 16), Rational(3, 4),  Rational(13, 16), Rational(15, 16)};
  // p = 0 and p = 1 never reach a grounded lineage (the grounder folds
  // them away), so that instance is a hand-built CNF: variables 0 and 5
  // are impossible, 1 and 7 certain; disjunct 2 has zero weight, and so do
  // the trailing disjuncts 6 and 7.
  Cnf mixed;
  mixed.num_vars = 8;
  mixed.clauses = {{0, 2}, {2, 3}, {1, 4}, {3, 5, 6},
                   {4, 6}, {2, 5}, {0, 7}, {1, 6}};
  const std::vector<Rational> mixed_p = {
      Rational::Zero(), Rational::One(),  Rational(1, 3), Rational::Half(),
      Rational(2, 5),   Rational::Zero(), Rational(3, 4), Rational::One()};
  auto grounded = [](const Query& query, const std::vector<Rational>& w) {
    const Lineage lineage = Ground(query, CyclingTid(query, 3, w));
    EXPECT_FALSE(lineage.is_false);
    return lineage;
  };
  const Lineage h1 = grounded(H1(), SeventhsElevenths());
  const Lineage c9 = grounded(ExampleC9(), SeventhsElevenths());
  const Lineage dyadic = grounded(H1(), sixteenths);
  return {
      {"H1 k/7 k/11", h1.cnf, h1.probabilities, 0x601d0001u},
      {"C9 k/7 k/11", c9.cnf, c9.probabilities, 0x601d0002u},
      {"H1 k/16", dyadic.cnf, dyadic.probabilities, 0x601d0003u},
      {"mixed 0/1", mixed, mixed_p, 0x601d0004u},
  };
}

// The golden instances' sampler parameters: a cap of 3000 binds, so the
// run ends in a partial chunk (952 samples) whose last batch is partial
// (56 lanes).
KarpLubyParams GoldenParams(uint64_t seed, int threads) {
  KarpLubyParams params;
  params.epsilon = 0.1;
  params.delta = 0.05;
  params.max_samples = 3000;
  params.seed = seed;
  params.num_threads = threads;
  return params;
}

// Golden pins: the sampler's exact output for fixed (lineage, weights,
// seed, cap), recorded from the 64-lane batch sampler. Every other
// sampler pin compares two runs of the same code (serial vs parallel,
// plan vs one-shot, batch vs its scalar scoring); these are the ones a
// change to how a draw reads the stream cannot pass. Each estimate also
// lies within its certified ε of the exact probability.
TEST(KarpLubyGoldenTest, EstimatesMatchTheRecordedBits) {
  struct Pin {
    uint64_t successes;
    uint64_t estimate_bits;
  };
  const Pin pins[] = {
      {583, 0x3fa44791df1e35faull},
      {196, 0x3fa08abeb4e3c612ull},
      {656, 0x0000000000000000ull},  // μ̂ ≥ 1: clamped to 0
      {1130, 0x3fd131612a8d8a20ull},
  };
  const std::vector<SamplerInstance> instances = GoldenSamplerInstances();
  ASSERT_EQ(instances.size(), std::size(pins));
  for (size_t n = 0; n < instances.size(); ++n) {
    const SamplerInstance& instance = instances[n];
    const double exact =
        WmcEngine().Probability(instance.cnf, instance.probabilities)
            .ToDouble();
    for (int threads : {1, 3}) {
      const KarpLubyResult r =
          KarpLubyEstimate(instance.cnf, instance.probabilities,
                           GoldenParams(instance.seed, threads));
      ASSERT_FALSE(r.exact) << instance.name;
      EXPECT_EQ(r.samples, 3000u) << instance.name;
      EXPECT_EQ(r.successes, pins[n].successes) << instance.name;
      EXPECT_EQ(std::bit_cast<uint64_t>(r.estimate), pins[n].estimate_bits)
          << instance.name << " estimate=" << r.estimate << std::hex
          << " bits=0x" << std::bit_cast<uint64_t>(r.estimate);
      EXPECT_LE(std::abs(r.estimate - exact), r.epsilon)
          << instance.name << " estimate=" << r.estimate
          << " exact=" << exact;
    }
  }
}

// The scalar definition of a success, scored per lane from a drawn
// batch: lane ℓ succeeds iff no clause before its disjunct is all false
// in lane ℓ, reading each variable's lane bit (false where forced). Every
// variable it reads must have been drawn for the lane.
int ScalarSuccesses(const KarpLubyPlan& plan, int num_lanes,
                    const approx_internal::LaneBatch& batch) {
  const std::vector<std::vector<int>>& clauses = plan.cnf.clauses;
  int successes = 0;
  for (int lane = 0; lane < num_lanes; ++lane) {
    const uint64_t bit = uint64_t{1} << lane;
    size_t disjunct = clauses.size();
    for (size_t j = 0; j < clauses.size(); ++j) {
      if ((batch.chosen[j] & bit) == 0) continue;
      EXPECT_EQ(disjunct, clauses.size()) << "lane " << lane << " chose twice";
      disjunct = j;
    }
    EXPECT_LT(disjunct, clauses.size()) << "lane " << lane << " chose none";
    auto is_true = [&](int v) {
      if ((batch.forced[v] & bit) != 0) return false;
      EXPECT_TRUE(batch.drawn[v]) << "lane " << lane << " read var " << v;
      return (batch.value[v] & bit) != 0;
    };
    bool minimal = true;
    for (size_t j = 0; j < disjunct && minimal; ++j) {
      minimal = std::any_of(clauses[j].begin(), clauses[j].end(), is_true);
    }
    if (minimal) ++successes;
  }
  return successes;
}

// The golden runs replayed batch by batch: chunk c's substream is seeded
// seed ^ c and drawn 64 lanes at a time. Each batch must take its
// disjuncts in lane order and score as the scalar loop does, and the
// batches must add up to the estimator's success count.
TEST(KarpLubyLaneBatchTest, BatchesScoreAsTheScalarLoop) {
  const uint64_t chunk_size = approx_internal::kSamplesPerChunk;
  for (const SamplerInstance& instance : GoldenSamplerInstances()) {
    const auto plan = BuildKarpLubyPlan(instance.cnf, instance.probabilities);
    const KarpLubyParams params = GoldenParams(instance.seed, 1);
    approx_internal::LaneBatch batch(*plan);
    uint64_t successes = 0;
    int partial_batches = 0;
    for (uint64_t begin = 0, c = 0; begin < params.max_samples;
         begin += chunk_size, ++c) {
      const uint64_t end = std::min(params.max_samples, begin + chunk_size);
      approx_internal::SplitMix64 rng(params.seed ^ c);
      for (uint64_t n = begin; n < end; n += 64) {
        const int lanes = static_cast<int>(std::min<uint64_t>(64, end - n));
        if (lanes < 64) ++partial_batches;
        approx_internal::SplitMix64 replay = rng;
        const int got =
            approx_internal::SampleLanes(*plan, lanes, &rng, &batch);
        for (int lane = 0; lane < lanes; ++lane) {
          const size_t i = approx_internal::DrawDisjunct(*plan, &replay);
          EXPECT_NE(batch.chosen[i] & (uint64_t{1} << lane), 0u)
              << instance.name << " lane " << lane;
        }
        EXPECT_EQ(got, ScalarSuccesses(*plan, lanes, batch))
            << instance.name << " batch at " << n;
        successes += static_cast<uint64_t>(got);
      }
    }
    EXPECT_EQ(partial_batches, 1) << instance.name;
    EXPECT_EQ(successes, KarpLubyEstimate(*plan, params).successes)
        << instance.name;
  }
}

// The disjunct draw against its reference. Each check runs the fast draw
// and a fresh-draw LazyUniform on identically seeded streams: the
// decisions must agree, and so must the next word each stream returns,
// which shows both read the same words — `words_read` of them.
namespace tie {

using approx_internal::DrawDisjunct;
using approx_internal::LazyUniform;
using approx_internal::SplitMix64;

BigInt BigOfU64(uint64_t value) {
  BigInt big(static_cast<int64_t>(value >> 32));
  big.ShiftLeftInPlace(32);
  return big + BigInt(static_cast<int64_t>(value & 0xffffffffull));
}

// The word a stream seeded `seed` returns after `consumed` words.
uint64_t WordAfter(uint64_t seed, int consumed) {
  SplitMix64 rng(seed);
  for (int i = 0; i < consumed; ++i) rng.Next();
  return rng.Next();
}

// One variable per probability, one single-variable clause per variable.
std::shared_ptr<const KarpLubyPlan> UnitClausePlan(
    const std::vector<Rational>& probabilities) {
  Cnf cnf;
  cnf.num_vars = static_cast<int>(probabilities.size());
  for (int v = 0; v < cnf.num_vars; ++v) cnf.clauses.push_back({v});
  return BuildKarpLubyPlan(cnf, probabilities);
}

size_t ExpectDisjunctMatches(const KarpLubyPlan& plan, uint64_t seed,
                             int words_read) {
  SplitMix64 fast(seed);
  SplitMix64 reference(seed);
  const size_t got = DrawDisjunct(plan, &fast);
  EXPECT_EQ(got, LazyUniform(&reference)
                     .Categorical(plan.prefix, plan.total_weight()))
      << "seed=" << seed;
  const uint64_t next = fast.Next();
  EXPECT_EQ(next, reference.Next()) << "seed=" << seed;
  EXPECT_EQ(next, WordAfter(seed, words_read)) << "seed=" << seed;
  return got;
}

// Clause weights (3w+1)/2^67 and (3·2^64 − 3w − 1)/2^67 sum to W = 3/8 and
// put the boundary between them at q = (w + 1/3)/2^64: one third of a unit
// above the word w. As marginals, p = 1 − weight.
Rational LowerWeight(uint64_t w) {
  return Rational::Dyadic(BigOfU64(w) * BigInt(3) + BigInt(1), 67);
}
Rational UpperWeight(uint64_t w) {
  return Rational(3, 8) - LowerWeight(w);
}

constexpr uint64_t kTieSeeds[] = {1, 2, 3, 0x601d, 0xfeedface, 1u << 31};

// x from x ^ (x >> shift).
uint64_t UnXorShift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int i = 0; i <= 64 / shift; ++i) x = y ^ (x >> shift);
  return x;
}

// The inverse of an odd number modulo 2^64 (Newton's iteration).
uint64_t InverseOdd(uint64_t a) {
  uint64_t x = a;
  for (int i = 0; i < 6; ++i) x *= 2 - a * x;
  return x;
}

// A seed whose stream returns `word` first: SplitMix64's mix undone step
// by step, then its first increment taken back.
uint64_t SeedYielding(uint64_t word) {
  uint64_t z = UnXorShift(word, 31) * InverseOdd(0x94d049bb133111ebull);
  z = UnXorShift(z, 27) * InverseOdd(0xbf58476d1ce4e5b9ull);
  return UnXorShift(z, 30) - 0x9e3779b97f4a7c15ull;
}

}  // namespace tie

TEST(KarpLubyDrawTest, DisjunctTieRefinesExactly) {
  for (uint64_t seed : tie::kTieSeeds) {
    const uint64_t w = tie::WordAfter(seed, 0);
    const auto plan =
        tie::UnitClausePlan({Rational::One() - tie::LowerWeight(w),
                             Rational::One() - tie::UpperWeight(w)});
    ASSERT_EQ(plan->total_weight(), Rational(3, 8));
    ASSERT_EQ(plan->boundary_words, std::vector<uint64_t>{w});
    tie::ExpectDisjunctMatches(*plan, seed, 2);
  }
}

TEST(KarpLubyDrawTest, ZeroWeightDisjunctsAreNeverDrawn) {
  for (uint64_t seed : tie::kTieSeeds) {
    const uint64_t w = tie::WordAfter(seed, 0);
    const Rational lower = Rational::One() - tie::LowerWeight(w);
    const Rational upper = Rational::One() - tie::UpperWeight(w);
    // A zero-weight middle disjunct: two equal boundary words, tied.
    const auto middle = tie::UnitClausePlan({lower, Rational::One(), upper});
    ASSERT_EQ(middle->boundary_words, (std::vector<uint64_t>{w, w}));
    EXPECT_NE(tie::ExpectDisjunctMatches(*middle, seed, 2), 1u);
    // Trailing zero-weight disjuncts: no words past the last positive one.
    const auto trailing = tie::UnitClausePlan(
        {lower, upper, Rational::One(), Rational::One()});
    ASSERT_EQ(trailing->boundary_words, std::vector<uint64_t>{w});
    EXPECT_LT(tie::ExpectDisjunctMatches(*trailing, seed, 2), 2u);
  }
}

TEST(KarpLubyDrawTest, UntiedDrawsReadOneWordAndMatchTheReference) {
  // Zero-weight leading, middle and trailing disjuncts among general
  // weights.
  const auto plan = tie::UnitClausePlan(
      {Rational::One(), Rational(1, 7), Rational(5, 11), Rational::One(),
       Rational(1, 2), Rational(999, 1000), Rational::One()});
  ASSERT_EQ(plan->boundary_words.size(), 5u);  // k = 6 of m = 7
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    const size_t i = tie::ExpectDisjunctMatches(*plan, seed, 1);
    EXPECT_NE(i, 0u);
    EXPECT_NE(i, 3u);
    EXPECT_NE(i, 6u);
  }
}

TEST(KarpLubyDrawTest, GuidedDisjunctMatchesLowerBound) {
  // The golden C9 plan (62 words), a plan with repeated words (zero-weight
  // middle disjuncts), and a skewed plan: after a disjunct of weight 1/3,
  // twelve of weight 2^-20 put twelve words inside one guide slice.
  const Lineage c9 =
      Ground(ExampleC9(), CyclingTid(ExampleC9(), 3, SeventhsElevenths()));
  std::vector<Rational> skewed = {Rational(2, 3)};
  skewed.insert(skewed.end(), 12,
                Rational::One() - Rational::Dyadic(BigInt(1), 20));
  skewed.push_back(Rational(1, 3));
  const std::shared_ptr<const KarpLubyPlan> plans[] = {
      BuildKarpLubyPlan(c9.cnf, c9.probabilities),
      tie::UnitClausePlan({Rational(1, 7), Rational::One(), Rational(5, 11),
                           Rational::One(), Rational::One(), Rational(1, 2)}),
      tie::UnitClausePlan(skewed),
  };
  ASSERT_EQ(plans[0]->boundary_words.size(), 62u);
  uint32_t widest = 0;
  for (const auto& plan : plans) {
    const std::vector<uint64_t>& words = plan->boundary_words;
    const size_t slices = plan->guide.size() - 1;
    ASSERT_GE(slices, 2 * words.size());
    ASSERT_EQ(uint64_t{1} << (64 - plan->guide_shift), slices);
    std::vector<uint64_t> probes;
    for (uint64_t w : words) probes.insert(probes.end(), {w - 1, w, w + 1});
    for (size_t k = 0; k < slices; ++k) {
      const uint64_t edge = static_cast<uint64_t>(k) << plan->guide_shift;
      probes.insert(probes.end(), {edge - 1, edge});
      widest = std::max(widest, plan->guide[k + 1] - plan->guide[k]);
    }
    for (uint64_t c : probes) {
      const uint64_t seed = tie::SeedYielding(c);
      ASSERT_EQ(approx_internal::SplitMix64(seed).Next(), c);
      if (std::binary_search(words.begin(), words.end(), c)) {
        // A tie continues exactly, as far as the reference reads.
        approx_internal::SplitMix64 fast(seed);
        approx_internal::SplitMix64 reference(seed);
        EXPECT_EQ(approx_internal::DrawDisjunct(*plan, &fast),
                  approx_internal::LazyUniform(&reference)
                      .Categorical(plan->prefix, plan->total_weight()))
            << "c=" << c;
        EXPECT_EQ(fast.Next(), reference.Next()) << "c=" << c;
      } else {
        EXPECT_EQ(tie::ExpectDisjunctMatches(*plan, seed, 1),
                  static_cast<size_t>(
                      std::lower_bound(words.begin(), words.end(), c) -
                      words.begin()))
            << "c=" << c;
      }
    }
  }
  EXPECT_GT(widest, 8u);  // the skewed plan searches a many-word slice
}

// The lane draw against the exact comparison. Word k that a lane draw
// reads is bit k of every lane's uniform u, so a replay of the same
// stream gives each lane's bit string. The replay decides each lane as
// soon as its bits settle u < p or u ≥ p, comparing with p = a/b in exact
// integer arithmetic (no floor word), and stops once every lane is
// decided: the draw must agree lane for lane and read as many words.
namespace lanes {

using UInt128 = unsigned __int128;

struct Replay {
  uint64_t below = 0;  // the lanes with u < p
  int words_read = 0;
};

Replay ReplayLanes(uint64_t seed, uint64_t lanes, uint64_t a, uint64_t b) {
  approx_internal::SplitMix64 rng(seed);
  UInt128 prefix[64] = {};  // lane ℓ's bits so far: u ∈ [c/2^k, (c+1)/2^k)
  Replay replay;
  for (uint64_t open = lanes; open != 0;) {
    EXPECT_LT(replay.words_read, 64) << "a lane tied p's floor word";
    if (replay.words_read == 64) break;
    const uint64_t word = rng.Next();
    const int k = ++replay.words_read;
    for (uint64_t rest = open; rest != 0; rest &= rest - 1) {
      const int lane = std::countr_zero(rest);
      const uint64_t bit = uint64_t{1} << lane;
      UInt128& c = prefix[lane];
      c = 2 * c + ((word >> lane) & 1);
      if ((c + 1) * b <= (UInt128{a} << k)) {  // all of u's interval < p
        replay.below |= bit;
        open &= ~bit;
      } else if (c * b >= (UInt128{a} << k)) {  // all of it ≥ p
        open &= ~bit;
      }
    }
  }
  return replay;
}

}  // namespace lanes

TEST(KarpLubyLaneDrawTest, LanesDecideAsTheirBitStringsCompare) {
  std::vector<std::pair<uint64_t, uint64_t>> fractions = {
      {1, 7}, {5, 11}, {1, 2}, {999, 1000}};
  for (uint64_t k = 1; k < 16; ++k) fractions.push_back({k, 16});
  std::vector<Rational> probabilities;
  for (const auto& [a, b] : fractions) {
    probabilities.push_back(Rational(static_cast<int64_t>(a),
                                     static_cast<int64_t>(b)));
  }
  const auto plan = tie::UnitClausePlan(probabilities);
  EXPECT_EQ(plan->variable_words[2].bits, 1);   // ½ = 0.1
  EXPECT_EQ(plan->variable_words[4].bits, 4);   // 1/16 = 0.0001
  EXPECT_EQ(plan->variable_words[0].bits, 64);  // 1/7 never ends
  int max_words = 0;
  for (uint64_t seed = 0; seed < 2000; ++seed) {
    // Every lane, and a random half of them.
    for (const uint64_t lanes : {~uint64_t{0}, tie::WordAfter(~seed, 0)}) {
      for (size_t v = 0; v < fractions.size(); ++v) {
        const lanes::Replay replay = lanes::ReplayLanes(
            seed, lanes, fractions[v].first, fractions[v].second);
        approx_internal::SplitMix64 rng(seed);
        EXPECT_EQ(approx_internal::DrawBernoulliLanes(
                      *plan, static_cast<int>(v), lanes, &rng),
                  replay.below)
            << "p=" << fractions[v].first << "/" << fractions[v].second
            << " seed=" << seed;
        EXPECT_EQ(rng.Next(), tie::WordAfter(seed, replay.words_read))
            << "p=" << fractions[v].first << "/" << fractions[v].second
            << " seed=" << seed;
        max_words = std::max(max_words, replay.words_read);
      }
    }
  }
  EXPECT_GT(max_words, 8);  // some draws ran well past the typical stop
}

TEST(KarpLubyLaneDrawTest, TiedLaneContinuesExactlyOrStopsAtTheWord) {
  // Lane 0's bits are bit 0 of the stream's first 64 words; F is those 64
  // bits as a word, so lane 0 ties a threshold word F through all of them.
  int odd = 0;
  int even = 0;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    approx_internal::SplitMix64 stream(seed);
    uint64_t strings[64] = {};  // each lane's first 64 bits
    for (int k = 0; k < 64; ++k) {
      const uint64_t word = stream.Next();
      for (int lane = 0; lane < 64; ++lane) {
        strings[lane] = strings[lane] << 1 | ((word >> lane) & 1);
      }
    }
    const uint64_t f = strings[0];
    ASSERT_NE(f, 0u);
    uint64_t below_f = 0;  // the other lanes, decided by their 64 bits
    for (int lane = 1; lane < 64; ++lane) {
      ASSERT_NE(strings[lane], f);
      if (strings[lane] < f) below_f |= uint64_t{1} << lane;
    }
    // p = (2F + 1)/2^65 lies inside lane 0's interval: it goes on through
    // LazyUniform from F, reading the 65th word.
    const Rational inside =
        Rational::Dyadic(tie::BigOfU64(f) * BigInt(2) + BigInt(1), 65);
    // p = F/2^64 is lane 0's lower end, so u ≥ p with no further word; the
    // expansion ends at F's lowest one bit, where the draw stops.
    const Rational at = Rational::Dyadic(tie::BigOfU64(f), 64);
    const auto plan = tie::UnitClausePlan({inside, at});
    ASSERT_EQ(plan->variable_words[0].floor, f);
    ASSERT_EQ(plan->variable_words[0].bits, 64);
    ASSERT_EQ(plan->variable_words[1].floor, f);
    const int ends = 64 - std::countr_zero(f);
    ASSERT_EQ(plan->variable_words[1].bits, ends);
    (f & 1 ? odd : even)++;

    approx_internal::SplitMix64 fast(seed);
    approx_internal::SplitMix64 reference(seed);
    for (int k = 0; k < 64; ++k) reference.Next();
    const bool lane0 =
        approx_internal::LazyUniform(&reference, f).LessThan(inside);
    EXPECT_EQ(approx_internal::DrawBernoulliLanes(*plan, 0, ~uint64_t{0},
                                                  &fast),
              below_f | (lane0 ? 1 : 0))
        << "seed=" << seed;
    EXPECT_EQ(fast.Next(), tie::WordAfter(seed, 65)) << "seed=" << seed;

    // Lanes that tie F's first `ends` bits are u ≥ p, like lane 0.
    const uint64_t prefix = f >> (64 - ends);
    uint64_t below_at = 0;
    for (int lane = 1; lane < 64; ++lane) {
      if ((strings[lane] >> (64 - ends)) < prefix) {
        below_at |= uint64_t{1} << lane;
      }
    }
    fast = approx_internal::SplitMix64(seed);
    EXPECT_EQ(approx_internal::DrawBernoulliLanes(*plan, 1, ~uint64_t{0},
                                                  &fast),
              below_at)
        << "seed=" << seed;
    EXPECT_EQ(fast.Next(), tie::WordAfter(seed, ends)) << "seed=" << seed;
  }
  EXPECT_GT(odd, 0);   // F/2^64 with all 64 bits: LazyUniform reads nothing
  EXPECT_GT(even, 0);  // an expansion that ends inside the word
}

TEST(KarpLubyLaneDrawTest, CertainAndImpossibleVariablesReadNoWord) {
  const auto plan = tie::UnitClausePlan({Rational::Zero(), Rational::One()});
  for (uint64_t seed : tie::kTieSeeds) {
    const uint64_t lanes = tie::WordAfter(~seed, 0);
    approx_internal::SplitMix64 rng(seed);
    EXPECT_EQ(approx_internal::DrawBernoulliLanes(*plan, 0, lanes, &rng), 0u);
    EXPECT_EQ(approx_internal::DrawBernoulliLanes(*plan, 1, lanes, &rng),
              lanes);
    EXPECT_EQ(rng.Next(), tie::WordAfter(seed, 0));
  }
}

// One builder pair on one instance: the integer build, where it applies,
// equals the Rational one field for field, and BuildKarpLubyPlan equals
// the Rational build either way. Returns whether the integer path applied.
bool ExpectBuildsAgree(const Cnf& cnf,
                       const std::vector<Rational>& probabilities,
                       const std::string& label) {
  KarpLubyPlan integer;
  KarpLubyPlan rational;
  integer.cnf = rational.cnf = cnf;
  integer.probabilities = rational.probabilities = probabilities;
  approx_internal::BuildWordsRational(&rational);
  const bool applied = approx_internal::BuildWordsInteger(&integer);
  if (applied) {
    EXPECT_EQ(integer.prefix, rational.prefix) << label;
    EXPECT_EQ(integer.variable_words, rational.variable_words) << label;
    EXPECT_EQ(integer.boundary_words, rational.boundary_words) << label;
  } else {
    EXPECT_TRUE(integer.prefix.empty() && integer.variable_words.empty() &&
                integer.boundary_words.empty())
        << label << ": a refused integer build wrote to the plan";
  }
  const std::shared_ptr<const KarpLubyPlan> plan =
      BuildKarpLubyPlan(cnf, probabilities);
  EXPECT_EQ(plan->prefix, rational.prefix) << label;
  EXPECT_EQ(plan->variable_words, rational.variable_words) << label;
  EXPECT_EQ(plan->boundary_words, rational.boundary_words) << label;
  return applied;
}

TEST(KarpLubyPlanTest, IntegerAndRationalBuildsAgree) {
  // The e2e shapes: C9 and H1 on 3×3 with per-tuple k/7 and k/11 weights.
  for (const Query& query : {ExampleC9(), H1()}) {
    const Lineage lineage =
        Ground(query, CyclingTid(query, 3, SeventhsElevenths()));
    EXPECT_TRUE(
        ExpectBuildsAgree(lineage.cnf, lineage.probabilities, "e2e shape"));
  }

  // Fixed shapes: m = 0; m = 1; W = 0 (every clause holds a certain
  // variable); zero-weight trailing disjuncts.
  Cnf empty;
  empty.num_vars = 2;
  EXPECT_TRUE(ExpectBuildsAgree(empty, {Rational(1, 3), Rational(1, 2)},
                                "m = 0"));
  Cnf one;
  one.num_vars = 2;
  one.clauses = {{0, 1}};
  EXPECT_TRUE(ExpectBuildsAgree(one, {Rational(1, 3), Rational(2, 7)},
                                "m = 1"));
  Cnf certain;
  certain.num_vars = 3;
  certain.clauses = {{0, 1}, {1, 2}, {1}};
  EXPECT_TRUE(ExpectBuildsAgree(
      certain, {Rational(1, 3), Rational::One(), Rational(5, 11)}, "W = 0"));
  Cnf trailing;
  trailing.num_vars = 4;
  trailing.clauses = {{0, 1}, {2}, {1, 3}, {3}};
  EXPECT_TRUE(ExpectBuildsAgree(trailing,
                                {Rational(1, 3), Rational::Half(),
                                 Rational(4, 7), Rational::One()},
                                "trailing zero weights"));

  // Random CNFs per weight family. The small families take the integer
  // path; with a two-literal clause over 18-digit parts, the clause
  // denominator passes 2^63 and the build falls back.
  enum Family { kDyadic, kSeventhsElevenths, kHalves, kEighteenDigits };
  approx_internal::SplitMix64 rng(0x1b7e6e40u);
  auto draw = [&](uint64_t bound) { return rng.Next() % bound; };
  for (Family family :
       {kDyadic, kSeventhsElevenths, kHalves, kEighteenDigits}) {
    for (int trial = 0; trial < 60; ++trial) {
      Cnf cnf;
      cnf.num_vars = 2 + static_cast<int>(draw(9));
      const size_t m = draw(9);
      for (size_t i = 0; i < m; ++i) {
        std::vector<int> clause = {static_cast<int>(draw(cnf.num_vars))};
        const int second = static_cast<int>(draw(cnf.num_vars));
        if (family == kEighteenDigits && i == 0) {
          clause.push_back((clause[0] + 1 + second % (cnf.num_vars - 1)) %
                           cnf.num_vars);
        } else if (draw(3) != 0 && second != clause[0]) {
          clause.push_back(second);
        }
        std::sort(clause.begin(), clause.end());
        cnf.clauses.push_back(clause);
      }
      std::vector<Rational> probabilities;
      for (int v = 0; v < cnf.num_vars; ++v) {
        switch (family) {
          case kDyadic: {
            const uint64_t j = draw(17);
            probabilities.push_back(Rational::Dyadic(
                BigInt(static_cast<int64_t>(draw((uint64_t{1} << j) + 1))),
                j));
            break;
          }
          case kSeventhsElevenths: {
            const int64_t den = draw(2) == 0 ? 7 : 11;
            probabilities.push_back(
                Rational(static_cast<int64_t>(draw(den + 1)), den));
            break;
          }
          case kHalves:
            probabilities.push_back(Rational(static_cast<int64_t>(draw(3)), 2));
            break;
          case kEighteenDigits: {
            const uint64_t den = 100000000000000000ull +
                                 draw(900000000000000000ull);
            probabilities.push_back(Rational(
                static_cast<int64_t>(1 + draw(den - 1)),
                static_cast<int64_t>(den)));
            break;
          }
        }
      }
      const std::string label =
          "family " + std::to_string(family) + " trial " +
          std::to_string(trial);
      const bool applied = ExpectBuildsAgree(cnf, probabilities, label);
      if (family == kEighteenDigits) {
        if (m > 0) {
          EXPECT_FALSE(applied) << label;
        }
      } else {
        EXPECT_TRUE(applied) << label;
      }
    }
  }
}

// The plan form is the primary path; the (cnf, probabilities) overload
// builds a throwaway plan and runs it, so the two must agree bit for bit.
TEST(KarpLubyPlanTest, PlanAndOneShotFormsAgree) {
  const Lineage lineage = Ground(H1(), CorpusTid(H1(), 3, 3, 1));
  ASSERT_FALSE(lineage.is_false);
  const std::shared_ptr<const KarpLubyPlan> plan =
      BuildKarpLubyPlan(lineage.cnf, lineage.probabilities);
  KarpLubyParams params;
  params.max_samples = 2048;
  params.seed = 5;
  const KarpLubyResult via_plan = KarpLubyEstimate(*plan, params);
  const KarpLubyResult one_shot =
      KarpLubyEstimate(lineage.cnf, lineage.probabilities, params);
  EXPECT_EQ(via_plan.estimate, one_shot.estimate);
  EXPECT_EQ(via_plan.successes, one_shot.successes);
  EXPECT_EQ(via_plan.samples, one_shot.samples);
}

TEST(SessionRouterTest, IdenticalRequestsGetIdenticalEstimates) {
  const Query h1 = H1();
  const Tid tid = CorpusTid(h1, 3, 3, 1);
  const std::vector<Tid> tids = {tid, tid, tid};

  GfomcSession session;
  GmcOptions options = session.options();
  options.routing_mode = RoutingMode::kSample;
  options.max_samples = 2048;
  session.Configure(options);
  std::vector<GmcAnswer> answers;
  ASSERT_TRUE(session.EvaluateAnswers(h1, tids, &answers).ok());
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0].tier, AnswerTier::kSampled);
  // Same structure + same weights + same per-instance seed: identical
  // answers, and one sampler batch for the call.
  EXPECT_EQ(answers[1].estimate, answers[0].estimate);
  EXPECT_EQ(answers[2].estimate, answers[0].estimate);
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.anytime_sampled, 3u);
  EXPECT_EQ(stats.sampler_batches, 1u);
}

// The test below pins template hit/miss counts, which an ambient GMC_FAULT
// spec (the CI faults job arms lineage.template) would perturb, so it
// holds a FaultGuard.
TEST(SessionRouterTest, TemplatesAnswerEveryTierAsASessionThatAlwaysGrounds) {
  // C9 over 3×3 at two support patterns (all 36 tuples uncertain, as on
  // certified_interval; and S2, S4 certain with S1(0, 0) absent), each at
  // two weightings of k/7 and k/11. A session that grounds every instance
  // (lineage.template at rate 1) must give the same bits on every tier.
  FaultGuard guard;
  const Query c9 = ExampleC9();
  const Vocabulary& v = c9.vocab();
  std::vector<Tid> tids;
  for (int pattern = 0; pattern < 2; ++pattern) {
    for (int k = 0; k < 2; ++k) {
      Tid tid(c9.vocab_ptr(), 3, 3, Rational::One());
      int salt = k;
      for (const char* name : {"S1", "S2", "S3", "S4"}) {
        const bool certain = pattern == 1 && (name[1] == '2' || name[1] == '4');
        for (int x = 0; x < 3; ++x) {
          for (int y = 0; y < 3; ++y, ++salt) {
            tid.SetBinary(v.Find(name), x, y,
                          certain         ? Rational::One()
                          : salt % 2 == 0 ? Rational(1 + salt % 6, 7)
                                          : Rational(1 + salt % 10, 11));
          }
        }
      }
      if (pattern == 1) tid.SetBinary(v.Find("S1"), 0, 0, Rational::Zero());
      tids.push_back(std::move(tid));
    }
  }
  const RoutingMode modes[] = {RoutingMode::kExact, RoutingMode::kInterval,
                               RoutingMode::kSample};
  struct Run {
    std::vector<std::vector<GmcAnswer>> answers;  // per mode
    GfomcSession::Stats stats;
  };
  auto run = [&] {
    GfomcSession session;
    GmcOptions options = session.options();
    options.max_samples = 2048;
    session.Configure(options);
    Run out;
    for (const RoutingMode mode : modes) {
      GmcOptions request = options;
      request.routing_mode = mode;
      request.epsilon = 0.1;
      request.delta = 0.05;
      out.answers.emplace_back();
      for (const GmcStatus& status : session.EvaluateAnswers(
               c9, tids, request, &out.answers.back())) {
        EXPECT_TRUE(status.ok()) << status.message;
      }
    }
    out.stats = session.stats();
    return out;
  };
  const Run cached = run();
  EXPECT_EQ(cached.stats.template_misses, 2u);
  EXPECT_EQ(cached.stats.template_hits, 3 * tids.size() - 2);

  std::string error;
  ASSERT_TRUE(fault::Configure("lineage.template=1", &error)) << error;
  const Run grounding = run();
  EXPECT_EQ(grounding.stats.template_hits, 0u);
  EXPECT_EQ(grounding.stats.template_misses, 3 * tids.size());
  for (size_t m = 0; m < std::size(modes); ++m) {
    for (size_t i = 0; i < tids.size(); ++i) {
      const GmcAnswer& a = cached.answers[m][i];
      const GmcAnswer& b = grounding.answers[m][i];
      EXPECT_EQ(a.tier, b.tier);
      EXPECT_EQ(a.exact, b.exact);
      EXPECT_TRUE(SameBits(a.interval, b.interval));
      EXPECT_TRUE(SameBits(a.estimate, b.estimate));
      EXPECT_TRUE(SameBits(a.epsilon, b.epsilon));
      EXPECT_EQ(a.samples, b.samples);
    }
  }
  EXPECT_EQ(cached.answers[1][0].tier, AnswerTier::kCertifiedInterval);
  EXPECT_EQ(cached.answers[2][0].tier, AnswerTier::kSampled);
}

}  // namespace
}  // namespace gmc
