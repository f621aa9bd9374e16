// Statistical calibration of the Karp–Luby sampler: does the certified
// (ε, δ) contract hold EMPIRICALLY, not just derivationally?
//
// For each corpus instance we know the exact probability μ (the recursive
// WMC engine computes it as a rational), so we can run the sampler many
// times under independent seeds and count how often the certificate lies:
// |estimate − μ| > ε_achieved. The contract promises that fraction is at
// most δ. With N runs the violation count is Binomial(N, q) for some true
// rate q ≤ δ, so we accept up to
//
//     δ·N + 5·sqrt(N·δ·(1−δ))
//
// — the mean plus five standard deviations of the WORST allowed sampler.
// A correct sampler (whose true rate sits far below δ; the Chernoff bound
// behind the target is loose) passes with enormous margin; a broken
// reduction — double-counted chunk, worker-dependent stream, biased
// truncation — shows up as a violation rate near 0.5 and fails by miles.
// Five sigmas keeps the false-failure odds below ~3e-7 even at the worst
// allowed rate, so the test is deterministic in practice yet genuinely
// sensitive to calibration bugs.
//
// Every run executes BOTH the serial and the parallel sampler and also
// asserts them bit-identical — the statistical harness doubles as a
// 200-seed reproducibility sweep, which is exactly the property that makes
// one calibration pass cover both paths.
//
// Sized for CI: 2 instances × 200 seeds × ≤1024 samples per run stays a
// few seconds even under TSAN/ASAN (the 300 s ctest timeout is far away).
//
// The certificate is loose — ε = 0.33 on H1 and 0.62 on C9 at 1024
// samples — so a sampler can be biased by far less than ε and still pass
// the sweep. The unbiasedness test below looks at the success fraction
// itself: each sample succeeds with probability exactly μ/W, so over N
// samples the fraction lies within a few σ = sqrt(q(1 − q)/N) of q = μ/W,
// which the exact WMC engine gives. At N = 2^20, σ is about 5·10^-4.

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "approx/karp_luby.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
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

// A TID over the query's vocabulary with varied non-dyadic weights (the
// same corpus profile tests/approx_test.cc uses).
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

void RunCalibration(const Query& query, int salt) {
  const Lineage lineage = Ground(query, CorpusTid(query, 3, 3, salt));
  ASSERT_FALSE(lineage.is_false);
  ASSERT_FALSE(lineage.cnf.clauses.empty());
  const double exact = WmcEngine().Probability(lineage).ToDouble();

  const int kRuns = 200;
  const double kDelta = 0.25;
  int violations = 0;
  for (int k = 0; k < kRuns; ++k) {
    KarpLubyParams params;
    // The cap binds (1024 < the ε-target), so every run certifies the
    // achieved epsilon for exactly 1024 draws — one fixed certificate to
    // test the violation rate against.
    params.epsilon = 0.01;
    params.delta = kDelta;
    params.max_samples = 1024;
    params.seed = 0xca11b7a7e0000000ull + static_cast<uint64_t>(k) * 8191u +
                  static_cast<uint64_t>(salt);
    params.num_threads = 1;
    const KarpLubyResult serial = KarpLubyEstimate(lineage, params);
    params.num_threads = 4;
    const KarpLubyResult parallel = KarpLubyEstimate(lineage, params);

    // The reproducibility half: serial and parallel are ONE sampler.
    ASSERT_EQ(parallel.estimate, serial.estimate) << "seed=" << params.seed;
    ASSERT_EQ(parallel.successes, serial.successes);
    ASSERT_EQ(parallel.samples, serial.samples);
    ASSERT_EQ(parallel.epsilon, serial.epsilon);

    ASSERT_FALSE(serial.exact);
    ASSERT_EQ(serial.samples, 1024u);
    ASSERT_GT(serial.epsilon, params.epsilon);  // the cap bound
    if (std::abs(serial.estimate - exact) > serial.epsilon) ++violations;
  }

  // Binomial acceptance at the worst allowed rate δ, plus five sigmas.
  const double bound =
      kDelta * kRuns + 5.0 * std::sqrt(kRuns * kDelta * (1.0 - kDelta));
  EXPECT_LE(violations, static_cast<int>(bound))
      << "violation rate " << (static_cast<double>(violations) / kRuns)
      << " vs certified delta " << kDelta;
}

// A TID on an n×n domain whose tuple weights cycle through `weights` in
// (symbol, u, v) order (the same profile tests/approx_test.cc uses).
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

// The end-to-end sampled workload's weights, k/7 and k/11.
std::vector<Rational> SeventhsElevenths() {
  return {Rational(1, 7), Rational(2, 11), Rational(3, 7), Rational(5, 11),
          Rational(6, 7), Rational(9, 11), Rational(2, 7), Rational(4, 11),
          Rational(5, 7), Rational(10, 11)};
}

void RunUnbiasedness(const Cnf& cnf,
                     const std::vector<Rational>& probabilities,
                     uint64_t seed) {
  const std::shared_ptr<const KarpLubyPlan> plan =
      BuildKarpLubyPlan(cnf, probabilities);
  const Rational mu =
      Rational::One() - WmcEngine().Probability(cnf, probabilities);
  const double q = (mu / plan->total_weight()).ToDouble();
  const uint64_t kSamples = uint64_t{1} << 20;
  const double sigma =
      std::sqrt(q * (1.0 - q) / static_cast<double>(kSamples));
  for (int threads : {1, 4}) {
    KarpLubyParams params;
    params.epsilon = 0.001;  // a target far past the cap
    params.max_samples = kSamples;
    params.seed = seed;
    params.num_threads = threads;
    const KarpLubyResult r = KarpLubyEstimate(*plan, params);
    ASSERT_EQ(r.samples, kSamples);
    const double fraction =
        static_cast<double>(r.successes) / static_cast<double>(kSamples);
    EXPECT_LE(std::abs(fraction - q), 5.0 * sigma)
        << "threads=" << threads << " fraction=" << fraction << " q=" << q
        << " z=" << (fraction - q) / sigma;
  }
}

TEST(KarpLubyUnbiasednessTest, H1SuccessFractionIsMuOverW) {
  const Lineage lineage =
      Ground(H1(), CyclingTid(H1(), 3, SeventhsElevenths()));
  ASSERT_FALSE(lineage.is_false);
  RunUnbiasedness(lineage.cnf, lineage.probabilities, 0xb1a5ed01u);
}

TEST(KarpLubyUnbiasednessTest, ExampleC9SuccessFractionIsMuOverW) {
  const Lineage lineage =
      Ground(ExampleC9(), CyclingTid(ExampleC9(), 3, SeventhsElevenths()));
  ASSERT_FALSE(lineage.is_false);
  RunUnbiasedness(lineage.cnf, lineage.probabilities, 0xb1a5ed02u);
}

TEST(KarpLubyUnbiasednessTest, CertainAndImpossibleVariablesStayUnbiased) {
  // tests/approx_test.cc's golden "mixed 0/1" CNF: variables 0 and 5 are
  // impossible, 1 and 7 certain, and disjuncts 2, 6 and 7 weigh 0.
  Cnf mixed;
  mixed.num_vars = 8;
  mixed.clauses = {{0, 2}, {2, 3}, {1, 4}, {3, 5, 6},
                   {4, 6}, {2, 5}, {0, 7}, {1, 6}};
  RunUnbiasedness(mixed,
                  {Rational::Zero(), Rational::One(), Rational(1, 3),
                   Rational::Half(), Rational(2, 5), Rational::Zero(),
                   Rational(3, 4), Rational::One()},
                  0xb1a5ed03u);
}

TEST(KarpLubyCalibrationTest, H1HoldsItsCertificateEmpirically) {
  RunCalibration(H1(), 0);
}

TEST(KarpLubyCalibrationTest, ExampleC9HoldsItsCertificateEmpirically) {
  RunCalibration(ExampleC9(), 0);
}

}  // namespace
}  // namespace gmc
