// Karp–Luby importance sampling over monotone CNF lineages — the (ε, δ)
// tier of the three-way router.
//
// For a monotone lineage CNF F over independent tuple variables, the
// FAILURE event ¬F is a monotone DNF: ¬F = ∨_i D_i with one disjunct per
// clause, D_i = ∧_{v ∈ clause_i} ¬v, of weight w_i = Π (1 − p_v). The
// classical Karp–Luby estimator samples from the weighted union instead of
// the whole cube:
//
//   1. draw a disjunct i with probability w_i / W,  W = Σ_j w_j;
//   2. draw an assignment conditioned on D_i (clause_i's variables false,
//      every other variable independently true with its own p_v);
//   3. score a success iff i is the MINIMAL satisfied disjunct.
//
// The success probability is exactly μ / W with μ = Pr(¬F), and
// μ ≥ max_i w_i ≥ W / m bounds it below by 1/m, so the multiplicative
// Chernoff bound gives: after N = ⌈3 m ln(2/δ) / ε²⌉ samples, the estimate
// μ̂ = W · (successes / N) satisfies |μ̂ − μ| ≤ ε·μ ≤ ε with probability at
// least 1 − δ — a relative guarantee on the failure probability, hence an
// additive ε guarantee on Pr(F) = 1 − μ. Polynomial in the lineage for
// every ε, δ: this is an FPRAS, which is what makes the tier principled
// rather than a heuristic.
//
// Exactness of the per-sample randomness: every Bernoulli and categorical
// draw compares an exact uniform u ∈ [0, 1) against the exact Rational
// weights (util/rational.h), so the sampling distribution is exactly the
// one the analysis above assumes; no floating-point bias anywhere. Doubles
// appear only in the reported estimate. The plan holds every threshold t
// as the integer word ⌊t·2^64⌋.
//
// The disjunct draw reads one 64-bit word c, which pins u to
// [c/2^64, (c+1)/2^64): a boundary whose word is below c lies below u, one
// whose word is above c lies above it, so integer compares place u. Only
// c equal to a boundary's word (probability 2^-64) leaves that boundary
// inside u's interval; the draw then continues as an exact LazyUniform
// refinement from c, reading 64 more bits at a time. Its decision and
// stream use are those of a fully Rational draw, word for word.
//
// Samples are drawn 64 at a time, one per bit lane of a uint64_t
// (approx_internal::SampleLanes). A batch draws its 64 disjuncts in lane
// order, then walks the clauses once for all lanes and draws a variable
// for every lane that still needs it the first time the walk reads it.
// Word k of that draw is bit k of each lane's uniform u, and a lane
// compares its bits with p's binary expansion, most significant first
// (Knuth and Yao 1976): the first bit that differs decides u < p or
// u ≥ p, and a lane whose bits match a terminating expansion to its end
// has u ≥ p. The draw stops reading once every lane is decided; a lane
// still tied after 64 bits has u's first 64 bits equal to ⌊p·2^64⌋ and
// continues as the LazyUniform refinement above. Each lane's value is an
// exact, independent Bernoulli(p):
//   - lanes read disjoint bit positions of the draw's words;
//   - where a draw starts depends only on words already read (it is a
//     stopping time of the i.i.d. word stream), so its words are i.i.d.
//     uniform and independent of everything drawn before, and a lane's
//     decision reads only its own bits, all of which the draw reads;
//   - a lane whose disjunct holds the variable draws nothing: the
//     variable is false there, which is the conditioning on D_i.
// So a batch is 64 independent samples of the estimator above.
//
// The words are exact whichever builder computes them, and the categorical
// draw's guided search returns std::lower_bound's index (see
// approx_internal::BuildWordsInteger and KarpLubyPlan::guide).
//
// Anytime contract: when max_samples caps N below the target, the sampler
// still runs and reports the LARGER epsilon it actually achieved at that
// sample count (same δ) — a weaker certificate, never a silent lie.
//
// Parallelism and determinism: the sample index space is cut into
// fixed-size chunks (kSamplesPerChunk), chunk c draws from its own
// splitmix64 substream seeded `params.seed ^ c`, and workers claim chunks
// from a shared counter. A chunk draws its samples in 64-lane batches
// from its first index (only the final chunk's last batch can be
// partial). Chunk boundaries and substreams depend only on (seed, target)
// — never on the worker count or the schedule — and the
// caller reduces the per-chunk counts in chunk-index order, so a fixed
// seed is bit-reproducible at EVERY thread count (the same contract the
// batch evaluators honor, pinned by the reproducibility matrix in
// tests/approx_test.cc). A fired deadline truncates the reduction to the
// contiguous prefix of completed chunks (plus the partial chunk that
// observed the deadline), which keeps even cancelled runs thread-count-
// invariant when the token was fired before sampling began.
//
// Setup: the per-instance work — copying the CNF, the exact disjunct
// weights and their prefix sums, the threshold words and the guide table —
// is factored into a KarpLubyPlan. Every part but the CNF depends on the
// weights, so a plan serves only runs with equal weights. Build one with
// BuildKarpLubyPlan and run KarpLubyEstimate(plan, params) any number of
// times. GfomcSession builds one per sampled instance and drops it after
// the estimate: fresh-weight traffic never repeats a plan, and the build
// is a small share of a run.
//
// Default precedence (see approx/anytime_defaults.h for the shared
// constants): a default-constructed KarpLubyParams equals a
// default-constructed GmcOptions field for field. For configured runs
// GmcOptions::FromEnv() is the single source of truth — GfomcSession
// forwards its configured epsilon/delta/max_samples/seed/threads into the
// params it builds per request — and an explicitly set KarpLubyParams
// field overrides everything for that one call.

#ifndef GMC_APPROX_KARP_LUBY_H_
#define GMC_APPROX_KARP_LUBY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "approx/anytime_defaults.h"
#include "lineage/boolean_formula.h"
#include "lineage/grounder.h"
#include "util/cancel.h"
#include "util/rational.h"

namespace gmc {

/// Sampler knobs. The defaults mirror GmcOptions (both sides read
/// approx/anytime_defaults.h; see the precedence note in the header
/// comment); GfomcSession forwards its configured values and derives
/// `seed` per instance from the base seed and the lineage hash, so
/// fixed-seed runs reproduce exactly.
struct KarpLubyParams {
  double epsilon = kDefaultSampleEpsilon;  ///< target additive error
  double delta = kDefaultSampleDelta;      ///< failure probability
  /// Hard cap on samples (0 = none): the anytime knob. When it binds, the
  /// result reports the epsilon actually achieved at the capped count.
  uint64_t max_samples = kDefaultMaxSamples;
  uint64_t seed = kDefaultSampleSeed;
  /// Worker bound for the chunk-parallel sample loop: 0 defers to the
  /// process default (GMC_THREADS, else the hardware count), 1 forces
  /// serial, n allows at most n workers. Results are bit-identical at
  /// every setting — chunking is by sample index, never by worker.
  int num_threads = 0;
  /// Optional request-deadline token, polled inside every chunk and before
  /// each chunk claim. A fired deadline stops the loop at however many
  /// samples the kept chunk prefix drew and certifies the epsilon THAT
  /// count buys — the same anytime degradation as a binding max_samples,
  /// never an error (the one tier where a deadline costs certificate
  /// strength instead of the answer).
  const CancelToken* cancel = nullptr;
};

/// One sampling run's outcome.
struct KarpLubyResult {
  /// Point estimate of Pr(F = true): 1 − μ̂ clamped to [0, 1] (μ̂ can
  /// exceed 1, and the clamp can only shrink the error).
  double estimate = 0.0;
  /// The additive epsilon certified at `delta`: the target when the sample
  /// budget sufficed, the larger achieved value when max_samples bound,
  /// 0 for instances answered exactly.
  double epsilon = 0.0;
  double delta = 0.0;
  uint64_t samples = 0;
  uint64_t successes = 0;
  /// W = Σ_i Π_{v ∈ clause_i} (1 − p_v), the union bound on the failure
  /// probability (diagnostics; 0 for trivially-true instances).
  double failure_weight = 0.0;
  /// True when the instance was resolved exactly without sampling (no
  /// clauses, an empty clause, a single clause, or zero failure weight):
  /// `estimate` is then exact and `epsilon` is 0.
  bool exact = false;
};

/// The reusable per-instance setup of a sampling run: the formula, the
/// marginals, the exact disjunct-weight prefix sums that dominate setup
/// cost for short runs, and the threshold words the draws compare against.
/// Immutable once built, so one shared_ptr can back any number of
/// concurrent KarpLubyEstimate calls.
struct KarpLubyPlan {
  /// A variable's Bernoulli threshold as a word: ⌊p·2^64⌋ when 0 < p < 1.
  /// p ≤ 0 and p ≥ 1 are decided without reading the stream; `fixed` then
  /// holds the value (0 or 1), and is −1 for a variable that draws.
  /// `bits` is how many bits of p's binary expansion a draw compares: k
  /// when p = a/2^k for an odd a and k ≤ 64 (the expansion ends there),
  /// else 64.
  struct VariableWord {
    uint64_t floor = 0;
    int8_t fixed = -1;
    uint8_t bits = 64;
    bool operator==(const VariableWord&) const = default;
  };

  Cnf cnf;
  std::vector<Rational> probabilities;
  /// prefix[0] = 0, prefix[i + 1] = prefix[i] + w_i, prefix[m] = W. Size
  /// m + 1 (size 1 for a clause-free formula). Exact; read by the draws
  /// only on a threshold tie.
  std::vector<Rational> prefix;
  /// One per entry of `probabilities`.
  std::vector<VariableWord> variable_words;
  /// ⌊(prefix[i] / W)·2^64⌋ for i = 1 … k − 1, where k is the first index
  /// with prefix[k] = W (below m when the trailing disjuncts weigh 0).
  /// Nondecreasing; empty when W = 0.
  std::vector<uint64_t> boundary_words;
  /// The guide table over `boundary_words` (Chen and Asau's indexed
  /// search): with T = guide.size() − 1, the smallest power of two
  /// ≥ 2·|boundary_words| (at least 2), and guide_shift = 64 − log2 T,
  /// guide[k] counts the words below k·2^shift and guide[T] counts them
  /// all. A drawn word c lies in slice s = c >> guide_shift, so
  /// lower_bound(boundary_words, c) is in [guide[s], guide[s + 1]].
  std::vector<uint32_t> guide;
  int guide_shift = 63;

  size_t num_clauses() const { return cnf.clauses.size(); }
  const Rational& total_weight() const { return prefix.back(); }
};

/// Builds the plan for one (cnf, probabilities) instance. Same input
/// contract as KarpLubyEstimate below (probabilities indexed by variable
/// id, all in [0, 1], size >= cnf.num_vars — aborts otherwise, so callers
/// validate first).
std::shared_ptr<const KarpLubyPlan> BuildKarpLubyPlan(
    const Cnf& cnf, const std::vector<Rational>& probabilities);

/// Runs the estimator against a prebuilt plan, which any number of runs
/// over the same (cnf, probabilities) may share. Deterministic given
/// (plan, params).
KarpLubyResult KarpLubyEstimate(const KarpLubyPlan& plan,
                                const KarpLubyParams& params);

/// Convenience one-shot form: builds a throwaway plan and runs it.
/// Bit-identical to the plan form for the same inputs.
KarpLubyResult KarpLubyEstimate(const Cnf& cnf,
                                const std::vector<Rational>& probabilities,
                                const KarpLubyParams& params);

/// Lineage convenience: an unsatisfiable lineage is exactly 0.
KarpLubyResult KarpLubyEstimate(const Lineage& lineage,
                                const KarpLubyParams& params);

/// The sample count the (ε, δ) target demands for `num_clauses` disjuncts:
/// ⌈3 m ln(2/δ) / ε²⌉. Exposed for the calibration tests and the session's
/// cost accounting.
uint64_t KarpLubySampleTarget(uint64_t num_clauses, double epsilon,
                              double delta);

namespace approx_internal {

/// The fixed sample-chunk size of the parallel loop. Chunk count and
/// substream seeds depend only on (target, seed) — the thread-count-
/// invariance anchor. Small enough that modest targets still spread over
/// the pool, large enough that the claim counter stays cold.
inline constexpr uint64_t kSamplesPerChunk = 1024;

/// splitmix64 — the per-instance PRNG stream. Deterministic, seedable,
/// passes BigCrush as a 64-bit mixer; quality is ample for Monte Carlo
/// sampling (this is a certified estimator, not an adversarial setting).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// An exact uniform draw over [0, 1), materialized lazily: each comparison
/// against an exact Rational consumes just enough 64-bit chunks to decide
/// it (one, except with probability 2^-64 per extra chunk). Each draw is
/// independent; construct one per decision. The sampler builds one only
/// when a uniform's first 64 bits tie a threshold word (see
/// DrawBernoulliLanes / DrawDisjunct); the fresh-draw form is their
/// reference.
class LazyUniform {
 public:
  /// A fresh draw: no bits read yet.
  explicit LazyUniform(SplitMix64* rng) : rng_(rng) {}
  /// A draw whose first 64-bit chunk, `first_word`, was already read: the
  /// state a fresh draw is in right after its first refinement.
  LazyUniform(SplitMix64* rng, uint64_t first_word);

  /// True iff the draw is < threshold. Exact; threshold must be in [0, 1].
  bool LessThan(const Rational& threshold);

  /// The index i of the first prefix sum exceeding draw · total, i.e. a
  /// categorical sample with probabilities (prefix[i+1] − prefix[i]) /
  /// total. `prefix` has size m + 1, prefix[0] == 0, prefix[m] == total,
  /// nondecreasing, total > 0. Exact.
  size_t Categorical(const std::vector<Rational>& prefix,
                     const Rational& total);

 private:
  void Refine();

  SplitMix64* rng_;
  Rational low_;          // the bits drawn so far, as low_ <= draw < high_
  uint64_t bits_ = 0;     // draw resolution: high_ - low_ == 2^-bits_
};

/// The categorical draw, decided by 64-bit compares against the plan's
/// boundary words and continued exactly on a tie. Returns what a fresh
/// LazyUniform would (Categorical(plan.prefix, plan.total_weight())) and
/// reads the same words from `rng`. Needs W > 0.
size_t DrawDisjunct(const KarpLubyPlan& plan, SplitMix64* rng);

/// Variable `var`'s Bernoulli draw for every lane in `lanes` at once (see
/// the header comment): word k read from `rng` is bit k of each lane's
/// uniform u, compared with bit k of p's expansion, and reading stops once
/// every lane in `lanes` is decided. Lanes still tied after 64 words then
/// continue, in lane order, as LazyUniform(rng, floor).LessThan(p).
/// Returns the lanes of `lanes` where u < p, i.e. the variable is true.
/// p = 0 and p = 1 read no word.
uint64_t DrawBernoulliLanes(const KarpLubyPlan& plan, int var,
                            uint64_t lanes, SplitMix64* rng);

/// One batch's working state, reused batch after batch by one worker. Bit
/// ℓ of every word is lane ℓ, the batch's ℓ-th sample. After SampleLanes
/// it describes the batch just drawn.
struct LaneBatch {
  explicit LaneBatch(const KarpLubyPlan& plan);

  /// Per clause: the lanes that drew it as their disjunct.
  std::vector<uint64_t> chosen;
  /// Per variable: the lanes whose disjunct holds it, so it is false there.
  std::vector<uint64_t> forced;
  /// Per variable, once drawn: the lanes where it is true, among the
  /// undecided, unforced lanes the draw served; every other lane reads 0.
  std::vector<uint64_t> value;
  /// Per variable: whether `value` was drawn in this batch.
  std::vector<char> drawn;
};

/// Draws `num_lanes` samples (1 to 64) into lanes 0 … num_lanes − 1 and
/// returns how many succeeded. The disjuncts come first, one DrawDisjunct
/// per lane in lane order. The walk then visits clause j = 0, 1, …: the
/// lanes that chose j and met no all-false clause before it succeed, the
/// lanes where clause j is all false fail, and a variable is drawn with
/// DrawBernoulliLanes, for the lanes still undecided and not forced, the
/// first time the walk reads it. The walk ends once every lane is
/// decided. Needs W > 0.
int SampleLanes(const KarpLubyPlan& plan, int num_lanes, SplitMix64* rng,
                LaneBatch* batch);

/// The plan's two word builders. Each fills `prefix`, `variable_words` and
/// `boundary_words` from plan->cnf and plan->probabilities (the guide table
/// is BuildKarpLubyPlan's). BuildWordsInteger runs in 128-bit integers and
/// returns false, with the plan untouched, unless every probability a/b
/// has 0 ≤ a ≤ b < 2^63 and every running clause product, the common
/// denominator and every prefix numerator fit in 63 bits.
/// BuildWordsRational takes any input and aborts on a clause variable
/// outside [0, 1]. Where both apply, their results are equal.
bool BuildWordsInteger(KarpLubyPlan* plan);
void BuildWordsRational(KarpLubyPlan* plan);

}  // namespace approx_internal

}  // namespace gmc

#endif  // GMC_APPROX_KARP_LUBY_H_
