#include "approx/karp_luby.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/bigint.h"
#include "util/check.h"
#include "util/parallel.h"

namespace gmc {

namespace approx_internal {

namespace {

// A uint64 as a BigInt (the int64_t constructor can't hold the top bit).
BigInt BigIntFromU64(uint64_t value) {
  BigInt big(static_cast<int64_t>(value >> 32));
  big.ShiftLeftInPlace(32);
  big += BigInt(static_cast<int64_t>(value & 0xffffffffull));
  return big;
}

}  // namespace

LazyUniform::LazyUniform(SplitMix64* rng, uint64_t first_word)
    : rng_(rng),
      low_(Rational::Dyadic(BigIntFromU64(first_word), 64)),
      bits_(64) {}

void LazyUniform::Refine() {
  // Append 64 fresh bits: the draw's enclosing dyadic interval narrows
  // from [low_, low_ + 2^-bits_) to width 2^-(bits_ + 64).
  const uint64_t chunk = rng_->Next();
  bits_ += 64;
  low_ += Rational::Dyadic(BigIntFromU64(chunk), bits_);
}

bool LazyUniform::LessThan(const Rational& threshold) {
  while (true) {
    // draw ∈ [low_, high_) with high_ = low_ + 2^-bits_.
    if (bits_ > 0) {
      const Rational high = low_ + Rational::Dyadic(BigInt(1), bits_);
      if (high <= threshold) return true;   // draw < high ≤ t
      if (threshold <= low_) return false;  // draw ≥ low ≥ t
    } else if (threshold >= Rational::One()) {
      return true;  // draw < 1 ≤ t, no bits needed
    } else if (threshold.sign() <= 0) {
      return false;
    }
    Refine();  // t strictly inside the interval: need more bits
  }
}

size_t LazyUniform::Categorical(const std::vector<Rational>& prefix,
                                const Rational& total) {
  GMC_CHECK(prefix.size() >= 2 && total.sign() > 0);
  // The sample is the index whose [prefix[i], prefix[i+1]) bucket contains
  // draw · total. Refine until the draw's interval, scaled by total, fits
  // inside one bucket. upper_bound on the nondecreasing prefix keeps each
  // probe logarithmic.
  auto bucket_of = [&](const Rational& scaled) {
    const auto it =
        std::upper_bound(prefix.begin() + 1, prefix.end() - 1, scaled);
    return static_cast<size_t>(it - prefix.begin()) - 1;
  };
  while (true) {
    if (bits_ > 0) {
      const Rational scaled_low = low_ * total;
      const Rational scaled_high =
          (low_ + Rational::Dyadic(BigInt(1), bits_)) * total;
      const size_t lo_bucket = bucket_of(scaled_low);
      // The interval is half-open, so its supremum landing exactly on a
      // boundary still belongs to the lower bucket.
      if (scaled_high <= prefix[lo_bucket + 1]) return lo_bucket;
    }
    Refine();
  }
}

size_t DrawDisjunct(const KarpLubyPlan& plan, SplitMix64* rng) {
  // Boundaries with a word below c lie below u, those with a word above c
  // lie above all of u's interval; lo counts the former, so unless the
  // next boundary's word is c itself, u · W falls in bucket lo. The guide
  // table brackets lo by c's slice of the word range; the search runs
  // only over the words inside that slice.
  const std::vector<uint64_t>& words = plan.boundary_words;
  const uint64_t c = rng->Next();
  const uint64_t slice = c >> plan.guide_shift;
  const size_t lo = static_cast<size_t>(
      std::lower_bound(words.begin() + plan.guide[slice],
                       words.begin() + plan.guide[slice + 1], c) -
      words.begin());
  if (lo == words.size() || words[lo] != c) [[likely]] return lo;
  return LazyUniform(rng, c).Categorical(plan.prefix, plan.total_weight());
}

uint64_t DrawBernoulliLanes(const KarpLubyPlan& plan, int var,
                            uint64_t lanes, SplitMix64* rng) {
  const KarpLubyPlan::VariableWord& word = plan.variable_words[var];
  if (word.fixed >= 0) return word.fixed != 0 ? lanes : 0;  // no word
  // Bit k of p's expansion is bit 63 − k of the floor word. A tied lane
  // whose bit differs from p's is decided: a 0 against p's 1 puts u below
  // p, a 1 against p's 0 puts it above.
  uint64_t below = 0;
  uint64_t tied = lanes;
  for (int k = 0; k < word.bits && tied != 0; ++k) {
    const uint64_t lane_bits = rng->Next();
    const uint64_t p_bit = 0 - ((word.floor >> (63 - k)) & 1);
    const uint64_t differ = (lane_bits ^ p_bit) & tied;
    below |= differ & ~lane_bits;
    tied ^= differ;
  }
  // Under 64 bits the expansion has ended, so the tied lanes have u ≥ p.
  // After 64, each tied lane's first word is the floor word, and its draw
  // goes on exactly from there.
  if (word.bits == 64) {
    for (; tied != 0; tied &= tied - 1) {
      if (LazyUniform(rng, word.floor).LessThan(plan.probabilities[var])) {
        below |= tied & (0 - tied);
      }
    }
  }
  return below;
}

LaneBatch::LaneBatch(const KarpLubyPlan& plan)
    : chosen(plan.num_clauses()),
      forced(plan.cnf.num_vars),
      value(plan.cnf.num_vars),
      drawn(plan.cnf.num_vars) {}

int SampleLanes(const KarpLubyPlan& plan, int num_lanes, SplitMix64* rng,
                LaneBatch* batch) {
  const std::vector<std::vector<int>>& clauses = plan.cnf.clauses;
  std::fill(batch->chosen.begin(), batch->chosen.end(), 0);
  std::fill(batch->forced.begin(), batch->forced.end(), 0);
  std::fill(batch->drawn.begin(), batch->drawn.end(), 0);
  // 1. Disjunct i ∝ w_i per lane; clause i's variables are false there.
  for (int lane = 0; lane < num_lanes; ++lane) {
    const uint64_t bit = uint64_t{1} << lane;
    const size_t i = DrawDisjunct(plan, rng);
    batch->chosen[i] |= bit;
    for (int v : clauses[i]) batch->forced[v] |= bit;
  }
  // 2. One walk for every lane. `pending` holds the lanes that have not
  //    reached their disjunct and met no all-false clause before it; each
  //    lane's own disjunct lies ahead, so the walk ends inside the CNF.
  uint64_t pending = ~uint64_t{0} >> (64 - num_lanes);
  uint64_t succeeded = 0;
  for (size_t j = 0; pending != 0; ++j) {
    const uint64_t reached = pending & batch->chosen[j];
    succeeded |= reached;
    pending ^= reached;
    uint64_t all_false = pending;
    for (int v : clauses[j]) {
      if (all_false == 0) break;
      if (!batch->drawn[v]) {
        batch->drawn[v] = 1;
        batch->value[v] =
            DrawBernoulliLanes(plan, v, pending & ~batch->forced[v], rng);
      }
      all_false &= ~batch->value[v];
    }
    pending &= ~all_false;
  }
  // 3. Success iff no EARLIER disjunct was also satisfied (all false).
  return std::popcount(succeeded);
}

namespace {

using UInt128 = unsigned __int128;

bool FitsIn63Bits(UInt128 value) { return value < (UInt128{1} << 63); }

// ⌊(num / den)·2^64⌋ for 0 ≤ num < den: the word a threshold compares as.
uint64_t FloorWord(const BigInt& num, const BigInt& den) {
  return (num.ShiftLeft(64) / den).Bits64At(0);
}

// The same word for 64-bit parts; num < den keeps the quotient in 64 bits.
uint64_t FloorWord(uint64_t num, uint64_t den) {
  return static_cast<uint64_t>((UInt128{num} << 64) / den);
}

}  // namespace

bool BuildWordsInteger(KarpLubyPlan* plan) {
  const std::vector<Rational>& probabilities = plan->probabilities;
  const std::vector<std::vector<int>>& clauses = plan->cnf.clauses;
  const size_t m = clauses.size();
  // Every marginal as a/b in lowest terms, 0 ≤ a ≤ b < 2^63.
  std::vector<std::pair<uint64_t, uint64_t>> parts(probabilities.size());
  for (size_t v = 0; v < probabilities.size(); ++v) {
    const Rational& p = probabilities[v];
    if (p.sign() < 0 || p.denominator().BitLength() > 63 ||
        p.numerator().BitLength() > 63) {
      return false;
    }
    parts[v] = {p.numerator().Bits64At(0), p.denominator().Bits64At(0)};
    if (parts[v].first > parts[v].second) return false;
  }
  // The clause weights n_i/d_i = Π (b − a)/b and their common
  // denominator D. A weight is at most 1, so its numerator fits wherever
  // its denominator does.
  std::vector<uint64_t> numerators(m);
  std::vector<uint64_t> denominators(m);
  uint64_t common = 1;
  for (size_t i = 0; i < m; ++i) {
    uint64_t n = 1;
    uint64_t d = 1;
    for (int v : clauses[i]) {
      const auto [a, b] = parts[v];
      const uint64_t q = b - a;
      if (q == 0) {
        n = 0;
        d = 1;
        break;
      }
      const UInt128 den = UInt128{d} * b;
      if (!FitsIn63Bits(den)) return false;
      n *= q;
      d = static_cast<uint64_t>(den);
    }
    numerators[i] = n;
    denominators[i] = d;
    const UInt128 lcm = UInt128{common / std::gcd(common, d)} * d;
    if (!FitsIn63Bits(lcm)) return false;
    common = static_cast<uint64_t>(lcm);
  }
  // The prefix numerators N_i over D: prefix[i] = N_i / D.
  std::vector<uint64_t> sums(m + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    const UInt128 next =
        sums[i] + UInt128{common / denominators[i]} * numerators[i];
    if (!FitsIn63Bits(next)) return false;
    sums[i + 1] = static_cast<uint64_t>(next);
  }

  // Everything fits: write the plan. The prefix entries are the canonical
  // Rationals N_i / D reduced, so they equal the Rational path's sums.
  plan->prefix.resize(m + 1);
  for (size_t i = 0; i <= m; ++i) {
    const uint64_t g = std::gcd(sums[i], common);  // D when N_i = 0
    plan->prefix[i] = Rational::FromReducedParts(
        BigInt(static_cast<int64_t>(sums[i] / g)),
        BigInt(static_cast<int64_t>(common / g)));
  }
  plan->variable_words.assign(parts.size(), {});
  for (size_t v = 0; v < parts.size(); ++v) {
    const auto [a, b] = parts[v];
    KarpLubyPlan::VariableWord& word = plan->variable_words[v];
    if (a == 0) {
      word.fixed = 0;
    } else if (a == b) {
      word.fixed = 1;
    } else {
      word.floor = FloorWord(a, b);
      // b < 2^63: a dyadic p's expansion ends within the word.
      if (std::has_single_bit(b)) word.bits = std::countr_zero(b);
    }
  }
  // prefix[i] / W = N_i / N_m.
  plan->boundary_words.clear();
  for (size_t i = 1; i < m && sums[i] != sums[m]; ++i) {
    plan->boundary_words.push_back(FloorWord(sums[i], sums[m]));
  }
  return true;
}

void BuildWordsRational(KarpLubyPlan* plan) {
  const std::vector<Rational>& probabilities = plan->probabilities;
  const Cnf& cnf = plan->cnf;
  // Disjunct weights w_i = Π_{v ∈ clause_i} (1 − p_v), their prefix sums,
  // and W — all exact.
  const size_t m = cnf.clauses.size();
  plan->prefix.assign(m + 1, Rational::Zero());
  for (size_t i = 0; i < m; ++i) {
    Rational weight = Rational::One();
    for (int v : cnf.clauses[i]) {
      GMC_CHECK_MSG(probabilities[v].IsProbability(),
                    "BuildKarpLubyPlan needs probabilities in [0, 1]");
      weight *= Rational::One() - probabilities[v];
      if (weight.IsZero()) break;
    }
    plan->prefix[i + 1] = plan->prefix[i] + weight;
  }
  // The threshold words the draws compare against (see
  // DrawBernoulliLanes).
  plan->variable_words.assign(probabilities.size(), {});
  for (size_t v = 0; v < probabilities.size(); ++v) {
    const Rational& p = probabilities[v];
    KarpLubyPlan::VariableWord& word = plan->variable_words[v];
    if (p.sign() <= 0) {
      word.fixed = 0;
    } else if (p >= Rational::One()) {
      word.fixed = 1;
    } else {
      const BigInt& den = p.denominator();
      word.floor = FloorWord(p.numerator(), den);
      if (den.IsPowerOfTwo() && den.BitLength() <= 65) {
        word.bits = static_cast<uint8_t>(den.BitLength() - 1);
      }
    }
  }
  plan->boundary_words.clear();
  const Rational& total = plan->total_weight();
  for (size_t i = 1; i < m && plan->prefix[i] != total; ++i) {
    // prefix[i] / W < 1, as (a/b) / (N/D) = a·D / (b·N).
    plan->boundary_words.push_back(
        FloorWord(plan->prefix[i].numerator() * total.denominator(),
                  plan->prefix[i].denominator() * total.numerator()));
  }
}

}  // namespace approx_internal

uint64_t KarpLubySampleTarget(uint64_t num_clauses, double epsilon,
                              double delta) {
  GMC_CHECK(epsilon > 0.0 && epsilon < 1.0 && delta > 0.0 && delta < 1.0);
  if (num_clauses == 0) return 0;
  const double target = std::ceil(3.0 * static_cast<double>(num_clauses) *
                                  std::log(2.0 / delta) /
                                  (epsilon * epsilon));
  // Saturate past 2^64, where the cast would be undefined; a sample cap
  // then binds as for any large target.
  if (!(target < 0x1p64)) return UINT64_MAX;
  return static_cast<uint64_t>(target);
}

namespace {

// The guide table over plan->boundary_words (see KarpLubyPlan::guide), in
// one merge pass over the slice edges k·2^shift and the sorted words.
void BuildGuide(KarpLubyPlan* plan) {
  const std::vector<uint64_t>& words = plan->boundary_words;
  GMC_CHECK(words.size() <= UINT32_MAX);
  int log_slices = 1;
  while ((uint64_t{1} << log_slices) < 2 * words.size()) ++log_slices;
  const size_t slices = size_t{1} << log_slices;
  plan->guide_shift = 64 - log_slices;
  plan->guide.resize(slices + 1);
  size_t below = 0;
  for (size_t k = 0; k < slices; ++k) {
    const uint64_t edge = static_cast<uint64_t>(k) << plan->guide_shift;
    while (below < words.size() && words[below] < edge) ++below;
    plan->guide[k] = static_cast<uint32_t>(below);
  }
  plan->guide[slices] = static_cast<uint32_t>(words.size());
}

}  // namespace

std::shared_ptr<const KarpLubyPlan> BuildKarpLubyPlan(
    const Cnf& cnf, const std::vector<Rational>& probabilities) {
  GMC_CHECK(static_cast<int>(probabilities.size()) >= cnf.num_vars);
  auto plan = std::make_shared<KarpLubyPlan>();
  plan->cnf = cnf;
  plan->probabilities = probabilities;
  if (!approx_internal::BuildWordsInteger(plan.get())) {
    approx_internal::BuildWordsRational(plan.get());
  }
  BuildGuide(plan.get());
  return plan;
}

namespace {

// Per-chunk tallies, written only by the chunk's owning worker and read by
// the caller after the pool joins; `completed` distinguishes a chunk that
// drew its full range from one a fired deadline cut short (or that never
// started), which is what the ordered prefix reduction truncates on.
struct ChunkTally {
  uint64_t drawn = 0;
  uint64_t successes = 0;
  bool completed = false;
};

// Draws the chunk's `count` samples into `tally`, 64 lanes at a time,
// from the chunk's own substream. Returns false iff the deadline fired
// mid-chunk (the tally then holds a valid partial count). The substream
// seed is the instance seed XOR the CHUNK index — not the worker index
// directly, which would tie the stream to the schedule; a "worker" in the
// determinism contract is the logical owner of one fixed chunk.
bool SampleChunk(const KarpLubyPlan& plan, const KarpLubyParams& params,
                 uint64_t chunk, uint64_t count,
                 approx_internal::LaneBatch* batch, ChunkTally* tally) {
  approx_internal::SplitMix64 rng(params.seed ^ chunk);
  for (uint64_t local = 0; local < count; local += 64) {
    // A fired deadline degrades to the anytime report — the samples
    // already drawn stay valid (each is i.i.d.; stopping is oblivious to
    // their outcomes, so no bias). Poll before every 64-sample batch of
    // THIS chunk but its first: chunk 0 always completes one batch,
    // keeping μ̂ well-defined, and the poll cadence is a pure function of
    // the chunk-local index, not of which worker runs the chunk.
    if (params.cancel != nullptr && local > 0 && params.cancel->Poll()) {
      return false;
    }
    const int lanes = static_cast<int>(std::min<uint64_t>(64, count - local));
    tally->successes +=
        approx_internal::SampleLanes(plan, lanes, &rng, batch);
    tally->drawn += lanes;
  }
  tally->completed = true;
  return true;
}

}  // namespace

KarpLubyResult KarpLubyEstimate(const KarpLubyPlan& plan,
                                const KarpLubyParams& params) {
  const Cnf& cnf = plan.cnf;
  KarpLubyResult result;
  result.delta = params.delta;

  // Trivial instances are answered exactly — the sampler's guarantee
  // would be vacuous and the router's tests pin these corners.
  if (cnf.IsTrue()) {
    result.estimate = 1.0;
    result.exact = true;
    return result;
  }
  if (cnf.HasEmptyClause()) {
    result.estimate = 0.0;
    result.exact = true;
    return result;
  }

  const size_t m = plan.num_clauses();
  const Rational& total = plan.total_weight();
  result.failure_weight = total.ToDouble();

  if (total.IsZero()) {
    // Every disjunct has zero weight: the lineage fails with probability 0.
    result.estimate = 1.0;
    result.exact = true;
    return result;
  }
  if (m == 1) {
    // One disjunct: μ = w_0 exactly, nothing to sample.
    result.estimate = (Rational::One() - total).ToDouble();
    result.exact = true;
    return result;
  }

  uint64_t target = KarpLubySampleTarget(m, params.epsilon, params.delta);
  result.epsilon = params.epsilon;
  if (params.max_samples > 0 && target > params.max_samples) {
    // Anytime: run what the cap allows and certify the epsilon that count
    // actually buys (invert N = 3m ln(2/δ)/ε²).
    target = params.max_samples;
    result.epsilon = std::sqrt(3.0 * static_cast<double>(m) *
                               std::log(2.0 / params.delta) /
                               static_cast<double>(target));
  }

  // The chunked, thread-count-invariant sample loop (see the header
  // comment): chunk c owns global sample indices [c·K, (c+1)·K) and its
  // own substream; workers claim chunks from a shared counter, so the
  // SCHEDULE is dynamic but every per-chunk computation — and the ordered
  // reduction below — is a pure function of (plan, seed, target).
  const uint64_t chunk_size = approx_internal::kSamplesPerChunk;
  // Rounded up without forming target + chunk_size − 1, which wraps for
  // a saturated target.
  const uint64_t num_chunks =
      target / chunk_size + (target % chunk_size != 0 ? 1 : 0);
  std::vector<ChunkTally> tallies(num_chunks);
  std::atomic<uint64_t> next_chunk{0};
  const int requested = params.num_threads > 0 ? params.num_threads
                                               : DefaultNumThreads();
  const int workers = static_cast<int>(
      std::min<uint64_t>(static_cast<uint64_t>(std::max(requested, 1)),
                         num_chunks));
  auto drain_chunks = [&](int) {
    // Scratch is per worker, reused across the chunks it claims — each
    // batch resets it, so reuse cannot leak state.
    approx_internal::LaneBatch batch(plan);
    for (;;) {
      const uint64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      // Deadline check BEFORE starting a claimed chunk — except chunk 0,
      // which always runs so at least one sample exists. Chunks the fired
      // token skips stay !completed and the prefix reduction discards
      // everything at and past the first of them, so a token fired before
      // sampling began yields the same truncation at every thread count.
      if (c > 0 && params.cancel != nullptr && params.cancel->Poll()) {
        return;
      }
      const uint64_t count = std::min(target - c * chunk_size, chunk_size);
      if (!SampleChunk(plan, params, c, count, &batch, &tallies[c])) {
        return;  // deadline fired mid-chunk; partial tally kept
      }
    }
  };
  if (workers <= 1) {
    drain_chunks(0);
  } else {
    ThreadPool::Shared().Run(workers, drain_chunks);
  }

  // Ordered reduction, the determinism anchor: sum chunk tallies in chunk-
  // index order and keep only the contiguous prefix of completed chunks
  // plus the first incomplete one's partial draws. Later chunks a racing
  // worker happened to finish are discarded — the kept set is then a
  // prefix of the sample index space, chosen obliviously to the sample
  // outcomes, so the estimator stays unbiased and a pre-fired token
  // truncates identically at every thread count.
  uint64_t successes = 0;
  uint64_t drawn = 0;
  for (uint64_t c = 0; c < num_chunks; ++c) {
    drawn += tallies[c].drawn;
    successes += tallies[c].successes;
    if (!tallies[c].completed) break;
  }
  if (drawn < target) {
    // Deadline fired mid-run: certify the epsilon the drawn count buys,
    // exactly as a binding max_samples would (invert N = 3m ln(2/δ)/ε²).
    result.epsilon = std::sqrt(3.0 * static_cast<double>(m) *
                               std::log(2.0 / params.delta) /
                               static_cast<double>(drawn));
  }

  // μ̂ = W · successes / N, computed exactly before the one rounding into
  // the reported double. W can exceed 1, so μ̂ can too; the estimate is
  // 1 − μ̂ projected onto [0, 1], decided exactly (μ̂ ≥ 0, so only the lower
  // end can bind). The projection never moves it away from Pr(F).
  const Rational mu_hat =
      total * Rational(static_cast<int64_t>(successes)) /
      Rational(static_cast<int64_t>(drawn));
  result.estimate =
      mu_hat < Rational::One() ? (Rational::One() - mu_hat).ToDouble() : 0.0;
  result.samples = drawn;
  result.successes = successes;
  return result;
}

KarpLubyResult KarpLubyEstimate(const Cnf& cnf,
                                const std::vector<Rational>& probabilities,
                                const KarpLubyParams& params) {
  return KarpLubyEstimate(*BuildKarpLubyPlan(cnf, probabilities), params);
}

KarpLubyResult KarpLubyEstimate(const Lineage& lineage,
                                const KarpLubyParams& params) {
  if (lineage.is_false) {
    KarpLubyResult result;
    result.delta = params.delta;
    result.estimate = 0.0;
    result.exact = true;
    return result;
  }
  return KarpLubyEstimate(lineage.cnf, lineage.probabilities, params);
}

}  // namespace gmc
