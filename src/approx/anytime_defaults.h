// The anytime tier's default knobs, in exactly one place.
//
// Two structs expose the sampler's configuration — KarpLubyParams (the
// direct sampler API) and GmcOptions (the session/env surface) — and
// before this header each duplicated the literals, so a tweak to one
// could silently strand the other (max_samples = 1 << 20 had already been
// copy-pasted). Both now default from these constants; the PRECEDENCE is
// documented in approx/karp_luby.h (GmcOptions::FromEnv overrides per
// process, GfomcSession forwards its configured values per request, and a
// caller-constructed KarpLubyParams overrides everything for that call).
//
// Deliberately dependency-free (<cstdint> only): gmc_options.h lives at
// the compile layer and must not pull the sampler in.

#ifndef GMC_APPROX_ANYTIME_DEFAULTS_H_
#define GMC_APPROX_ANYTIME_DEFAULTS_H_

#include <cstdint>

namespace gmc {

/// Target additive error on Pr(F), in (0, 1).
inline constexpr double kDefaultSampleEpsilon = 0.05;
/// Certificate failure probability, in (0, 1).
inline constexpr double kDefaultSampleDelta = 0.01;
/// Hard cap on samples per instance (0 = none); when it binds, the result
/// reports the larger epsilon the capped count actually buys.
inline constexpr uint64_t kDefaultMaxSamples = uint64_t{1} << 20;
/// Base PRNG seed (the golden-ratio splitmix64 increment — an arbitrary
/// but recognizable constant); per-instance streams derive from it.
inline constexpr uint64_t kDefaultSampleSeed = 0x9e3779b97f4a7c15ull;
/// Most samples a session draws for one instance. A session refuses an
/// instance whose sample count (the (ε, δ) target, or max_samples when
/// that is non-zero and smaller) exceeds it: at the limit the per-chunk
/// tallies alone take 96 MiB and sampling takes minutes, and past it a
/// tiny ε would ask for an unallocatable tally vector.
inline constexpr uint64_t kMaxSamplesPerInstance = uint64_t{1} << 32;

}  // namespace gmc

#endif  // GMC_APPROX_ANYTIME_DEFAULTS_H_
