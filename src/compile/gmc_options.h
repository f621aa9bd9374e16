// GmcOptions — the one configuration surface of the evaluation stack.
//
// CircuitCache and GfomcSession each expose one
// Configure(const GmcOptions&) that applies the fields it understands, and
// every environment default is read in exactly one place,
// GmcOptions::FromEnv(). The only other knob is the process-wide worker
// default of util/parallel.h (GMC_THREADS), which num_threads = 0 defers
// to.
//
// The struct lives at the compile layer (the lowest consumer is
// CircuitCache) and is plain data — copying is cheap, and a caller can
// snapshot, tweak one field, and re-Configure atomically.

#ifndef GMC_COMPILE_GMC_OPTIONS_H_
#define GMC_COMPILE_GMC_OPTIONS_H_

#include <cstdint>
#include <string>

#include "approx/anytime_defaults.h"
#include "compile/vtree.h"

namespace gmc {

/// Resource caps for one d-DNNF compilation (Compiler::TryCompile). A zero
/// field means "unlimited"; a default-constructed budget allows everything
/// (the legacy Compile behaviour). Node and call caps are deterministic —
/// the same CNF under the same budget always succeeds or always fails —
/// while the wall-clock cap trades that determinism for a hard latency
/// bound; the routing tests pin tier selection with the deterministic caps
/// only.
struct CompileBudget {
  uint64_t max_nodes = 0;   ///< cap on circuit nodes built (0 = unlimited)
  uint64_t max_calls = 0;   ///< cap on CompileNode invocations
  uint64_t max_millis = 0;  ///< wall-clock cap on one Compile call

  bool Unlimited() const {
    return max_nodes == 0 && max_calls == 0 && max_millis == 0;
  }
  /// True iff `other` allows strictly more work on at least one axis — the
  /// retry rule for structures that already exhausted a budget.
  bool AllowsMoreThan(const CompileBudget& other) const;
  bool operator==(const CompileBudget&) const = default;
};

/// The deterministic default budget of RoutingMode::kAuto: generous enough
/// that every gadget-scale circuit in the test corpus compiles, small
/// enough that a blow-up is cut off in well under a second.
CompileBudget DefaultCompileBudget();

/// How GfomcSession routes unsafe queries (safe queries are always
/// answered exactly; a PTIME plan exists, so there is nothing to trade
/// away).
enum class RoutingMode : uint8_t {
  /// Legacy two-way behaviour: exact always. With an unlimited
  /// compile_budget every lineage compiles, whatever its size — worst-case
  /// exponential, never approximate; with a finite one the checked API
  /// reports kBudgetExhausted instead of compiling past the budget.
  kExact = 0,
  /// Three-way: try a budgeted compile; inside budget → exact circuit
  /// evaluation, past it → the Karp–Luby (ε, δ) sampler. The production
  /// default: large unsafe instances degrade to a certified estimate
  /// instead of an OOM.
  kAuto,
  /// Like kAuto, but instances that do compile are answered with the
  /// directed-rounding interval walk (a certified [lo, hi] enclosure)
  /// instead of the exact BigInt pass — the fast certified tier for
  /// sweeps that need guarantees, not exact rationals.
  kInterval,
  /// Every unsafe instance goes straight to the sampler (no compile
  /// probe) — predictable latency, and the knob the calibration tests and
  /// benchmarks use to pin the sampled tier.
  kSample,
};

/// Stable lowercase name: "exact" / "auto" / "interval" / "sample" — the
/// vocabulary of the EVAL_APPROX wire verb's mode field.
const char* RoutingModeName(RoutingMode mode);
/// Parses a mode name. Returns false and leaves *out untouched on unknown
/// or null input.
bool ParseRoutingMode(const char* name, RoutingMode* out);

/// The unified option set. Field groups, with their consumers:
///   CircuitCache:  num_threads, order, store_directory,
///                  store_write_through, store_self_heal,
///                  max_resident_bytes
///   GfomcSession:  all of the above, applied to its one cache (the
///                  sampler's workers follow num_threads too), plus
///                  max_samples, sample_seed
///   Per call:      routing_mode, compile_budget, epsilon, delta,
///                  deadline_ms — GfomcSession::EvaluateAnswers reads
///                  them from its request; the configured values serve
///                  the configured-options entry points
/// Configure(options) on either class applies the fields that class
/// understands and ignores the rest.
struct GmcOptions {
  /// Worker bound for batched circuit passes and the Karp–Luby sample
  /// loop: 0 defers to the process default (the GMC_THREADS environment
  /// variable, else the hardware thread count), 1 forces serial, n allows
  /// at most n column slices or sampling workers. Results are
  /// bit-identical at every setting — the sampler's substreams are indexed
  /// by sample chunk, never by worker (see approx/karp_luby.h).
  int num_threads = 0;
  /// Shannon-order heuristic for newly compiled circuits (circuit size
  /// only; results are bit-identical under every heuristic).
  OrderHeuristic order = OrderHeuristic::kDefault;
  /// Persistent circuit store root ("" = no store), read-through on every
  /// compile miss and — when store_write_through — write-through on every
  /// fresh compile.
  std::string store_directory;
  bool store_write_through = true;
  /// Self-healing store reads (on by default): a read-path rejection whose
  /// file is durably corrupt quarantines the file (store/scrub.h) instead
  /// of leaving it to be re-read, re-rejected, and re-compiled by every
  /// cold process forever. Valid-but-mismatched files (hash collisions)
  /// are never quarantined regardless of this flag. GMC_STORE_SELF_HEAL=0
  /// disables (a read-only store mount must not be written to).
  bool store_self_heal = true;

  /// Routing-mode and anytime-tier knobs (GfomcSession only; see
  /// docs/ANYTIME.md for the guarantee semantics).
  RoutingMode routing_mode = RoutingMode::kAuto;
  /// Compile budget for routing probes. Default: DefaultCompileBudget().
  /// kExact ignores it through the legacy (unchecked) entry points.
  CompileBudget compile_budget = DefaultCompileBudget();
  /// Sampler target: with probability >= 1 - delta the estimate is within
  /// epsilon * Pr(lineage fails) <= epsilon of the exact probability.
  /// Defaults shared with KarpLubyParams via approx/anytime_defaults.h
  /// (precedence is documented in approx/karp_luby.h).
  double epsilon = kDefaultSampleEpsilon;
  double delta = kDefaultSampleDelta;
  /// Hard cap on samples per instance (0 = derived from epsilon/delta).
  /// When the cap binds, the answer reports the larger epsilon it actually
  /// achieved — the anytime contract.
  uint64_t max_samples = kDefaultMaxSamples;
  /// Base PRNG seed; per-instance streams derive deterministically from it
  /// and the lineage structure, so fixed-seed runs reproduce exactly.
  uint64_t sample_seed = kDefaultSampleSeed;

  /// End-to-end wall-clock deadline per checked request, in milliseconds
  /// (0 = none). One CancelToken armed with this deadline covers grounding,
  /// the compile probe, every arena evaluation pass, and the sampler; when
  /// it fires, EvaluateAnswer returns kDeadlineExceeded (exact tiers) or
  /// the sampler's achieved-ε anytime report (sampled tier). Unlike
  /// compile_budget.max_millis — which stops only the compiler — this
  /// deadline bounds the whole request (GfomcSession only).
  uint64_t deadline_ms = 0;

  /// Byte cap on circuits resident in the CircuitCache (0 = unlimited).
  /// Past the cap the least-recently-used circuits are evicted; in-flight
  /// evaluations hold shared_ptr pins, so eviction frees memory without
  /// ever invalidating a running pass. Evicted-but-persisted circuits
  /// degrade to store read-through hits, not recompiles.
  uint64_t max_resident_bytes = 0;

  /// The process-environment defaults, read afresh on every call:
  /// GMC_ORDER → order (default/minfill/balanced; anything else keeps
  /// kDefault), GMC_STORE → store_directory, GMC_THREADS → (deliberately) a
  /// num_threads of 0, because 0 already means "defer to the process
  /// default", which util/parallel resolves from GMC_THREADS at use time.
  /// Routing knobs:
  /// GMC_ROUTING (exact/auto/interval/sample), GMC_BUDGET_NODES /
  /// GMC_BUDGET_CALLS / GMC_BUDGET_MS (unsigned; 0 = unlimited),
  /// GMC_EPSILON / GMC_DELTA (decimals strictly in (0, 1)),
  /// GMC_MAX_SAMPLES and GMC_SEED (unsigned),
  /// GMC_DEADLINE_MS → deadline_ms and GMC_CACHE_BYTES →
  /// max_resident_bytes (unsigned; 0 = off), GMC_STORE_SELF_HEAL →
  /// store_self_heal (0/false/off to disable). Unset or malformed values
  /// keep the struct defaults. Every default-constructed CircuitCache /
  /// session Configures itself with this value.
  static GmcOptions FromEnv();
};

}  // namespace gmc

#endif  // GMC_COMPILE_GMC_OPTIONS_H_
