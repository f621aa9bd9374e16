// Public façade: the dichotomy, end to end.
//
// * Classify(Q): the static analysis of Theorem 2.2 — safe queries are
//   PTIME, unsafe ones #P-hard even with probabilities in {0, 1/2, 1}.
// * Gfomc(Q, ∆): one-call probability evaluation. Safe queries take the
//   lifted PTIME plan (or, for a small GFOMC instance, the same compiled
//   pass as unsafe ones); unsafe ones fall back to exact (worst-case
//   exponential) weighted model counting, as the dichotomy promises nothing
//   better.
// * GfomcSession: the repeated-query front end. Holds one CircuitCache
//   and one table of grounding templates across calls, so probing the
//   same query at many probability assignments compiles each grounded
//   lineage once and pays a linear circuit pass afterwards; surfaces
//   compile/hit counters.
// * CompiledOracle: the Pr(Q) oracle of the hardness reductions, served by
//   one GfomcSession.
// * DemonstrateHardness(Q, Φ): constructive witness of #P-hardness for
//   unsafe Type I-I queries — simplifies Q to a final query (Def. 2.8) if
//   needed, then runs the Cook reduction of §3 to count Φ's models through
//   a Pr(Q) oracle (a typed refusal, not a count, for length-0 queries).

#ifndef GMC_CORE_DICHOTOMY_H_
#define GMC_CORE_DICHOTOMY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "approx/karp_luby.h"
#include "compile/circuit_cache.h"
#include "compile/gmc_options.h"
#include "compile/nnf_walk.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/bipartite.h"
#include "logic/query.h"
#include "prob/tid.h"
#include "util/relaxed_counter.h"

namespace gmc {

struct DichotomyReport {
  BipartiteAnalysis analysis;
  bool is_final = false;
  // Human-readable verdict, e.g.
  // "unsafe (length 1, type I-I): GFOMC is #P-hard; final".
  std::string summary;
};

DichotomyReport Classify(const Query& query);

struct GfomcResult {
  Rational probability;
  // True iff the query is safe, so a PTIME lifted plan exists (a small
  // GFOMC instance may still be answered by a circuit pass); false means
  // the lineage was compiled (query unsafe — expected exponential).
  bool used_lifted = false;
};

GfomcResult Gfomc(const Query& query, const Tid& tid);

struct GmcAnswer;
struct GmcStatus;

/// Checked one-shot form of Gfomc: validates inputs, applies `options`, and
/// routes through a throwaway GfomcSession (see
/// GfomcSession::EvaluateAnswer). Repeated-query traffic should hold a
/// session instead — the one-shot form recompiles everything every call.
GmcStatus GfomcChecked(const Query& query, const Tid& tid,
                       const GmcOptions& options, GmcAnswer* answer);

/// Which evaluation tier produced an answer — the three-way routing's
/// receipt. The first two are exact; the last two are the certified
/// anytime tiers (see docs/ANYTIME.md).
enum class AnswerTier : uint8_t {
  kLifted = 0,         ///< safe query, lifted PTIME plan (exact)
  kCompiledExact,      ///< d-DNNF circuit pass (exact)
  kCertifiedInterval,  ///< directed-rounding enclosure [lo, hi]
  kSampled,            ///< Karp–Luby (ε, δ) estimate
};
/// Stable lowercase name ("lifted" / "compiled" / "interval" / "sampled")
/// — the wire vocabulary of EVAL_APPROX replies.
const char* AnswerTierName(AnswerTier tier);

/// One routed answer: exactly one of the three payloads is meaningful,
/// selected by `tier`.
struct GmcAnswer {
  AnswerTier tier = AnswerTier::kCompiledExact;
  /// Exact tiers (kLifted / kCompiledExact).
  Rational exact;
  /// kCertifiedInterval: a guaranteed enclosure of the exact probability.
  ProbInterval interval;
  /// kSampled: with probability >= 1 - delta, |estimate - exact| <=
  /// epsilon. `epsilon` is the certificate actually achieved (it exceeds
  /// the configured target when max_samples bound — the anytime contract).
  double estimate = 0.0;
  double epsilon = 0.0;
  double delta = 0.0;
  uint64_t samples = 0;

  bool IsExact() const { return tier <= AnswerTier::kCompiledExact; }
  /// A point estimate regardless of tier: the exact value, the interval
  /// midpoint, or the sampled estimate.
  double PointEstimate() const;
};

/// Typed error surface of the checked session entry points — the
/// replacement for abort-on-bad-input at the public boundary. The
/// pre-validation mirrors (and is shared with) gmc_serve's wire checks:
/// untrusted inputs must never reach a GMC_CHECK abort.
enum class GmcStatusCode : uint8_t {
  kOk = 0,
  kInvalidWeight,    ///< a tuple probability outside [0, 1]
  /// epsilon/delta outside (0, 1), or a sampled instance that would draw
  /// more than kMaxSamplesPerInstance samples
  kInvalidOptions,
  kBudgetExhausted,  ///< RoutingMode::kExact refused an over-budget instance
  /// The request's end-to-end deadline (GmcOptions::deadline_ms) fired
  /// before an answer was produced. Distinct from kBudgetExhausted: a
  /// deadline says nothing about the instance's hardness, so nothing is
  /// memoized and an unhurried retry is free to succeed. The sampled tier
  /// never reports this — a deadline there degrades to the achieved-ε
  /// anytime certificate instead (see approx/karp_luby.h).
  kDeadlineExceeded,
};
struct GmcStatus {
  GmcStatusCode code = GmcStatusCode::kOk;
  std::string message;  ///< empty on success, human-readable otherwise

  bool ok() const { return code == GmcStatusCode::kOk; }
  static GmcStatus Ok() { return GmcStatus{}; }
  static GmcStatus Error(GmcStatusCode code, std::string message) {
    return GmcStatus{code, std::move(message)};
  }
};

/// Every probability of `tid` (the default and each explicit tuple) is in
/// [0, 1]. This is the session-level mirror of serve.cc's parse-time
/// validation; Rational's own invariants already exclude zero
/// denominators.
GmcStatus ValidateTid(const Tid& tid);

/// The pure tier-selection rules, factored out of the session so the
/// routing pins are testable without evaluators: given the configured mode
/// and whether the budgeted compile probe produced a circuit, which tier
/// answers an UNSAFE instance? (Safe queries are answered exactly, by the
/// lifted plan or under an exact, unbudgeted policy; safety is PTIME
/// exact, so there is nothing to trade.)
class RoutingPolicy {
 public:
  explicit RoutingPolicy(const GmcOptions& options) : options_(options) {}

  const CompileBudget& budget() const { return options_.compile_budget; }
  /// kSample skips the compile probe entirely.
  bool WantsCompileProbe() const {
    return options_.routing_mode != RoutingMode::kSample;
  }
  /// The tier when the probe produced a circuit: kCompiledExact, except
  /// kInterval mode answers with the certified enclosure.
  AnswerTier TierForCompiled() const {
    return options_.routing_mode == RoutingMode::kInterval
               ? AnswerTier::kCertifiedInterval
               : AnswerTier::kCompiledExact;
  }
  /// When the probe exhausts its budget (or is skipped), the anytime
  /// modes answer with the sampler. kExact has no anytime fallback: a
  /// finite budget refuses with kBudgetExhausted (never an unbounded
  /// algorithm behind a bounded-work request), and an unlimited one never
  /// exhausts.
  bool ExhaustedIsError() const {
    return options_.routing_mode == RoutingMode::kExact &&
           !options_.compile_budget.Unlimited();
  }

 private:
  GmcOptions options_;
};

// Stateful GFOMC evaluation for repeated-query traffic. One-shot Gfomc()
// rebuilds its session — and loses its compiled circuits — on every call;
// a session keeps ONE CircuitCache and one table of grounding templates
// alive for every grounded instance, safe GFOMC calls and unsafe calls
// alike, so a workload that probes one query at many probability
// assignments grounds each support pattern once and compiles each distinct
// grounded lineage once.
//
// The per-call EvaluateAnswers is the one evaluation core; EvaluateMany and
// the configured-options EvaluateAnswers are adapters over it. Instances
// answered from a circuit are grouped by structure: one batched pass per
// group. A safe call that the compile gate turns away (a constant query, a
// non-GFOMC instance, or a lineage over 96 variables) is answered whole by
// the lifted plan (LiftedProbability, safe/safe_eval.h).
//
// Thread safety: evaluation calls serialize on a session mutex (the
// grounding templates are shared scratch); throughput within a call comes
// from the column-parallel passes underneath (GmcOptions::num_threads),
// and the CircuitCache is itself striped-lock thread-safe. stats() takes
// no lock, so a monitor never waits behind an evaluation in flight.
class GfomcSession {
 public:
  // Monitoring counters. The session's own are updated in place; stats()
  // copies them together with its caches' counters.
  struct Stats {
    RelaxedCounter queries;
    RelaxedCounter safe_lifted;      // safe, answered by the PTIME plan
    RelaxedCounter safe_compiled;    // safe GFOMC instances, circuit pass
    RelaxedCounter unsafe_compiled;  // unsafe, answered by a circuit pass
    // Anytime-tier traffic (EvaluateMany is always exact): answers served
    // as certified intervals, answers served by the (ε, δ) sampler,
    // compile probes that hit their budget, and instances rejected by
    // validation.
    RelaxedCounter anytime_interval;
    RelaxedCounter anytime_sampled;
    RelaxedCounter budget_exhausted;
    RelaxedCounter invalid_requests;
    // Instances that returned kDeadlineExceeded (the call's deadline_ms
    // fired before an exact or certified answer existed).
    RelaxedCounter deadline_exceeded;
    // Checked calls in which the sampler answered at least one instance —
    // with serve's coalescing, N same-round sampled requests surface here
    // as ONE batch (vs anytime_sampled counting N).
    RelaxedCounter sampler_batches;
    // Grounded instances, safe or unsafe, whose lineage a grounding
    // template built (a repeated query, domain and support pattern), and
    // those that ran Ground (a first sight, a sight after a table reset, a
    // pattern too large for a template, or a fired lineage.template fault
    // point). A safe call grounds only when its query is not constant and
    // every instance is GFOMC.
    RelaxedCounter template_hits;
    RelaxedCounter template_misses;
    // The session's CircuitCache: compiles vs hits (the repeated-query
    // win), persistent-store traffic, and memory governance.
    CircuitCache::Stats cache;
  };

  GfomcResult Evaluate(const Query& query, const Tid& tid);
  // Legacy batched form: the core under kExact with an unlimited compile
  // budget and no deadline, whatever the configured routing fields — always
  // EXACT, bit-identical to every pre-anytime release. Inputs are trusted
  // (GMC_CHECK aborts on bad weights). used_lifted means "the query is
  // safe". Results in input order.
  std::vector<GfomcResult> EvaluateMany(const Query& query,
                                        const std::vector<Tid>& tids);

  // The core: checked, three-way-routed evaluation with per-call routing
  // fields — only routing_mode, compile_budget, epsilon, delta and
  // deadline_ms are read from `request`; the rest stays session
  // configuration. Each instance is validated (a weight outside [0, 1] or
  // an (ε, δ) outside (0, 1) is a typed status, never an abort) and routed:
  // safe → lifted or compiled exact, whatever the request; unsafe →
  // budgeted compile probe (exact pass or certified interval on success,
  // Karp–Luby (ε, δ) estimate once the budget is exhausted), per
  // RoutingPolicy and docs/ANYTIME.md.
  // Returns one status per tid and resizes *answers to match; answers[i]
  // is meaningful iff status i is OK, so a refused or timed-out instance
  // never costs the others their answers. One deadline covers the call.
  std::vector<GmcStatus> EvaluateAnswers(const Query& query,
                                         const std::vector<Tid>& tids,
                                         const GmcOptions& request,
                                         std::vector<GmcAnswer>* answers);
  // The core under the configured options, all or nothing: on failure the
  // first failing instance's status, its message prefixed "tid <i>: ",
  // with *answers untouched; on success one GmcAnswer per tid, in order.
  GmcStatus EvaluateAnswers(const Query& query, const std::vector<Tid>& tids,
                            std::vector<GmcAnswer>* answers);
  GmcStatus EvaluateAnswer(const Query& query, const Tid& tid,
                           GmcAnswer* answer);

  // One-call configuration (see compile/gmc_options.h): applies the
  // cache-level fields to the session's CircuitCache and keeps the rest
  // for evaluation. New sessions start from GmcOptions::FromEnv().
  void Configure(const GmcOptions& options);
  GmcOptions options() const;

  // Shorthand for Configure with store_directory and store_write_through
  // replaced: read-through on every compile miss, write-through (when on)
  // for every fresh compile. Results are bit-identical with or without a
  // store.
  void set_store_directory(const std::string& directory,
                           bool write_through = true);
  // Flushes every circuit the cache holds into `directory` (the graceful-
  // shutdown hook of gmc_serve and the replica-priming recipe of
  // docs/SERVING.md). Returns the number persisted; first I/O failure
  // lands in *error, the rest still save.
  size_t SaveCircuitsTo(const std::string& directory,
                        std::string* error = nullptr) {
    return circuits_.SaveTo(directory, error);
  }
  // Bulk warm start: loads every valid persisted circuit into the cache
  // (safe to run while serving). Returns the number of circuits inserted.
  size_t WarmCircuitsFrom(const std::string& directory) {
    return circuits_.WarmFrom(directory);
  }

  // A copy of the counters above: one relaxed load per field, no lock
  // (a snapshot, not a transaction — fields are read independently).
  Stats stats() const;

 private:
  // Routes one satisfiable grounded lineage (mu_ held) whose instance has
  // no bound circuit. `sampler` carries the call's (ε, δ), sample cap,
  // workers, and deadline token, which the compile probe polls too. OK
  // with *circuit set: the structure's group pass answers the instance
  // from that pinned circuit, and *entry names the cache entry holding it
  // (empty when none does), for the template to bind. Non-OK only when
  // kExact refuses a finite, exhausted budget, or the deadline fires
  // during the probe (the sampled tier degrades to its achieved-ε report
  // instead).
  GmcStatus Route(const Lineage& lineage, const RoutingPolicy& policy,
                  KarpLubyParams sampler, GmcAnswer* answer,
                  std::shared_ptr<const NnfCircuit>* circuit,
                  CircuitCache::EntryHandle* entry);
  GmcStatus DeadlineExceeded();

  mutable std::mutex mu_;  // serializes evaluation and Configure
  CircuitCache circuits_;  // the one cache, for safe and unsafe calls
  // Per query: its verdict, analysed once, and the grounding templates of
  // every grounded call (bounded by GroundingTemplates::kMaxBytes, outside
  // the cache's resident_bytes).
  GroundingTemplates templates_;
  // The session's own counters; `cache` stays zero here, since stats()
  // fills it from circuits_.
  Stats counters_;
  // Instances a bound template answered (mu_ held). Stats counts them as
  // the cache hits they also are, so only tests read this, through
  // GfomcSessionTestPeer (tests/core_test.cc).
  uint64_t bound_hits_ = 0;
  friend class GfomcSessionTestPeer;
  // The options last Configured; the cache-level fields are mirrored in
  // circuits_. Starts from FromEnv(), matching the cache's constructor.
  GmcOptions options_ = GmcOptions::FromEnv();
};

// The hardness reductions' Pr(Q) oracle on the serving path: Probability
// is GfomcSession::Evaluate and ProbabilityBatch is EvaluateMany, so a
// reduction's TIDs take the session's grounding templates, compile probe,
// one batched pass per circuit and dyadic width routing. Each TID counts
// as one oracle call. Configure the session to set its worker count;
// results are bit-identical at every setting.
class CompiledOracle : public Oracle {
 public:
  Rational Probability(const Query& query, const Tid& tid) override;
  std::vector<Rational> ProbabilityBatch(const Query& query,
                                         const std::vector<Tid>& tids) override;
  std::string name() const override { return "d-dnnf"; }

  GfomcSession& session() { return session_; }

 private:
  GfomcSession session_;
};

// Runs #P2CNF ≤P FOMC(Q) for an unsafe Type I-I query `query` (it is first
// simplified to a final query if needed, per Lemma 2.7) and returns the
// reduction's result on `phi`; aborts if `query` is safe or not Type I-I.
// When the final query fails design conditions (22)-(24) — today every
// unsafe query of length 0, H0 included — the result is a typed refusal:
// status kDesignConditionsFailed and no count (see Type1Status).
Type1ReductionResult DemonstrateHardness(const Query& query,
                                         const P2Cnf& phi,
                                         Oracle* oracle = nullptr);

}  // namespace gmc

#endif  // GMC_CORE_DICHOTOMY_H_
