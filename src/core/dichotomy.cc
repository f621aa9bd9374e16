#include "core/dichotomy.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "approx/anytime_defaults.h"
#include "approx/karp_luby.h"
#include "lineage/grounder.h"
#include "safe/safe_eval.h"
#include "util/check.h"

namespace gmc {

namespace {

// The compile gate of safe calls. Safety guarantees a PTIME lifted plan,
// not a small circuit: compiling a safe query's lineage is worst-case
// exponential too. The circuit cache wins for the small, heavily repeated
// lineages of GFOMC instances (grounding folds every certain tuple away),
// so a safe call takes the compiled route only when its query is not
// constant, every instance is GFOMC, and every lineage has at most this
// many variables; otherwise the lifted plan answers the whole call.
constexpr size_t kMaxCompiledLineageVars = 96;

// Exact whatever the configured routing fields: an unlimited budget
// compiles every lineage instead of refusing, and no deadline interrupts.
// EvaluateMany's legacy contract, and the request safe calls compile
// under.
const GmcOptions& ExactRequest() {
  static const GmcOptions exact = [] {
    GmcOptions options;
    options.routing_mode = RoutingMode::kExact;
    options.compile_budget = CompileBudget{};
    return options;
  }();
  return exact;
}

// One instance of a routed call, as grounding left it for the routing loop.
struct Grounded {
  // The cache entry of the circuit its template is bound to; empty when
  // the instance carries a built lineage instead.
  CircuitCache::EntryHandle bound;
  GroundingTemplates::TemplateRef ref;  // its template, to bind after a probe
  size_t num_vars = 0;                  // its weight row's width
  size_t weights_at = 0;  // a bound row's first weight in bound_weights
};

}  // namespace

DichotomyReport Classify(const Query& query) {
  DichotomyReport report;
  report.analysis = AnalyzeBipartite(query);
  if (report.analysis.safe) {
    report.summary = "safe: PQE/GFOMC computable in PTIME (lifted)";
    return report;
  }
  report.is_final = IsFinal(query);
  report.summary = "unsafe (length " +
                   std::to_string(report.analysis.length) + ", type " +
                   PartTypeName(report.analysis.left_type) + "-" +
                   PartTypeName(report.analysis.right_type) +
                   "): GFOMC is #P-hard (Theorem 2.2)";
  if (report.is_final) report.summary += "; final (Def. 2.8)";
  return report;
}

GfomcResult Gfomc(const Query& query, const Tid& tid) {
  GfomcSession session;
  return session.Evaluate(query, tid);
}

const char* AnswerTierName(AnswerTier tier) {
  switch (tier) {
    case AnswerTier::kLifted:
      return "lifted";
    case AnswerTier::kCompiledExact:
      return "compiled";
    case AnswerTier::kCertifiedInterval:
      return "interval";
    case AnswerTier::kSampled:
      return "sampled";
  }
  return "unknown";
}

double GmcAnswer::PointEstimate() const {
  switch (tier) {
    case AnswerTier::kCertifiedInterval:
      return interval.midpoint();
    case AnswerTier::kSampled:
      return estimate;
    default:
      return exact.ToDouble();
  }
}

GmcStatus ValidateTid(const Tid& tid) {
  if (!tid.default_probability().IsProbability()) {
    return GmcStatus::Error(GmcStatusCode::kInvalidWeight,
                            "default probability outside [0, 1]");
  }
  for (const auto& [key, probability] : tid.explicit_tuples()) {
    if (!probability.IsProbability()) {
      return GmcStatus::Error(
          GmcStatusCode::kInvalidWeight,
          "tuple probability outside [0, 1] (symbol " +
              std::to_string(key.symbol) + ", constants " +
              std::to_string(key.left) + "," + std::to_string(key.right) +
              ")");
    }
  }
  return GmcStatus::Ok();
}

GmcStatus GfomcChecked(const Query& query, const Tid& tid,
                       const GmcOptions& options, GmcAnswer* answer) {
  GfomcSession session;
  session.Configure(options);
  return session.EvaluateAnswer(query, tid, answer);
}

GfomcResult GfomcSession::Evaluate(const Query& query, const Tid& tid) {
  return std::move(EvaluateMany(query, {tid})[0]);
}

std::vector<GfomcResult> GfomcSession::EvaluateMany(
    const Query& query, const std::vector<Tid>& tids) {
  std::vector<GmcAnswer> answers;
  const std::vector<GmcStatus> statuses =
      EvaluateAnswers(query, tids, ExactRequest(), &answers);
  bool safe = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    safe = templates_.IsSafe(query);  // the verdict the call used
  }
  std::vector<GfomcResult> results(tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    // Trusted input: only an invalid weight can fail here.
    GMC_CHECK_MSG(statuses[i].ok(), statuses[i].message.c_str());
    results[i].probability = std::move(answers[i].exact);
    results[i].used_lifted = safe;
  }
  return results;
}

void GfomcSession::Configure(const GmcOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  circuits_.Configure(options);
}

GmcOptions GfomcSession::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void GfomcSession::set_store_directory(const std::string& directory,
                                       bool write_through) {
  GmcOptions next = options();
  next.store_directory = directory;
  next.store_write_through = write_through;
  Configure(next);
}

GmcStatus GfomcSession::EvaluateAnswer(const Query& query, const Tid& tid,
                                       GmcAnswer* answer) {
  std::vector<GmcAnswer> answers;
  GmcStatus status = EvaluateAnswers(query, {tid}, &answers);
  if (status.ok()) *answer = std::move(answers[0]);
  return status;
}

GmcStatus GfomcSession::EvaluateAnswers(const Query& query,
                                        const std::vector<Tid>& tids,
                                        std::vector<GmcAnswer>* answers) {
  std::vector<GmcAnswer> routed;
  std::vector<GmcStatus> statuses =
      EvaluateAnswers(query, tids, options(), &routed);
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (!statuses[i].ok()) {
      statuses[i].message =
          "tid " + std::to_string(i) + ": " + statuses[i].message;
      return std::move(statuses[i]);
    }
  }
  *answers = std::move(routed);
  return GmcStatus::Ok();
}

std::vector<GmcStatus> GfomcSession::EvaluateAnswers(
    const Query& query, const std::vector<Tid>& tids,
    const GmcOptions& request, std::vector<GmcAnswer>* answers) {
  std::lock_guard<std::mutex> lock(mu_);
  answers->assign(tids.size(), GmcAnswer{});
  std::vector<GmcStatus> statuses(tids.size());
  // Validation: every failure mode of the evaluators' GMC_CHECKs is caught
  // here and typed, so untrusted inputs never reach an abort — only the
  // `live` (valid) instances go on.
  const bool options_valid = request.epsilon > 0.0 && request.epsilon < 1.0 &&
                             request.delta > 0.0 && request.delta < 1.0;
  std::vector<size_t> live;
  for (size_t i = 0; i < tids.size(); ++i) {
    statuses[i] = options_valid
                      ? ValidateTid(tids[i])
                      : GmcStatus::Error(GmcStatusCode::kInvalidOptions,
                                         "epsilon and delta must be in (0, 1)");
    if (statuses[i].ok()) {
      live.push_back(i);
    } else {
      ++counters_.invalid_requests;
    }
  }
  counters_.queries += live.size();

  // Safe calls: safety is PTIME exact, so the anytime tiers never apply —
  // there is nothing to trade away (and the lifted plan is polynomial, so
  // the deadline has nothing to interrupt). The verdict is analysed once
  // per session, in the query's template record (a constant query is
  // safe). A safe call that passes the compile gate takes the route below
  // under the exact, unbudgeted request; any other is answered by the
  // lifted plan.
  const bool safe = templates_.IsSafe(query);
  bool routed =
      !safe || (!query.IsTrue() && !query.IsFalse() &&
                std::all_of(live.begin(), live.end(), [&](size_t i) {
                  return tids[i].IsGfomcInstance();
                }));
  const GmcOptions& routing = safe ? ExactRequest() : request;
  const RoutingPolicy policy(routing);
  // Ground each instance, from the query's template when its domain and
  // support pattern repeat. A repeat whose template is bound to a resident
  // circuit builds no lineage when the route probes for a circuit: its
  // weights are read straight from the Tid, in the template's variable
  // order, into `bound_weights`.
  std::vector<Lineage> lineages(tids.size());
  std::vector<Grounded> grounded(tids.size());
  std::vector<const Rational*> bound_weights;
  if (routed) {
    for (const size_t i : live) {
      Grounded& g = grounded[i];
      g.weights_at = bound_weights.size();
      const GroundingTemplates::Sight sight =
          templates_.Find(query, tids[i], policy.WantsCompileProbe(),
                          &lineages[i], &bound_weights);
      ++(sight.hit ? counters_.template_hits : counters_.template_misses);
      g.ref = sight.ref;
      if (sight.binding != nullptr) {
        g.bound = *static_cast<const CircuitCache::EntryHandle*>(
            sight.binding->get());
        g.num_vars = static_cast<size_t>(sight.num_vars);
      } else {
        g.num_vars = std::max(lineages[i].probabilities.size(),
                              static_cast<size_t>(lineages[i].cnf.num_vars));
      }
      if (safe && g.num_vars > kMaxCompiledLineageVars) routed = false;
    }
  }
  if (!routed) {
    for (const size_t i : live) {
      std::optional<Rational> value = LiftedProbability(query, tids[i]);
      GMC_CHECK(value.has_value());  // the query is safe
      (*answers)[i].tier = AnswerTier::kLifted;
      (*answers)[i].exact = std::move(*value);
    }
    counters_.safe_lifted += live.size();
    return statuses;
  }

  // Route each instance through the policy. One deadline token covers the
  // call — compile probes, circuit passes, and sampling all poll it; 0 ms
  // means none, and every poll site reduces to one pointer comparison. A
  // call with any sampled instance counts once in sampler_batches.
  const CancelToken deadline(routing.deadline_ms);
  KarpLubyParams sampler;
  sampler.epsilon = routing.epsilon;
  sampler.delta = routing.delta;
  sampler.max_samples = options_.max_samples;
  // 0 defers to the process default inside the sampler; bit-identical at
  // every worker count.
  sampler.num_threads = options_.num_threads;
  sampler.cancel = routing.deadline_ms > 0 ? &deadline : nullptr;
  RelaxedCounter& exact_answers =
      safe ? counters_.safe_compiled : counters_.unsafe_compiled;
  // Instances answered from a circuit, grouped by the circuit the probe
  // pinned (one per structure), in first-seen order.
  std::vector<std::pair<std::shared_ptr<const NnfCircuit>, std::vector<size_t>>>
      groups;
  std::unordered_map<const NnfCircuit*, size_t> group_of;
  const uint64_t sampled_before = counters_.anytime_sampled;
  for (const size_t i : live) {
    Grounded& g = grounded[i];
    GmcAnswer& answer = (*answers)[i];
    if (g.bound.empty() &&
        (lineages[i].is_false || lineages[i].cnf.HasEmptyClause())) {
      // Some ground clause is unsatisfiable: exactly 0, every mode.
      answer.tier = AnswerTier::kCompiledExact;
      answer.exact = Rational::Zero();
      ++exact_answers;
      continue;
    }
    if (sampler.cancel != nullptr && sampler.cancel->Poll()) {
      statuses[i] = DeadlineExceeded();
      continue;
    }
    std::shared_ptr<const NnfCircuit> circuit;
    if (!g.bound.empty()) {
      // A bound hit re-pins the circuit its template's Cnf resolved to,
      // counted as the probe's hit. Builds with assertions check it against
      // the Cnf a probe would look up: Ground's, which the template equals.
#ifdef NDEBUG
      circuit = circuits_.Repin(g.bound);
#else
      const Lineage expect = gmc::Ground(query, tids[i]);
      circuit = circuits_.Repin(g.bound, &expect.cnf);
#endif
      if (circuit != nullptr) {
        answer.tier = policy.TierForCompiled();
        ++bound_hits_;
      } else {
        // The cache dropped the entry: take the unbound route, and rebind.
        g.bound = CircuitCache::EntryHandle();
        lineages[i] = gmc::Ground(query, tids[i]);
      }
    }
    if (circuit == nullptr) {
      CircuitCache::EntryHandle entry;
      statuses[i] =
          Route(lineages[i], policy, sampler, &answer, &circuit, &entry);
      if (!entry.empty()) {
        templates_.Bind(g.ref,
                        std::make_shared<const CircuitCache::EntryHandle>(entry));
      }
      if (circuit == nullptr) continue;
    }
    const auto [it, fresh] = group_of.try_emplace(circuit.get(), groups.size());
    if (fresh) groups.emplace_back(std::move(circuit), std::vector<size_t>());
    groups[it->second].second.push_back(i);
  }
  if (counters_.anytime_sampled > sampled_before) ++counters_.sampler_batches;

  // One pass per group: numeric routing for the exact tier, one interval
  // pass for the certified tier. Columns are independent, so a grouped
  // answer is bit-identical to the same instance evaluated alone. A
  // member's row is its lineage's weights, or its bound weights; the batch
  // is as wide as the widest member (clause-equal lineages can differ in
  // orphaned variables, which the circuit never reads).
  const bool interval =
      policy.TierForCompiled() == AnswerTier::kCertifiedInterval;
  for (const auto& [circuit, members] : groups) {
    size_t width = 0;
    for (const size_t i : members) width = std::max(width, grounded[i].num_vars);
    WeightMatrix weights(static_cast<int>(members.size()),
                         static_cast<int>(width));
    for (size_t m = 0; m < members.size(); ++m) {
      const Grounded& g = grounded[members[m]];
      const std::vector<Rational>& p = lineages[members[m]].probabilities;
      const size_t row_width = g.bound.empty() ? p.size() : g.num_vars;
      for (size_t v = 0; v < row_width; ++v) {
        weights.MutableColumn(static_cast<int>(v))[m] =
            g.bound.empty() ? p[v] : *bound_weights[g.weights_at + v];
      }
    }
    std::vector<Rational> exact;
    std::vector<ProbInterval> enclosures;
    if (interval) {
      enclosures = circuit->EvaluateBatchInterval(weights, options_.num_threads,
                                                  sampler.cancel);
    } else {
      exact = circuits_.EvaluatePinned(*circuit, weights, sampler.cancel);
    }
    const bool expired = deadline.cancelled();
    for (size_t m = 0; m < members.size(); ++m) {
      GmcAnswer& answer = (*answers)[members[m]];
      if (expired) {
        statuses[members[m]] = DeadlineExceeded();
      } else if (interval) {
        answer.interval = enclosures[m];
        ++counters_.anytime_interval;
      } else {
        answer.exact = std::move(exact[m]);
        ++exact_answers;
      }
    }
  }
  return statuses;
}

GmcStatus GfomcSession::Route(const Lineage& lineage,
                              const RoutingPolicy& policy,
                              KarpLubyParams sampler, GmcAnswer* answer,
                              std::shared_ptr<const NnfCircuit>* circuit,
                              CircuitCache::EntryHandle* entry) {
  const CancelToken* cancel = sampler.cancel;
  if (policy.WantsCompileProbe()) {
    // Budgeted compile probe (kSample skips it; an unlimited budget always
    // compiles, whatever the lineage's size — the budget, not a variable
    // count, bounds compile work). The shared_ptr pins the circuit across
    // any concurrent eviction until the group pass.
    *circuit =
        circuits_.TryGetShared(lineage.cnf, policy.budget(), cancel, entry);
    if (*circuit != nullptr) {
      answer->tier = policy.TierForCompiled();
      return GmcStatus::Ok();
    }
    // A null probe is ambiguous until the token is consulted: a fired
    // deadline is the typed error (nothing memoized, nothing counted as
    // exhausted), budget exhaustion falls through to the anytime tiers.
    if (cancel != nullptr && cancel->cancelled()) return DeadlineExceeded();
    ++counters_.budget_exhausted;
    if (policy.ExhaustedIsError()) {
      return GmcStatus::Error(
          GmcStatusCode::kBudgetExhausted,
          "compile budget exhausted and RoutingMode::kExact has no anytime "
          "fallback (raise the budget or switch to kAuto)");
    }
  }
  // (ε, δ) sampler — the anytime floor. An instance that samples (two or
  // more clauses; fewer are exact) is refused before the plan build when
  // its sample count passes the per-instance limit.
  const size_t m = lineage.cnf.clauses.size();
  uint64_t samples = KarpLubySampleTarget(m, sampler.epsilon, sampler.delta);
  if (sampler.max_samples > 0) samples = std::min(samples, sampler.max_samples);
  if (m >= 2 && samples > kMaxSamplesPerInstance) {
    ++counters_.invalid_requests;
    return GmcStatus::Error(GmcStatusCode::kInvalidOptions,
                            "sampling would draw " + std::to_string(samples) +
                                " samples, over the per-instance limit 2^32");
  }
  // The per-instance seed mixes the session seed with the lineage
  // structure, so fixed-seed runs reproduce per instance regardless of
  // batch order. A deadline firing mid-sampling degrades to the achieved-ε
  // anytime report, never an error — samples already drawn are not thrown
  // away (see approx/karp_luby.h).
  sampler.seed =
      approx_internal::SplitMix64(options_.sample_seed ^ lineage.cnf.Hash64())
          .Next();
  // The one-shot form builds this instance's plan and drops it after the
  // estimate, so the session keeps no sampler state (lineage.is_false was
  // handled by the caller).
  const KarpLubyResult sampled =
      KarpLubyEstimate(lineage.cnf, lineage.probabilities, sampler);
  answer->tier = AnswerTier::kSampled;
  answer->estimate = sampled.estimate;
  answer->epsilon = sampled.epsilon;
  answer->delta = sampled.delta;
  answer->samples = sampled.samples;
  ++counters_.anytime_sampled;
  return GmcStatus::Ok();
}

GmcStatus GfomcSession::DeadlineExceeded() {
  ++counters_.deadline_exceeded;
  return GmcStatus::Error(
      GmcStatusCode::kDeadlineExceeded,
      "deadline exceeded before an answer was produced (nothing is "
      "memoized; retrying without a deadline may succeed)");
}

GfomcSession::Stats GfomcSession::stats() const {
  Stats out = counters_;
  out.cache = circuits_.stats();
  return out;
}

Rational CompiledOracle::Probability(const Query& query, const Tid& tid) {
  ++calls_;
  return session_.Evaluate(query, tid).probability;
}

std::vector<Rational> CompiledOracle::ProbabilityBatch(
    const Query& query, const std::vector<Tid>& tids) {
  calls_ += static_cast<int>(tids.size());
  std::vector<Rational> results;
  results.reserve(tids.size());
  for (GfomcResult& result : session_.EvaluateMany(query, tids)) {
    results.push_back(std::move(result.probability));
  }
  return results;
}

Type1ReductionResult DemonstrateHardness(const Query& query,
                                         const P2Cnf& phi, Oracle* oracle) {
  BipartiteAnalysis analysis = AnalyzeBipartite(query);
  GMC_CHECK_MSG(!analysis.safe,
                "safe queries are PTIME; there is no hardness to show");
  GMC_CHECK_MSG(analysis.left_type == PartType::kTypeI &&
                    analysis.right_type == PartType::kTypeI,
                "the executable reduction covers Type I-I queries");
  Query target = IsFinal(query) ? query : MakeFinal(query);
  Type1Reduction reduction(target);
  return reduction.Run(phi, oracle);
}

}  // namespace gmc
