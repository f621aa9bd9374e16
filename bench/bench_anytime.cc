// Anytime-tier benchmarks: the certified interval walk and the Karp–Luby
// sampler against the exact passes they bound, on the gadget corpus.
//
// Headline numbers: the directed-rounding interval pass costs about 3×
// a plain double walk of the same arena at K = 64 (orders of magnitude
// under the exact BigInt pass on non-dyadic weights) while still carrying
// a guarantee; the sampler's cost is linear in its (ε, δ)-derived sample
// count, independent of circuit size. BM_RouterOverBudget times the full
// degraded path through GfomcSession — probe, budget exhaustion, sampler —
// the latency a serving client sees when an instance blows its compile
// budget.
//
// BM_KarpLubyPlanBuild times the sampler's per-request setup on the shape
// the end-to-end certified_sampled workload serves: C9 3×3 with its own
// k/7 or k/11 weight on every tuple, which the plan builds in 64-bit
// integers. BM_KarpLubyServedShape times the estimate that follows on
// that plan, at the workload's ε, δ and 2048-sample cap, per sample.
//
// BM_KarpLubyParallel scales the chunk-parallel sampler across worker
// counts on one plan (substreams are indexed by sample chunk, so every
// thread count draws the SAME samples — the bench refuses to report a
// number that isn't bit-identical to serial), and BM_SessionSampledBatch
// times the batched serving shape: K same-structure sampled requests
// through one EvaluateAnswers call, each instance building its own plan.
//
// BM_AnytimeCrossCheck fails the run loudly if any certified answer is
// wrong: an interval that does not enclose the exact probability (checked
// with exact rational arithmetic), interval results that differ across
// thread counts, a fixed-seed estimate outside its ε certificate — or not
// bit-identical between the serial and 8-worker sampler — a sampler plan
// whose integer build differs from its Rational build, or an over-budget
// instance that fails to come back certified. It also fails
// when the interval pass costs more than 5× the double walk (best of 20
// interleaved single-thread passes each, K = 64, C9 3×3). This is the
// acceptance bar of the anytime tier, enforced on every CI run.
//
// The double walk is the yardstick of that gate and of BM_DoubleBatch. It
// answers no question the library is asked (the library's answers are
// exact or certified), so it lives here, not in src/: DoubleWalk below.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "approx/karp_luby.h"
#include "compile/compiler.h"
#include "compile/gmc_options.h"
#include "compile/nnf.h"
#include "compile/nnf_walk.h"
#include "core/dichotomy.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "util/bigint.h"
#include "util/rational.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

gmc::Query ExampleC9() {
  return gmc::ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// Unsafe gadget lineages with a NON-dyadic default weight, so the exact
// batch pass pays full BigInt cost — the workload the interval tier is for.
gmc::Lineage H1Lineage(int domain) {
  gmc::Query q = H1();
  gmc::Tid tid(q.vocab_ptr(), domain, domain, gmc::Rational(3, 7));
  return gmc::Ground(q, tid);
}

gmc::Lineage Type2Lineage(int domain) {
  gmc::Query q = ExampleC9();
  gmc::Tid tid(q.vocab_ptr(), domain, domain, gmc::Rational(3, 7));
  return gmc::Ground(q, tid);
}

// C9 3×3 with per-tuple weights cycling through k/7 and k/11 in (symbol,
// u, v) order: the end-to-end certified_sampled shape.
gmc::Lineage CyclingC9Lineage() {
  const gmc::Rational weights[] = {
      gmc::Rational(1, 7), gmc::Rational(2, 11), gmc::Rational(3, 7),
      gmc::Rational(5, 11), gmc::Rational(6, 7), gmc::Rational(9, 11),
      gmc::Rational(2, 7), gmc::Rational(4, 11), gmc::Rational(5, 7),
      gmc::Rational(10, 11)};
  gmc::Query q = ExampleC9();
  gmc::Tid tid(q.vocab_ptr(), 3, 3, gmc::Rational::Half());
  const gmc::Vocabulary& vocab = q.vocab();
  size_t next = 0;
  auto weight = [&] { return weights[next++ % std::size(weights)]; };
  for (gmc::SymbolId s = 0; s < vocab.size(); ++s) {
    for (int u = 0; u < 3; ++u) {
      switch (vocab.kind(s)) {
        case gmc::SymbolKind::kUnaryLeft:
          tid.SetUnaryLeft(s, u, weight());
          break;
        case gmc::SymbolKind::kUnaryRight:
          tid.SetUnaryRight(s, u, weight());
          break;
        case gmc::SymbolKind::kBinary:
          for (int v = 0; v < 3; ++v) tid.SetBinary(s, u, v, weight());
          break;
      }
    }
  }
  return gmc::Ground(q, tid);
}

// K weight columns with varied non-dyadic entries (denominator 11), so
// neither the dyadic fast path nor weight-sharing shortcuts kick in.
gmc::WeightMatrix SweepWeights(const gmc::Lineage& lineage, int k) {
  gmc::WeightMatrix weights(k, lineage.cnf.num_vars);
  for (int column = 0; column < k; ++column) {
    for (int v = 0; v < lineage.cnf.num_vars; ++v) {
      weights.Set(column, v, gmc::Rational(1 + (column + v) % 9, 11));
    }
  }
  return weights;
}

// Exact dyadic bracket of a double in [0, 1] — the same construction the
// enclosure tests use, so the cross-check compares rationals, not floats.
gmc::Rational RationalOfDouble(double value) {
  if (value == 0.0) return gmc::Rational::Zero();
  int exponent = 0;
  const double fraction = std::frexp(value, &exponent);
  const double scaled = std::ldexp(fraction, 53);  // integral, < 2^53
  return gmc::Rational::Dyadic(gmc::BigInt(static_cast<int64_t>(scaled)),
                               static_cast<uint64_t>(53 - exponent));
}

bool Encloses(const gmc::ProbInterval& interval, const gmc::Rational& exact) {
  return !(exact < RationalOfDouble(interval.lo)) &&
         !(RationalOfDouble(interval.hi) < exact);
}

// The serial double arena walk, ported verbatim from the library's former
// uncertified batch pass: each weight column converted once with ToDouble,
// complements 1 − p for the decision variables only, the zero-skip in AND,
// and p·high + q·low as t = p·high; u = q·low; t += u. It stays exactly
// this shape on purpose: a leaner, vectorisable walk would be a faster
// yardstick and silently tighten the 5× interval gate.
std::vector<double> DoubleWalk(const gmc::CircuitWalkView& view,
                               const gmc::WeightMatrix& weights) {
  const int num_k = weights.num_vectors();
  const int num_vars = view.num_vars;
  std::vector<double> probability(static_cast<size_t>(num_vars) * num_k);
  const std::vector<bool> decides = gmc::walk_internal::WalkDecisionVars(view);
  std::vector<double> complement(static_cast<size_t>(num_vars) * num_k, 0.0);
  for (int v = 0; v < num_vars; ++v) {
    const gmc::Rational* p = weights.Column(v);
    double* out = probability.data() + static_cast<size_t>(v) * num_k;
    for (int k = 0; k < num_k; ++k) out[k] = p[k].ToDouble();
    if (!decides[v]) continue;
    double* comp = complement.data() + static_cast<size_t>(v) * num_k;
    for (int k = 0; k < num_k; ++k) comp[k] = 1.0 - out[k];
  }

  std::vector<double> value(view.num_nodes * num_k);
  for (size_t id = 0; id < view.num_nodes; ++id) {
    const gmc::FlatNode& node = view.nodes[id];
    double* out = value.data() + id * num_k;
    switch (static_cast<gmc::NnfKind>(node.kind)) {
      case gmc::NnfKind::kFalse:
        break;  // the arena starts at zero
      case gmc::NnfKind::kTrue:
        for (int k = 0; k < num_k; ++k) out[k] = 1.0;
        break;
      case gmc::NnfKind::kVar: {
        const double* p =
            probability.data() + static_cast<size_t>(node.var) * num_k;
        for (int k = 0; k < num_k; ++k) out[k] = p[k];
        break;
      }
      case gmc::NnfKind::kAnd: {
        const int32_t* child_ids = view.children + node.a;
        const double* first =
            value.data() + static_cast<size_t>(child_ids[0]) * num_k;
        for (int k = 0; k < num_k; ++k) out[k] = first[k];
        for (int32_t c = 1; c < node.b; ++c) {
          const double* child =
              value.data() + static_cast<size_t>(child_ids[c]) * num_k;
          for (int k = 0; k < num_k; ++k) {
            if (out[k] == 0.0) continue;
            out[k] *= child[k];
          }
        }
        break;
      }
      case gmc::NnfKind::kDecision: {
        const double* p =
            probability.data() + static_cast<size_t>(node.var) * num_k;
        const double* q =
            complement.data() + static_cast<size_t>(node.var) * num_k;
        const double* high = value.data() + static_cast<size_t>(node.a) * num_k;
        const double* low = value.data() + static_cast<size_t>(node.b) * num_k;
        for (int k = 0; k < num_k; ++k) {
          double t = p[k];
          t *= high[k];
          double u = q[k];
          u *= low[k];
          t += u;
          out[k] = t;
        }
        break;
      }
    }
  }
  const double* root = value.data() + static_cast<size_t>(view.root) * num_k;
  return std::vector<double>(root, root + num_k);
}

// --- The three batch passes over one compiled circuit -----------------

void BatchBench(benchmark::State& state, int mode) {
  const int k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = Type2Lineage(3);
  gmc::Compiler compiler;
  gmc::NnfCircuit circuit = compiler.Compile(lineage);
  gmc::WeightMatrix weights = SweepWeights(lineage, k);
  double max_width = 0.0;
  for (auto _ : state) {
    switch (mode) {
      case 0:
        benchmark::DoNotOptimize(circuit.EvaluateBatch(weights));
        break;
      case 1: {
        std::vector<gmc::ProbInterval> intervals =
            circuit.EvaluateBatchInterval(weights);
        for (const gmc::ProbInterval& interval : intervals) {
          max_width = std::max(max_width, interval.hi - interval.lo);
        }
        benchmark::DoNotOptimize(intervals.data());
        break;
      }
      default:
        benchmark::DoNotOptimize(DoubleWalk(circuit.view(), weights));
        break;
    }
  }
  state.counters["sweep_points"] = k;
  state.counters["circuit_nodes"] =
      static_cast<double>(circuit.num_nodes());
  if (mode == 1) state.counters["max_width"] = max_width;
}

void BM_ExactBatch(benchmark::State& state) { BatchBench(state, 0); }
BENCHMARK(BM_ExactBatch)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_IntervalBatch(benchmark::State& state) { BatchBench(state, 1); }
BENCHMARK(BM_IntervalBatch)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_DoubleBatch(benchmark::State& state) { BatchBench(state, 2); }
BENCHMARK(BM_DoubleBatch)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// --- The sampler ------------------------------------------------------

// Cost scales with the (ε, δ)-derived sample target (ε halves → 4×), not
// with circuit size: the sampler never compiles anything.
void BM_KarpLuby(benchmark::State& state) {
  gmc::Lineage lineage = H1Lineage(static_cast<int>(state.range(0)));
  gmc::KarpLubyParams params;
  params.epsilon = 0.1;
  params.delta = 0.01;
  params.max_samples = 0;  // run to the (ε, δ) target
  params.seed = 0x1234abcdull;
  uint64_t samples = 0;
  for (auto _ : state) {
    gmc::KarpLubyResult result = gmc::KarpLubyEstimate(lineage, params);
    samples = result.samples;
    benchmark::DoNotOptimize(result.estimate);
  }
  state.counters["samples"] = static_cast<double>(samples);
  state.counters["lineage_clauses"] =
      static_cast<double>(lineage.cnf.clauses.size());
}
BENCHMARK(BM_KarpLuby)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

// The per-request plan build: every sampled instance pays exactly this.
void BM_KarpLubyPlanBuild(benchmark::State& state) {
  const gmc::Lineage lineage = CyclingC9Lineage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gmc::BuildKarpLubyPlan(lineage.cnf, lineage.probabilities));
  }
  state.counters["lineage_clauses"] =
      static_cast<double>(lineage.cnf.clauses.size());
}
BENCHMARK(BM_KarpLubyPlanBuild)->Unit(benchmark::kMicrosecond);

// The per-request estimate on the same shape: ε = 1/10 and δ = 1/20 put
// the target past the cap, so every run draws 2048 samples on one thread.
void BM_KarpLubyServedShape(benchmark::State& state) {
  const gmc::Lineage lineage = CyclingC9Lineage();
  const std::shared_ptr<const gmc::KarpLubyPlan> plan =
      gmc::BuildKarpLubyPlan(lineage.cnf, lineage.probabilities);
  gmc::KarpLubyParams params;
  params.epsilon = 0.1;
  params.delta = 0.05;
  params.max_samples = 2048;
  params.seed = 0x1234abcdull;
  params.num_threads = 1;
  double samples = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const gmc::KarpLubyResult result = gmc::KarpLubyEstimate(*plan, params);
    samples += static_cast<double>(result.samples);
    benchmark::DoNotOptimize(result.estimate);
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  state.counters["ns_per_sample"] = samples > 0 ? elapsed_ns / samples : 0.0;
}
BENCHMARK(BM_KarpLubyServedShape)->Unit(benchmark::kMicrosecond);

// The chunk-parallel sampler on the Type-II d=4 gadget, one shared plan,
// Arg = worker count. The wall-clock ratio Arg(1)/Arg(8) is the headline
// speedup; the bench aborts rather than time a wrong answer — every
// thread count must reproduce the serial run bit for bit (that is the
// whole determinism contract, so a scheduling bug can never hide behind a
// throughput win).
void BM_KarpLubyParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  gmc::Lineage lineage = Type2Lineage(4);
  const std::shared_ptr<const gmc::KarpLubyPlan> plan =
      gmc::BuildKarpLubyPlan(lineage.cnf, lineage.probabilities);
  gmc::KarpLubyParams params;
  params.epsilon = 0.1;
  params.delta = 0.01;
  params.max_samples = 0;  // run to the (ε, δ) target
  params.seed = 0x1234abcdull;
  params.num_threads = 1;
  const gmc::KarpLubyResult serial = gmc::KarpLubyEstimate(*plan, params);
  params.num_threads = threads;
  uint64_t total_samples = 0;
  for (auto _ : state) {
    gmc::KarpLubyResult result = gmc::KarpLubyEstimate(*plan, params);
    if (result.estimate != serial.estimate ||
        result.successes != serial.successes ||
        result.samples != serial.samples) {
      state.SkipWithError(
          "parallel sampler diverged from the serial fixed-seed run");
      return;
    }
    total_samples += result.samples;
    benchmark::DoNotOptimize(result.estimate);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(total_samples), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KarpLubyParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()  // wall-clock rate: the speedup a caller observes
    ->Unit(benchmark::kMillisecond);

// The batched serving shape: K same-structure sampled requests through ONE
// EvaluateAnswers call — what a serve coalescing round runs. Each instance
// builds its plan, samples, and drops the plan; the session keeps no
// sampler state between calls.
void BM_SessionSampledBatch(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  gmc::Query query = ExampleC9();
  gmc::Tid tid(query.vocab_ptr(), 4, 4, gmc::Rational(3, 7));
  const std::vector<gmc::Tid> tids(static_cast<size_t>(k), tid);
  gmc::GfomcSession session;
  gmc::GmcOptions options = session.options();
  options.routing_mode = gmc::RoutingMode::kSample;
  options.epsilon = 0.2;
  options.delta = 0.05;
  session.Configure(options);
  for (auto _ : state) {
    std::vector<gmc::GmcAnswer> answers;
    const gmc::GmcStatus status =
        session.EvaluateAnswers(query, tids, &answers);
    if (!status.ok() || answers.size() != tids.size()) {
      state.SkipWithError("sampled batch failed to answer");
      return;
    }
    benchmark::DoNotOptimize(answers.data());
  }
  state.counters["requests"] = static_cast<double>(k);
}
BENCHMARK(BM_SessionSampledBatch)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- End-to-end degraded routing --------------------------------------

// The serving-path latency of an over-budget instance in kAuto: compile
// probe, budget exhaustion (memoized after the first miss), Karp–Luby
// fallback, certified answer.
void BM_RouterOverBudget(benchmark::State& state) {
  gmc::Query query = H1();
  gmc::Tid tid(query.vocab_ptr(), 3, 3, gmc::Rational(3, 7));
  gmc::GfomcSession session;
  gmc::GmcOptions options = session.options();
  options.routing_mode = gmc::RoutingMode::kAuto;
  options.compile_budget.max_calls = 2;  // every probe exhausts
  options.epsilon = 0.1;
  options.delta = 0.01;
  session.Configure(options);
  uint64_t samples = 0;
  for (auto _ : state) {
    gmc::GmcAnswer answer;
    gmc::GmcStatus status = session.EvaluateAnswer(query, tid, &answer);
    if (!status.ok() || answer.tier != gmc::AnswerTier::kSampled) {
      state.SkipWithError(
          "over-budget instance did not route to the sampler");
      return;
    }
    samples = answer.samples;
    benchmark::DoNotOptimize(answer.estimate);
  }
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_RouterOverBudget)->Unit(benchmark::kMillisecond);

// --- Correctness guard, CI-enforced -----------------------------------

// Whether the integer plan build applies to the lineage and agrees with
// the Rational build field for field.
bool PlanBuildsAgree(const gmc::Lineage& lineage) {
  gmc::KarpLubyPlan integer;
  gmc::KarpLubyPlan rational;
  integer.cnf = rational.cnf = lineage.cnf;
  integer.probabilities = rational.probabilities = lineage.probabilities;
  gmc::approx_internal::BuildWordsRational(&rational);
  return gmc::approx_internal::BuildWordsInteger(&integer) &&
         integer.prefix == rational.prefix &&
         integer.variable_words == rational.variable_words &&
         integer.boundary_words == rational.boundary_words;
}

void BM_AnytimeCrossCheck(benchmark::State& state) {
  std::vector<gmc::Lineage> corpus = {H1Lineage(3), Type2Lineage(3)};
  using Clock = std::chrono::steady_clock;
  const gmc::NnfCircuit ratio_circuit = gmc::Compiler().Compile(corpus[1]);
  const gmc::WeightMatrix ratio_weights = SweepWeights(corpus[1], 64);
  double ratio = 0.0;
  for (auto _ : state) {
    for (const gmc::Lineage& lineage : corpus) {
      gmc::Compiler compiler;
      gmc::NnfCircuit circuit = compiler.Compile(lineage);
      gmc::WeightMatrix weights = SweepWeights(lineage, 8);
      const std::vector<gmc::Rational> exact = circuit.EvaluateBatch(weights);
      const std::vector<gmc::ProbInterval> serial =
          circuit.EvaluateBatchInterval(weights, /*num_threads=*/1);
      const std::vector<gmc::ProbInterval> parallel =
          circuit.EvaluateBatchInterval(weights, /*num_threads=*/8);
      for (size_t i = 0; i < exact.size(); ++i) {
        if (serial[i].lo != parallel[i].lo ||
            serial[i].hi != parallel[i].hi) {
          state.SkipWithError(
              "interval results differ across thread counts");
          return;
        }
        if (!Encloses(serial[i], exact[i])) {
          state.SkipWithError(
              "certified interval EXCLUDES the exact probability");
          return;
        }
        if (serial[i].hi - serial[i].lo > 1e-6) {
          state.SkipWithError("interval width blew past 1e-6 on a gadget");
          return;
        }
      }
      // The gate's yardstick must compute the same probabilities.
      const std::vector<double> yardstick = DoubleWalk(circuit.view(), weights);
      for (size_t i = 0; i < exact.size(); ++i) {
        if (std::fabs(yardstick[i] - exact[i].ToDouble()) > 1e-9) {
          state.SkipWithError("the double walk disagrees with the exact pass");
          return;
        }
      }
      // The sampler's plan: the integer build must apply to these 3/7
      // weights and equal the Rational build.
      if (!PlanBuildsAgree(lineage)) {
        state.SkipWithError(
            "the integer sampler-plan build differs from the Rational build");
        return;
      }
      // The sampler's certificate at a fixed seed: |est − p| ≤ ε on the
      // single-column lineage weights.
      gmc::KarpLubyParams params;
      params.epsilon = 0.1;
      params.delta = 0.01;
      params.max_samples = 0;
      params.seed = 0x1234abcdull;
      const gmc::KarpLubyResult sampled =
          gmc::KarpLubyEstimate(lineage, params);
      const double truth =
          circuit.Evaluate(lineage.probabilities).ToDouble();
      if (std::fabs(sampled.estimate - truth) > params.epsilon) {
        state.SkipWithError(
            "fixed-seed Karp–Luby estimate missed its epsilon certificate");
        return;
      }
      // The parallel sampler is the SAME sampler: 8 workers, same seed,
      // bit-identical estimate/successes/count or the run fails.
      params.num_threads = 8;
      const gmc::KarpLubyResult resampled =
          gmc::KarpLubyEstimate(lineage, params);
      params.num_threads = 0;
      if (resampled.estimate != sampled.estimate ||
          resampled.successes != sampled.successes ||
          resampled.samples != sampled.samples) {
        state.SkipWithError(
            "parallel Karp–Luby diverged from the serial fixed-seed run");
        return;
      }
    }
    // The interval pass's cost gate: best of 20 interleaved single-thread
    // passes each at K = 64 on C9 3×3, interval at most 5× the double walk.
    double best_interval = 1e300;
    double best_double = 1e300;
    for (int rep = 0; rep < 20; ++rep) {
      const auto t0 = Clock::now();
      benchmark::DoNotOptimize(
          ratio_circuit.EvaluateBatchInterval(ratio_weights, 1));
      const auto t1 = Clock::now();
      benchmark::DoNotOptimize(DoubleWalk(ratio_circuit.view(), ratio_weights));
      const auto t2 = Clock::now();
      best_interval = std::min(
          best_interval, std::chrono::duration<double>(t1 - t0).count());
      best_double =
          std::min(best_double, std::chrono::duration<double>(t2 - t1).count());
    }
    ratio = best_interval / best_double;
    if (ratio > 5.0) {
      state.SkipWithError("interval pass costs more than 5x the double pass");
      return;
    }
    // An over-budget instance must still come back certified through the
    // session — the anytime tier's contract end to end.
    gmc::Query query = H1();
    gmc::Tid tid(query.vocab_ptr(), 3, 3, gmc::Rational(3, 7));
    gmc::GmcAnswer reference = {};
    reference.exact = gmc::Gfomc(query, tid).probability;
    gmc::GmcOptions options;
    options.routing_mode = gmc::RoutingMode::kAuto;
    options.compile_budget.max_calls = 2;
    options.epsilon = 0.1;
    options.delta = 0.01;
    gmc::GmcAnswer answer;
    gmc::GmcStatus status = gmc::GfomcChecked(query, tid, options, &answer);
    if (!status.ok() || answer.tier != gmc::AnswerTier::kSampled ||
        std::fabs(answer.estimate - reference.exact.ToDouble()) >
            answer.epsilon) {
      state.SkipWithError(
          "over-budget routing failed to produce a certified estimate");
      return;
    }
  }
  state.counters["interval_over_double"] = ratio;
}
BENCHMARK(BM_AnytimeCrossCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
