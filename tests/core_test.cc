#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dichotomy.h"
#include "fault_guard.h"
#include "logic/parser.h"
#include "safe/safe_eval.h"
#include "util/fault.h"
#include "wmc/brute_force.h"

namespace gmc {

// White-box access to a session's template bindings: how many instances a
// bound template answered (Stats counts them as the cache hits they also
// are), and the cache and template table behind them.
class GfomcSessionTestPeer {
 public:
  explicit GfomcSessionTestPeer(GfomcSession* session) : session_(session) {}
  uint64_t bound_hits() const { return session_->bound_hits_; }
  CircuitCache& circuits() { return session_->circuits_; }
  GroundingTemplates& templates() { return session_->templates_; }

 private:
  GfomcSession* session_;
};

namespace {

TEST(DichotomyTest, ClassifySafe) {
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  DichotomyReport report = Classify(q);
  EXPECT_TRUE(report.analysis.safe);
  EXPECT_NE(report.summary.find("PTIME"), std::string::npos);
}

TEST(DichotomyTest, ClassifyUnsafeFinal) {
  Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  DichotomyReport report = Classify(h1);
  EXPECT_FALSE(report.analysis.safe);
  EXPECT_TRUE(report.is_final);
  EXPECT_NE(report.summary.find("#P-hard"), std::string::npos);
}

TEST(DichotomyTest, GfomcRoutesSafeToLifted) {
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  Tid tid(q.vocab_ptr(), 2, 2);
  const Vocabulary& v = q.vocab();
  tid.SetUnaryLeft(v.Find("R"), 0, Rational::Half());
  tid.SetBinary(v.Find("S"), 0, 0, Rational::Half());
  tid.SetBinary(v.Find("S"), 0, 1, Rational::Half());
  GfomcResult result = Gfomc(q, tid);
  EXPECT_TRUE(result.used_lifted);
  EXPECT_EQ(result.probability, BruteForceQueryProbability(q, tid));
}

TEST(DichotomyTest, GfomcFallsBackForUnsafe) {
  Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  Tid tid(h1.vocab_ptr(), 2, 2, Rational::Half());
  GfomcResult result = Gfomc(h1, tid);
  EXPECT_FALSE(result.used_lifted);
  EXPECT_EQ(result.probability, BruteForceQueryProbability(h1, tid));
}

TEST(GfomcSessionTest, RepeatedQueriesHitTheCircuitCache) {
  // One unsafe query probed at several probability assignments: the session
  // compiles each distinct grounded lineage once and serves the repeats
  // from cache; answers match the stateless one-shot path bit for bit.
  Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  GfomcSession session;
  std::vector<Tid> tids;
  for (int k = 1; k <= 6; ++k) {
    Tid tid(h1.vocab_ptr(), 2, 2, Rational(1, 2));
    const Vocabulary& v = h1.vocab();
    tid.SetBinary(v.Find("S"), 0, 0, Rational(k, 8));
    tids.push_back(std::move(tid));
  }
  for (const Tid& tid : tids) {
    GfomcResult session_result = session.Evaluate(h1, tid);
    GfomcResult one_shot = Gfomc(h1, tid);
    EXPECT_FALSE(session_result.used_lifted);
    EXPECT_EQ(session_result.probability, one_shot.probability);
    EXPECT_EQ(session_result.probability,
              BruteForceQueryProbability(h1, tid));
  }
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.queries, 6u);
  EXPECT_EQ(stats.unsafe_compiled, 6u);
  // All six assignments share one lineage structure: one compile, the rest
  // cache hits — the repeated-query payoff the session exists for.
  EXPECT_EQ(stats.cache.compiles, 1u);
  EXPECT_EQ(stats.cache.hits, 5u);

  // The batched form gives the same answers in one grouped circuit pass.
  GfomcSession batched;
  std::vector<GfomcResult> many = batched.EvaluateMany(h1, tids);
  ASSERT_EQ(many.size(), tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(many[i].probability, session.Evaluate(h1, tids[i]).probability);
  }
  EXPECT_EQ(batched.stats().cache.compiles, 1u);
}

TEST(GfomcSessionTest, SafeQueriesRouteThroughTheSession) {
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  GfomcSession session;
  for (int k = 1; k <= 4; ++k) {
    Tid tid(q.vocab_ptr(), 2, 2, Rational::Half());
    const Vocabulary& v = q.vocab();
    tid.SetUnaryLeft(v.Find("R"), 0, k % 2 ? Rational::Half()
                                           : Rational::One());
    GfomcResult result = session.Evaluate(q, tid);
    EXPECT_TRUE(result.used_lifted);
    EXPECT_EQ(result.probability, BruteForceQueryProbability(q, tid));
  }
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.safe_compiled + stats.safe_lifted, 4u);
}

TEST(DichotomyTest, DemonstrateHardnessOnNonFinalQuery) {
  // (R ∨ S1 ∨ S2) ∧ (S1 ∨ T) is unsafe but not final; the façade first
  // walks it down to a final query, then reduces.
  Query q = ParseQueryOrDie(
      "Ax Ay (R(x) | S1(x,y) | S2(x,y)) & Ax Ay (S1(x,y) | T(y))");
  P2Cnf phi;
  phi.num_vars = 3;
  phi.edges = {{0, 1}, {1, 2}};
  Type1ReductionResult result = DemonstrateHardness(q, phi);
  EXPECT_EQ(result.status, Type1Status::kRecovered);
  EXPECT_EQ(result.model_count, CountSatisfying(phi));
}

TEST(DichotomyTest, DemonstrateHardnessRefusesOnlyLengthZeroQueries) {
  // Unsafe Type I-I queries of length 0 walk down to ∀x∀y(R(x) ∨ T(y)),
  // whose one-link gadget breaks the ordering z00 < z01 = z10 < z11. The
  // façade answers with a typed refusal instead of aborting, and makes no
  // oracle call; H1, of length 1, still recovers #Φ on the same Φ.
  P2Cnf phi = P2Cnf::Random(4, 4, /*seed=*/7);
  for (const char* text :
       {"Ax Ay (R(x) | S(x,y) | T(y))",
        "Ax Ay (R(x) | S1(x,y) | S2(x,y) | T(y))"}) {
    Query q = ParseQueryOrDie(text);
    ASSERT_FALSE(IsSafe(q)) << text;
    Type1ReductionResult result = DemonstrateHardness(q, phi);
    EXPECT_EQ(result.status, Type1Status::kDesignConditionsFailed) << text;
    EXPECT_FALSE(result.design_report.AllHold()) << text;
    EXPECT_EQ(result.oracle_calls, 0) << text;
  }
  Query h1 = ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  Type1ReductionResult result = DemonstrateHardness(h1, phi);
  EXPECT_EQ(result.status, Type1Status::kRecovered);
  EXPECT_EQ(result.model_count, CountSatisfying(phi));
}

// H1 over 3×3 at three support patterns of S (0, 1 or uncertain per
// tuple, R and T uncertain), each at three weightings.
std::vector<Tid> PatternedH1Tids(const Query& h1) {
  const Vocabulary& v = h1.vocab();
  std::vector<Tid> tids;
  for (int pattern = 0; pattern < 3; ++pattern) {
    for (int k = 0; k < 3; ++k) {
      Tid tid(h1.vocab_ptr(), 3, 3, Rational::One());
      for (int u = 0; u < 3; ++u) {
        tid.SetUnaryLeft(v.Find("R"), u, Rational(1 + (k + u) % 6, 7));
        tid.SetUnaryRight(v.Find("T"), u, Rational(1 + (k + 2 * u) % 10, 11));
        for (int w = 0; w < 3; ++w) {
          const int support = (3 * u + w + pattern) % 3;
          tid.SetBinary(v.Find("S"), u, w,
                        support == 0   ? Rational::Zero()
                        : support == 1 ? Rational::One()
                                       : Rational(1 + (k + u + w) % 6, 8));
        }
      }
      tids.push_back(std::move(tid));
    }
  }
  return tids;
}

// The faults CI job arms lineage.template, which would skew the template
// counts, so the test holds a FaultGuard.
TEST(GfomcSessionTest, TemplatesAnswerExactlyAsASessionThatAlwaysGrounds) {
  FaultGuard guard;
  const Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  const std::vector<Tid> tids = PatternedH1Tids(h1);
  struct Run {
    std::vector<GmcAnswer> answers;
    std::vector<GfomcResult> many;
    GfomcSession::Stats stats;
  };
  auto run = [&] {
    GfomcSession session;
    GmcOptions request = session.options();
    request.routing_mode = RoutingMode::kExact;
    Run out;
    for (const GmcStatus& status :
         session.EvaluateAnswers(h1, tids, request, &out.answers)) {
      EXPECT_TRUE(status.ok()) << status.message;
    }
    out.many = session.EvaluateMany(h1, tids);
    out.stats = session.stats();
    return out;
  };
  const Run cached = run();
  // Three patterns: three first sights, then every instance a repeat.
  EXPECT_EQ(cached.stats.template_misses, 3u);
  EXPECT_EQ(cached.stats.template_hits, 2 * tids.size() - 3);

  std::string error;
  ASSERT_TRUE(fault::Configure("lineage.template=1", &error)) << error;
  const Run grounding = run();
  EXPECT_EQ(grounding.stats.template_hits, 0u);
  EXPECT_EQ(grounding.stats.template_misses, 2 * tids.size());
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(cached.answers[i].tier, AnswerTier::kCompiledExact);
    EXPECT_EQ(cached.answers[i].exact, grounding.answers[i].exact);
    EXPECT_EQ(cached.answers[i].exact, BruteForceQueryProbability(h1, tids[i]));
    EXPECT_EQ(cached.many[i].probability, grounding.many[i].probability);
    EXPECT_FALSE(cached.many[i].used_lifted);
  }
}

// --- The compile gate of safe calls ---------------------------------------
//
// A safe call takes the session's compiled route only when its query is not
// constant, every instance is GFOMC and every lineage has at most 96
// variables; otherwise the lifted plan answers the whole call.

// Ax Ay (R(x) | S(x,y)) over n×n: R(u) at ½ for u < uncertain and 1
// otherwise, every S tuple at `s`.
Tid LeftTypeITid(const Query& q, int n, int uncertain, const Rational& s) {
  Tid tid(q.vocab_ptr(), n, n, s);
  for (int u = 0; u < n; ++u) {
    tid.SetUnaryLeft(q.vocab().Find("R"), u,
                     u < uncertain ? Rational::Half() : Rational::One());
  }
  return tid;
}

std::vector<GmcAnswer> EvaluateOk(GfomcSession& session, const Query& q,
                                  const std::vector<Tid>& tids,
                                  const GmcOptions& request) {
  std::vector<GmcAnswer> answers;
  for (const GmcStatus& status :
       session.EvaluateAnswers(q, tids, request, &answers)) {
    EXPECT_TRUE(status.ok()) << status.message;
  }
  return answers;
}

TEST(SafeRouteTest, OneOversizedLineageSendsTheWholeCallToTheLiftedPlan) {
  const Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  // 2×2 grounds to 6 variables, 10×10 to 110.
  const std::vector<Tid> tids = {LeftTypeITid(q, 2, 2, Rational::Half()),
                                 LeftTypeITid(q, 10, 10, Rational::Half())};
  GfomcSession session;
  const std::vector<GmcAnswer> answers =
      EvaluateOk(session, q, tids, session.options());
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(answers[i].tier, AnswerTier::kLifted) << "tid " << i;
    EXPECT_EQ(answers[i].exact, *LiftedProbability(q, tids[i]));
  }
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.safe_lifted, 2u);
  EXPECT_EQ(stats.safe_compiled, 0u);
  EXPECT_EQ(stats.cache.compiles + stats.cache.hits, 0u);
}

TEST(SafeRouteTest, OneNonGfomcInstanceSendsTheWholeCallToTheLiftedPlan) {
  const Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  const std::vector<Tid> tids = {LeftTypeITid(q, 2, 1, Rational::Half()),
                                 LeftTypeITid(q, 2, 1, Rational(3, 7))};
  GfomcSession session;
  const std::vector<GmcAnswer> answers =
      EvaluateOk(session, q, tids, session.options());
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(answers[i].tier, AnswerTier::kLifted) << "tid " << i;
    EXPECT_EQ(answers[i].exact, *LiftedProbability(q, tids[i]));
  }
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.safe_lifted, 2u);
  EXPECT_EQ(stats.safe_compiled, 0u);
  // The gate turned the call away before grounding anything.
  EXPECT_EQ(stats.template_hits + stats.template_misses, 0u);
}

TEST(SafeRouteTest, CompiledSafeCallsIgnoreTheRequestDeadline) {
  // The compiled route runs exact, unbudgeted and without a deadline: a
  // safe call has no anytime tier to degrade to, and a PTIME plan exists.
  // Twenty support patterns of the Type II safe query over 4×4 (48
  // variables each) take well over 1 ms to compile.
  const Query q = ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax (Ay (S1(x,y)) | Ay (S3(x,y)))");
  std::vector<Tid> tids;
  for (int k = 0; k < 20; ++k) {
    Tid tid(q.vocab_ptr(), 4, 4, Rational::Half());
    tid.SetBinary(q.vocab().Find("S1"), k % 4, k / 4 % 4, Rational::Zero());
    tid.SetBinary(q.vocab().Find("S2"), k / 4 % 4, k % 4, Rational::One());
    tid.SetBinary(q.vocab().Find("S3"), k % 3, k % 4, Rational::Zero());
    tids.push_back(std::move(tid));
  }
  GfomcSession session;
  GmcOptions request = session.options();
  request.deadline_ms = 1;
  const std::vector<GmcAnswer> answers = EvaluateOk(session, q, tids, request);
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(answers[i].tier, AnswerTier::kCompiledExact) << "tid " << i;
    EXPECT_EQ(answers[i].exact, *LiftedProbability(q, tids[i]));
  }
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.safe_compiled, tids.size());
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(SafeRouteTest, RepeatedSafeGfomcPatternsHitTheirTemplate) {
  FaultGuard guard;  // an armed lineage.template would turn hits into misses
  const Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  // The same 0 / 1 / uncertain pattern twice: explicit ½ tuples under a
  // default of 1, then the default at ½ with R(2) explicitly certain.
  Tid tid = LeftTypeITid(q, 3, 2, Rational::One());
  for (int u = 0; u < 3; ++u) {
    for (int v = 0; v < 3; ++v) {
      tid.SetBinary(q.vocab().Find("S"), u, v, Rational::Half());
    }
  }
  Tid repeat(q.vocab_ptr(), 3, 3, Rational::Half());
  repeat.SetUnaryLeft(q.vocab().Find("R"), 2, Rational::One());
  GfomcSession session;
  for (const Tid* instance : {&tid, &repeat}) {
    const std::vector<GmcAnswer> answers =
        EvaluateOk(session, q, {*instance}, session.options());
    EXPECT_EQ(answers[0].tier, AnswerTier::kCompiledExact);
    EXPECT_EQ(answers[0].exact, *LiftedProbability(q, *instance));
  }
  const GfomcSession::Stats stats = session.stats();
  EXPECT_EQ(stats.template_misses, 1u);
  EXPECT_EQ(stats.template_hits, 1u);
  EXPECT_EQ(stats.safe_compiled, 2u);
  EXPECT_EQ(stats.cache.compiles, 1u);
}


// --- Bound templates -------------------------------------------------------
//
// A template bound to the cache entry of its circuit answers a repeat
// without a Lineage or a Cnf probe. Every answer and counter must equal
// the unbound route's.

Query H1Query() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Query C9Query() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// Every tuple of `q`'s symbols over n×n set explicitly: its support class
// drawn from `pattern` (mostly uncertain; 0 only when `zeros`), its
// uncertain weight k/d from `weights`, for d in `dens`.
Tid SupportTid(const Query& q, int n, uint64_t pattern, uint64_t weights,
               const std::vector<int64_t>& dens, bool zeros) {
  std::mt19937_64 classes(pattern);
  std::mt19937_64 values(weights);
  Tid tid(q.vocab_ptr(), n, n, Rational::One());
  const Vocabulary& vocab = q.vocab();
  for (SymbolId s : q.Symbols()) {
    const bool binary = vocab.IsBinary(s);
    const bool left = vocab.kind(s) == SymbolKind::kUnaryLeft;
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < (binary ? n : 1); ++v) {
        const TupleKey key = binary ? TupleKey{s, u, v}
                             : left ? TupleKey{s, u, -1}
                                    : TupleKey{s, -1, u};
        const uint64_t c = classes() % 10;
        const int64_t den = dens[values() % dens.size()];
        tid.Set(key, c == 0 && zeros ? Rational::Zero()
                     : c <= 1        ? Rational::One()
                                     : Rational(1 + static_cast<int64_t>(
                                                        values() % (den - 1)),
                                                den));
      }
    }
  }
  return tid;
}

struct Call {
  RoutingMode mode;
  std::vector<Tid> tids;
  std::vector<uint64_t> patterns;  // each tid's pattern seed
};

struct Outcome {
  std::vector<std::vector<GmcStatus>> statuses;
  std::vector<std::vector<GmcAnswer>> answers;
  GfomcSession::Stats stats;
  uint64_t bound_hits = 0;
};

Outcome RunCalls(const Query& q, const std::vector<Call>& calls, int threads,
                 uint64_t max_resident_bytes) {
  GfomcSession session;
  GmcOptions options = session.options();
  options.num_threads = threads;
  options.max_samples = 256;
  options.max_resident_bytes = max_resident_bytes;
  session.Configure(options);
  Outcome out;
  for (const Call& call : calls) {
    GmcOptions request = options;
    request.routing_mode = call.mode;
    out.answers.emplace_back();
    out.statuses.push_back(
        session.EvaluateAnswers(q, call.tids, request, &out.answers.back()));
  }
  out.stats = session.stats();
  out.bound_hits = GfomcSessionTestPeer(&session).bound_hits();
  return out;
}

void ExpectSameAnswers(const Outcome& got, const Outcome& want) {
  ASSERT_EQ(got.answers.size(), want.answers.size());
  for (size_t c = 0; c < got.answers.size(); ++c) {
    for (size_t i = 0; i < got.answers[c].size(); ++i) {
      SCOPED_TRACE("call " + std::to_string(c) + " tid " + std::to_string(i));
      const GmcAnswer& a = got.answers[c][i];
      const GmcAnswer& b = want.answers[c][i];
      EXPECT_EQ(got.statuses[c][i].code, want.statuses[c][i].code);
      EXPECT_EQ(a.tier, b.tier);
      EXPECT_EQ(a.exact, b.exact);
      EXPECT_EQ(a.interval.lo, b.interval.lo);
      EXPECT_EQ(a.interval.hi, b.interval.hi);
      EXPECT_EQ(a.estimate, b.estimate);
      EXPECT_EQ(a.epsilon, b.epsilon);
      EXPECT_EQ(a.delta, b.delta);
      EXPECT_EQ(a.samples, b.samples);
    }
  }
}

// Calls of one and of several instances over a few support patterns, at
// fresh weights each time, in `modes` by turn.
std::vector<Call> PatternCalls(const Query& q, int n,
                               const std::vector<int64_t>& dens,
                               const std::vector<RoutingMode>& modes) {
  std::vector<Call> calls;
  uint64_t weights = 100;
  for (int round = 0; round < 12; ++round) {
    Call call{modes[static_cast<size_t>(round) % modes.size()], {}, {}};
    const int size = round % 3 == 2 ? 5 : 1;
    for (int k = 0; k < size; ++k) {
      const uint64_t pattern = 1 + static_cast<uint64_t>(round + k) % 4;
      call.tids.push_back(SupportTid(q, n, pattern, ++weights, dens, true));
      call.patterns.push_back(pattern);
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

TEST(BoundTemplateTest, AnswersAndCountersMatchBothReferenceSessions) {
  FaultGuard guard;  // the references arm their own fault points
  struct Workload {
    Query query;
    int n;
    std::vector<int64_t> dens;
    std::vector<RoutingMode> modes;
  };
  const std::vector<Workload> workloads = {
      {H1Query(), 4, {8, 16}, {RoutingMode::kExact, RoutingMode::kAuto,
                               RoutingMode::kSample}},
      {C9Query(), 3, {7, 11}, {RoutingMode::kInterval, RoutingMode::kSample}},
  };
  for (const Workload& w : workloads) {
    const std::vector<Call> calls = PatternCalls(w.query, w.n, w.dens, w.modes);
    size_t instances = 0;
    std::set<uint64_t> patterns;
    for (const Call& call : calls) {
      instances += call.tids.size();
      patterns.insert(call.patterns.begin(), call.patterns.end());
    }
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(w.query.ToString() + " at " + std::to_string(threads) +
                   " threads");
      fault::Reset();
      const Outcome bound = RunCalls(w.query, calls, threads, 0);
      std::string error;
      ASSERT_TRUE(fault::Configure("lineage.template=1", &error)) << error;
      const Outcome grounding = RunCalls(w.query, calls, threads, 0);
      fault::Reset();
      // One byte keeps no circuit but the last one used.
      const Outcome expiring = RunCalls(w.query, calls, threads, 1);

      ExpectSameAnswers(bound, grounding);
      ExpectSameAnswers(bound, expiring);
      EXPECT_GT(bound.bound_hits, 0u);
      EXPECT_EQ(grounding.bound_hits, 0u);
      EXPECT_GT(expiring.stats.cache.evictions, 0u);
      EXPECT_EQ(bound.stats.template_misses, patterns.size());
      EXPECT_EQ(bound.stats.template_hits, instances - patterns.size());
      EXPECT_EQ(grounding.stats.template_misses, instances);
      const CircuitCache::Stats& a = bound.stats.cache;
      const CircuitCache::Stats& b = grounding.stats.cache;
      EXPECT_EQ(a.hits, b.hits);
      EXPECT_EQ(a.compiles, b.compiles);
      EXPECT_EQ(a.batch_passes, b.batch_passes);
      EXPECT_EQ(a.batched_vectors, b.batched_vectors);
      EXPECT_EQ(a.evictions, b.evictions);
      EXPECT_EQ(a.resident_bytes, b.resident_bytes);
      EXPECT_EQ(a.fixed64_vectors, b.fixed64_vectors);
      EXPECT_EQ(bound.stats.unsafe_compiled, grounding.stats.unsafe_compiled);
      EXPECT_EQ(bound.stats.anytime_interval, grounding.stats.anytime_interval);
      EXPECT_EQ(bound.stats.anytime_sampled, grounding.stats.anytime_sampled);
      EXPECT_EQ(expiring.stats.cache.hits + expiring.stats.cache.compiles,
                b.hits + b.compiles);
    }
  }
}

TEST(BoundTemplateTest, ExpiredBindingsTakeTheProbeRouteAndRebind) {
  FaultGuard guard;  // an armed fault point would skew the counts below
  const Query h1 = H1Query();
  GfomcSession session;
  GfomcSessionTestPeer peer(&session);
  GmcOptions request = session.options();
  request.routing_mode = RoutingMode::kExact;
  uint64_t weights = 0;
  // One call per pattern in `patterns`, each at fresh weights, checked
  // against brute force.
  auto evaluate = [&](std::vector<uint64_t> patterns) {
    std::vector<Tid> tids;
    for (const uint64_t pattern : patterns) {
      tids.push_back(SupportTid(h1, 3, pattern, ++weights, {8, 7}, false));
    }
    std::vector<GmcAnswer> answers;
    const std::vector<GmcStatus> statuses =
        session.EvaluateAnswers(h1, tids, request, &answers);
    for (size_t i = 0; i < tids.size(); ++i) {
      ASSERT_TRUE(statuses[i].ok()) << statuses[i].message;
      EXPECT_EQ(answers[i].exact, BruteForceQueryProbability(h1, tids[i]));
    }
  };
  const uint64_t p = 1, q = 2, r = 3;
  auto compiles = [&]() -> uint64_t { return session.stats().cache.compiles; };

  // Bound on first sight: the repeat is a bound hit.
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 0u);
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 1u);

  // Clear: the binding expires, the repeat probes, compiles and rebinds.
  peer.circuits().Clear();
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 1u);
  EXPECT_EQ(compiles(), 2u);
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 2u);

  // LRU eviction: q's compile evicts p's circuit under a one-byte budget.
  GmcOptions small = session.options();
  small.max_resident_bytes = 1;
  session.Configure(small);
  evaluate({q});
  EXPECT_EQ(session.stats().cache.evictions, 1u);
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 2u);
  EXPECT_EQ(compiles(), 4u);
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 3u);
  small.max_resident_bytes = 0;
  session.Configure(small);

  // A lost insert leaves no entry to bind: every sight recompiles.
  std::string error;
  ASSERT_TRUE(fault::Configure("cache.insert=1", &error)) << error;
  evaluate({r});
  evaluate({r});
  EXPECT_EQ(compiles(), 6u);
  EXPECT_EQ(peer.bound_hits(), 3u);
  fault::Reset();
  evaluate({r});
  evaluate({r});
  EXPECT_EQ(compiles(), 7u);
  EXPECT_EQ(peer.bound_hits(), 4u);

  // A template-table reset at kMaxBytes drops the template and its
  // binding: p grounds again, and its probe finds the resident circuit.
  // The filler patterns are empty lineages of ∀x∀y S(x,y) at default 1,
  // about 15 KiB of pattern words each.
  const Query filler = ParseQueryOrDie("Ax Ay (S(x,y))");
  GroundingTemplates& templates = peer.templates();
  size_t held = templates.size();
  bool reset = false;
  for (int side = 250; side > 0 && !reset; --side) {
    for (int other = 250; other < 260 && !reset; ++other) {
      bool hit = false;
      templates.Ground(filler, Tid(filler.vocab_ptr(), side, other), &hit);
      reset = templates.size() < held;
      held = templates.size();
    }
  }
  ASSERT_TRUE(reset);
  const uint64_t misses = session.stats().template_misses;
  evaluate({p});
  EXPECT_EQ(session.stats().template_misses, misses + 1);
  EXPECT_EQ(compiles(), 7u);
  EXPECT_EQ(peer.bound_hits(), 4u);
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 5u);

  // A pattern-hash replacement: with every key forced equal, p and q keep
  // replacing each other's template, so neither stays bound — within one
  // call too.
  templates.ForcePatternKeyForTesting(42);
  evaluate({p});
  evaluate({q, p, q});
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 5u);
  evaluate({p});
  EXPECT_EQ(peer.bound_hits(), 6u);
  templates.ForcePatternKeyForTesting(std::nullopt);
  EXPECT_EQ(compiles(), 8u);  // q's circuit went with the one-byte budget
}

TEST(BoundTemplateTest, ClauseEqualPatternsShareOnePassAtTheWidestWidth) {
  // H1 over 1×1 with R(0) = 0: S(0,0) alone is the lineage. T(0)
  // uncertain interns a variable whose clause S(0,0) ∨ T(0) is then
  // subsumed; T(0) = 1 interns none. Two patterns, one clause list, two
  // widths, one circuit.
  FaultGuard guard;
  const Query h1 = H1Query();
  const Vocabulary& v = h1.vocab();
  auto tid = [&](const Rational& s, const Rational& t) {
    Tid out(h1.vocab_ptr(), 1, 1, Rational::One());
    out.SetUnaryLeft(v.Find("R"), 0, Rational::Zero());
    out.SetBinary(v.Find("S"), 0, 0, s);
    out.SetUnaryRight(v.Find("T"), 0, t);
    return out;
  };
  const Lineage wide = Ground(h1, tid(Rational(1, 4), Rational(1, 3)));
  const Lineage narrow = Ground(h1, tid(Rational(1, 4), Rational::One()));
  ASSERT_EQ(wide.cnf.clauses, narrow.cnf.clauses);
  ASSERT_EQ(wide.cnf.num_vars, 2);
  ASSERT_EQ(narrow.cnf.num_vars, 1);

  GfomcSession session;
  GfomcSessionTestPeer peer(&session);
  for (int round = 0; round < 3; ++round) {
    const std::vector<Tid> tids = {
        tid(Rational(1, 4 + round), Rational(1, 3)),
        tid(Rational(2, 5 + round), Rational::One())};
    std::vector<GmcAnswer> answers;
    ASSERT_TRUE(session.EvaluateAnswers(h1, tids, &answers).ok());
    for (size_t i = 0; i < tids.size(); ++i) {
      EXPECT_EQ(answers[i].exact, BruteForceQueryProbability(h1, tids[i]));
    }
  }
  const CircuitCache::Stats stats = session.stats().cache;
  EXPECT_EQ(peer.bound_hits(), 4u);  // both members of rounds 1 and 2
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.batch_passes, 3u);  // one per call
  EXPECT_EQ(stats.batched_vectors, 6u);
}

TEST(BoundTemplateTest, AFiredDeadlineStillTimesOutABoundHit) {
  FaultGuard guard;
  const Query h1 = H1Query();
  GfomcSession session;
  GfomcSessionTestPeer peer(&session);
  const Tid warm = SupportTid(h1, 3, 1, 1, {8}, false);
  GmcAnswer answer;
  ASSERT_TRUE(session.EvaluateAnswer(h1, warm, &answer).ok());
  ASSERT_TRUE(session.EvaluateAnswer(h1, warm, &answer).ok());
  ASSERT_EQ(peer.bound_hits(), 1u);

  // H1 8×8 at ½ compiles for tens of milliseconds, far past a 1 ms
  // deadline, so the token has fired before the bound instance routes.
  GmcOptions request = session.options();
  request.routing_mode = RoutingMode::kExact;
  request.deadline_ms = 1;
  const std::vector<Tid> tids = {Tid(h1.vocab_ptr(), 8, 8, Rational::Half()),
                                 SupportTid(h1, 3, 1, 2, {8}, false)};
  std::vector<GmcAnswer> answers;
  const std::vector<GmcStatus> statuses =
      session.EvaluateAnswers(h1, tids, request, &answers);
  EXPECT_EQ(statuses[0].code, GmcStatusCode::kDeadlineExceeded);
  EXPECT_EQ(statuses[1].code, GmcStatusCode::kDeadlineExceeded);
  EXPECT_EQ(session.stats().deadline_exceeded, 2u);
  EXPECT_EQ(peer.bound_hits(), 1u);

  // The binding outlives the timeout.
  ASSERT_TRUE(session.EvaluateAnswer(h1, tids[1], &answer).ok());
  EXPECT_EQ(answer.exact, BruteForceQueryProbability(h1, tids[1]));
  EXPECT_EQ(peer.bound_hits(), 2u);
}

}  // namespace
}  // namespace gmc
