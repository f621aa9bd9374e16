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

}  // namespace
}  // namespace gmc
