// Self-tests of the benchmark harness: seeded request streams are
// byte-identical, the reply parser accepts every shape src/serve/serve.h
// documents (and rejects malformed lines), and the percentile and span
// self-time arithmetic is right on hand-made inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "harness.h"

namespace gmc_e2e {
namespace {

// The first requests of the window's, the warm-up's and two launches'
// streams, as the wire sees them.
std::string Stream(Workload workload, uint64_t seed) {
  const HotPool pool(seed, 200);
  std::string out;
  for (int stream : {0, 1, 1000, 1008}) {
    for (uint64_t i = 0; i < 100; ++i) {
      out += MakeRequest(workload, seed, stream, i, &pool).Line();
      out += '\n';
    }
  }
  return out;
}

TEST(RequestStream, SameSeedIsByteIdentical) {
  for (Workload workload : kWorkloads) {
    SCOPED_TRACE(WorkloadName(workload));
    EXPECT_EQ(Stream(workload, 7), Stream(workload, 7));
    EXPECT_NE(Stream(workload, 7), Stream(workload, 8));
  }
}

TEST(RequestStream, WorkloadNamesRoundTrip) {
  for (Workload workload : kWorkloads) {
    Workload parsed = Workload::kHotExact;
    ASSERT_TRUE(ParseWorkload(WorkloadName(workload), &parsed));
    EXPECT_EQ(parsed, workload);
  }
  Workload parsed;
  EXPECT_FALSE(ParseWorkload("certified", &parsed));
}

TEST(RequestStream, RequestsRegenerateOneByOne) {
  const HotPool pool(3, 200);
  const Request a = MakeRequest(Workload::kHotExact, 3, 2, 41, &pool);
  const Request b = MakeRequest(Workload::kHotExact, 3, 2, 41, &pool);
  EXPECT_EQ(a.Line(), b.Line());
  EXPECT_EQ(a.id, "h2-41");
  EXPECT_EQ(a.pool_member, b.pool_member);
}

TEST(RequestStream, WorkloadShapes) {
  const HotPool pool(5, 200);
  int approx = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    const Request hot = MakeRequest(Workload::kHotExact, 5, 0, i, &pool);
    approx += hot.approx;
    if (hot.approx) EXPECT_EQ(hot.mode, "exact");
    EXPECT_EQ(hot.instance.num_left, HotPool::kDomain);
    for (const Assign& a : hot.instance.tuples) {
      // Pool weights are absent (0, S tuples only) or dyadic k/2^j, j <= 4.
      if (a.num == 0) {
        EXPECT_EQ(a.symbol, "S");
      } else {
        EXPECT_TRUE(a.den >= 2 && a.den <= 16 && (a.den & (a.den - 1)) == 0 &&
                    a.num % 2 == 1)
            << hot.Line();
      }
    }

    for (Workload certified :
         {Workload::kCertifiedInterval, Workload::kCertifiedSampled}) {
      const Request r = MakeRequest(certified, 5, 1, i, nullptr);
      EXPECT_TRUE(r.approx);
      EXPECT_EQ(r.mode, certified == Workload::kCertifiedInterval
                            ? "interval"
                            : "sample");
      EXPECT_EQ(r.eps, kCertifiedTarget.eps);
      EXPECT_EQ(r.delta, kCertifiedTarget.delta);
      EXPECT_EQ(r.instance.tuples.size(), 36u);  // C9 on 3×3, all uncertain
      for (const Assign& a : r.instance.tuples) {
        EXPECT_TRUE(a.den == 7 || a.den == 11);
        EXPECT_TRUE(a.num >= 1 && a.num < a.den);
      }
    }
  }
  EXPECT_GT(approx, 150);  // about half the hot traffic is EVAL_APPROX
  EXPECT_LT(approx, 250);
}

TEST(RequestStream, TidTailAndLine) {
  Instance instance{2, 3, 1, 2, {{"R", 0, -1, 1, 4}, {"S", 1, 2, 0, 1}}};
  EXPECT_EQ(TidTail(instance), "2 3 1/2 R(0)=1/4 S(1,2)=0");
  Request r;
  r.id = "x1";
  r.instance = instance;
  EXPECT_EQ(r.Line(), "EVAL x1 2 3 1/2 R(0)=1/4 S(1,2)=0");
  r.approx = true;
  r.mode = "interval";
  r.eps = "1/10";
  r.delta = "1/20";
  EXPECT_EQ(r.Line(),
            "EVAL_APPROX x1 interval 1/10 1/20 2 3 1/2 R(0)=1/4 S(1,2)=0");
}

TEST(RequestStream, ZipfPopularity) {
  const HotPool pool(11, 1000);
  Rng rng(1);
  std::vector<int> hits(1000);
  for (int i = 0; i < 100000; ++i) ++hits[pool.Pick(&rng)];
  // Zipf(1) over 1000 members: the top member draws 1/H(1000) ≈ 13%.
  EXPECT_NEAR(hits[0] / 100000.0, 0.134, 0.01);
  EXPECT_GT(hits[0], hits[9] * 5);
}

Reply Parse(const std::string& line) {
  Reply reply;
  EXPECT_TRUE(ParseReply(line, &reply)) << line;
  return reply;
}

TEST(ReplyParser, EveryDocumentedShape) {
  EXPECT_EQ(Parse("HELLO gmc_serve 1").kind, ReplyKind::kHello);
  EXPECT_EQ(Parse("BYE").kind, ReplyKind::kBye);

  Reply eval = Parse("OK q1 5/8 lifted=0");
  EXPECT_EQ(eval.kind, ReplyKind::kOkEval);
  EXPECT_EQ(eval.id, "q1");
  EXPECT_EQ(eval.value, "5/8");
  EXPECT_FALSE(eval.lifted);
  EXPECT_TRUE(Parse("OK q2 1 lifted=1").lifted);

  Reply exact = Parse("OK a1 EXACT 3/16 tier=compiled");
  EXPECT_EQ(exact.kind, ReplyKind::kOkExact);
  EXPECT_EQ(exact.value, "3/16");
  EXPECT_EQ(exact.tier, "compiled");
  EXPECT_EQ(Parse("OK a2 EXACT 0 tier=recursive").tier, "recursive");
  EXPECT_EQ(Parse("OK a3 EXACT 1 tier=lifted").tier, "lifted");

  Reply interval = Parse(
      "OK a4 INTERVAL 4.4956740267480703e-06 4.4956740267481448e-06 "
      "tier=interval");
  EXPECT_EQ(interval.kind, ReplyKind::kOkInterval);
  EXPECT_EQ(interval.lo, 4.4956740267480703e-06);
  EXPECT_EQ(interval.hi, 4.4956740267481448e-06);
  EXPECT_EQ(interval.tier, "interval");

  // An estimate outside [0, 1] within its eps is a legal reply.
  Reply estimate = Parse(
      "OK a5 ESTIMATE -0.011721241230867346 eps=0.29173139049917107 "
      "delta=0.050000000000000003 samples=8192 tier=sampled");
  EXPECT_EQ(estimate.kind, ReplyKind::kOkEstimate);
  EXPECT_EQ(estimate.estimate, -0.011721241230867346);
  EXPECT_EQ(estimate.eps, 0.29173139049917107);
  EXPECT_EQ(estimate.delta, 0.050000000000000003);
  EXPECT_EQ(estimate.samples, 8192u);
  EXPECT_EQ(estimate.tier, "sampled");

  Reply shed = Parse("ERR q3 SHED retry_after_ms=100 queue full (limit 64)");
  EXPECT_EQ(shed.kind, ReplyKind::kErr);
  EXPECT_EQ(shed.id, "q3");
  EXPECT_EQ(shed.err, "SHED");
  EXPECT_EQ(shed.retry_after_ms, 100);
  EXPECT_FALSE(shed.ok());

  Reply busy =
      Parse("ERR - BUSY retry_after_ms=25 server at connection limit (4)");
  EXPECT_EQ(busy.err, "BUSY");
  EXPECT_EQ(busy.id, "-");
  EXPECT_EQ(busy.retry_after_ms, 25);

  EXPECT_EQ(Parse("ERR q4 PARSE domain sides must be integers in [0, 256]").err,
            "PARSE");
  EXPECT_EQ(
      Parse("ERR q5 INVALID eps and delta must be rationals strictly in (0, 1)")
          .err,
      "INVALID");
  EXPECT_EQ(Parse("ERR - INVALID line exceeds 1048576 bytes").err, "INVALID");
  EXPECT_EQ(Parse("ERR q6 BUDGET compile budget exhausted").err, "BUDGET");
  EXPECT_EQ(Parse("ERR q7 TIMEOUT deadline exceeded before an answer").err,
            "TIMEOUT");

  Reply stats = Parse(
      "STATS connections=1 requests=200 shed=0 batches=180 "
      "batched_requests=200 circuit_compiles=134");
  EXPECT_EQ(stats.kind, ReplyKind::kStats);
  EXPECT_EQ(Field(stats, "batched_requests"), 200);
  EXPECT_EQ(Field(stats, "circuit_compiles"), 134);
  EXPECT_EQ(Field(stats, "missing"), 0);

  Reply health = Parse(
      "HEALTH pressure=red queue=64 inflight=12 connections=4 "
      "wait_ewma_ms=31.25 store=attached scrubbed=1531 quarantined=0");
  EXPECT_EQ(health.kind, ReplyKind::kHealth);
  EXPECT_EQ(health.fields.at("pressure"), "red");
  EXPECT_EQ(Field(health, "wait_ewma_ms"), 31.25);
}

TEST(ReplyParser, RejectsMalformedLines) {
  for (const char* line :
       {"", "OK", "OK q1", "OK q1 abc lifted=0", "OK q1 1/2 lifted=2",
        "OK q1 1/2", "OK a1 EXACT x/2 tier=compiled", "OK a1 EXACT 1/2",
        "OK a1 INTERVAL 0.1 tier=interval", "OK a1 INTERVAL a b tier=interval",
        "OK a1 ESTIMATE 0.5 eps=x delta=0.1 samples=9 tier=sampled",
        "OK a1 ESTIMATE 0.5 eps=0.1 delta=0.1 samples=-1 tier=sampled",
        "ERR q1 WHAT happened", "ERR q1 SHED soon", "ERR q1",
        "HELLO someone 1", "STATS novalue", "NOPE q1 1"}) {
    Reply reply;
    EXPECT_FALSE(ParseReply(line, &reply)) << line;
  }
}

TEST(Statistics, Quantiles) {
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Quantile({10}, 0.99), 10);
  EXPECT_EQ(Quantile({5, 1, 4, 2, 3}, 0.5), 3);  // unsorted input
  EXPECT_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_EQ(Quantile({1, 2, 3, 4}, 0.0), 1);
  EXPECT_EQ(Quantile({1, 2, 3, 4}, 1.0), 4);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_NEAR(Quantile(hundred, 0.99), 99.01, 1e-9);
  EXPECT_NEAR(Quantile(hundred, 0.25), 25.75, 1e-9);
  EXPECT_EQ(Mean({}), 0);
  EXPECT_EQ(Mean({1, 2, 3, 6}), 3);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(6);
  spans[0] = {"request", -1, "r", 0, 100, 1};
  spans[1] = {"a", 0, "r", 10, 30, 1};   // overlaps the next child
  spans[2] = {"b", 0, "r", 20, 50, 1};
  spans[3] = {"c", 0, "r", 90, 120, 1};  // clipped to the parent: 90..100
  spans[4] = {"a.inner", 1, "r", 12, 18, 1};  // a grandchild: not the root's
  spans[5] = {"other", -1, "s", 200, 260, 1};
  const std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 6u);
  EXPECT_EQ(self[0], 100 - (50 - 10) - (100 - 90));  // 50
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 60);
}

TEST(Spans, ChildrenCoveringTheParentLeaveNoSelfTime) {
  std::vector<Span> spans = {{"p", -1, "r", 0, 40, 1},
                             {"x", 0, "r", 0, 20, 1},
                             {"y", 0, "r", 20, 40, 1}};
  EXPECT_EQ(SelfTimes(spans)[0], 0);
}

TEST(Result, JsonLineCarriesEveryDigit) {
  const std::string json =
      ResultJson(true, 12, 0,
                 {{"latency_ms", 0.1, "ms", 12}, {"setup_s", 1.0 / 3, "s", 5}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"s\"}}}");
  EXPECT_NE(ResultJson(false, 1, 1, {{"x", std::nan(""), "ms", 0}})
                .find("\"value\": 0,"),
            std::string::npos);
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

}  // namespace
}  // namespace gmc_e2e
