// The robustness layer's overhead contract: deadlines and fault points are
// always compiled in, so their dormant cost must be unmeasurable.
//
// Two always-on costs are pinned here:
//   - cancel polling: every batch arena slice calls CancelToken::Poll()
//     every 64 nodes. With an armed-but-distant deadline that is one
//     relaxed load plus a steady-clock read per 64 nodes; with no token it
//     is a null-pointer test. Design target: an armed token that never
//     fires costs < 2% over the no-token pass (BM_BatchEvalNoToken vs
//     BM_BatchEvalArmedToken). BM_RobustCrossCheck enforces a generous
//     hard cap (25%, min-of-7 runs) so CI noise cannot flake the job while
//     a real regression — an accidental clock read per node, a poll in the
//     inner BigInt loop — still fails loudly.
//   - dormant fault points: fault::ShouldFail with no spec installed is
//     one relaxed atomic load and a predictable branch; with a spec armed
//     on a DIFFERENT point it additionally pays the crossing counter.
//     Both are measured per call (BM_FaultPointDormant / Armed) so the
//     baselines pin them at nanoseconds, not microseconds.
//   - the brownout governor: every admission pays one RecordQueueDepth,
//     every drain one RecordQueueWait, every shed/degrade decision one
//     level()+retry_after_ms() read (BM_Governor*). All lock-free; the
//     baselines pin them at nanoseconds alongside the fault points.
//   - the request parse: every request line is split into words and its
//     TID tail parsed before admission (BM_ParseRequestLine, on lines of
//     the e2ebench hot_exact and certified shapes, with the cost per
//     tuple token as a counter).
//
// BM_RobustCrossCheck also pins the cancellation semantics the overhead
// numbers depend on: a pass completed under an unfired token is
// bit-identical to the no-token pass, and a pre-fired token still returns
// a full-size (discardable) result without crashing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "compile/compiler.h"
#include "compile/nnf.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "serve/overload.h"
#include "serve/serve.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/rational.h"

namespace {

gmc::Query H1() {
  return gmc::ParseQueryOrDie(
      "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

gmc::Lineage SweepLineage() {
  gmc::Type1Reduction reduction(H1());
  gmc::P2Cnf phi = gmc::P2Cnf::Random(5, 5, /*seed=*/42);
  gmc::Tid tid = reduction.BuildTid(phi, 2, 2);
  return gmc::Ground(reduction.query(), tid);
}

gmc::NnfCircuit SweepCircuit(const gmc::Lineage& lineage) {
  gmc::Compiler compiler;
  compiler.set_minimize(true);
  return compiler.Compile(lineage);
}

gmc::WeightMatrix SweepWeights(const gmc::Lineage& lineage, int num_k) {
  std::vector<std::vector<gmc::Rational>> rows;
  for (int k = 1; k <= num_k; ++k) {
    rows.emplace_back(lineage.probabilities.size(),
                      gmc::Rational(k, num_k + 1));
  }
  return gmc::WeightMatrix::FromRows(rows);
}

// A deadline far enough out that the token never fires inside a bench
// iteration, so the pass pays the full armed polling cost end to end.
constexpr uint64_t kDistantDeadlineMs = 3600ull * 1000ull;

// Single-threaded passes throughout: the pin is per-node polling cost, and
// one slice per pass keeps the measurement free of pool-scheduling noise.

void BM_BatchEvalNoToken(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = SweepCircuit(lineage);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        circuit.EvaluateBatch(weights, /*num_threads=*/1));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvalNoToken)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_BatchEvalArmedToken(benchmark::State& state) {
  const int num_k = static_cast<int>(state.range(0));
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = SweepCircuit(lineage);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  for (auto _ : state) {
    // A fresh token per pass: real requests arm one token per deadline,
    // and constructing it (one clock read) is part of the cost.
    gmc::CancelToken token(kDistantDeadlineMs);
    benchmark::DoNotOptimize(
        circuit.EvaluateBatch(weights, /*num_threads=*/1, &token));
  }
  state.counters["weight_vectors"] = num_k;
  state.counters["circuit_nodes"] = static_cast<double>(circuit.num_nodes());
}
BENCHMARK(BM_BatchEvalArmedToken)->Arg(64)->Unit(benchmark::kMillisecond);

// One dormant crossing: no spec installed anywhere, so this is the exact
// cost every store read/write and cache insert pays in production.
void BM_FaultPointDormant(benchmark::State& state) {
  gmc::fault::Reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gmc::fault::ShouldFail(gmc::fault::Point::kStoreWrite));
  }
  state.counters["injected"] = static_cast<double>(
      gmc::fault::InjectedCount(gmc::fault::Point::kStoreWrite));
  gmc::fault::Reset();
}
BENCHMARK(BM_FaultPointDormant);

// A spec armed on a DIFFERENT point: the crossing pays the enabled path
// (counter bump + hash + compare against a zero threshold) but never
// fires — the worst case for a point that is merely near active faults.
void BM_FaultPointArmed(benchmark::State& state) {
  gmc::fault::Configure("cache.insert=0.5,seed=1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gmc::fault::ShouldFail(gmc::fault::Point::kStoreWrite));
  }
  state.counters["injected"] = static_cast<double>(
      gmc::fault::InjectedCount(gmc::fault::Point::kStoreWrite));
  gmc::fault::Reset();
}
BENCHMARK(BM_FaultPointArmed);

// The brownout governor's hot-admission cost: every admitted request pays
// one RecordQueueDepth (an atomic load, a handful of float ops, and a
// level CAS that almost never moves) inside the queue critical section.
// Pinned here next to the fault-point budget: both must stay nanoseconds,
// or admission — the path every request crosses — inherits the cost.
void BM_GovernorRecordDepth(benchmark::State& state) {
  gmc::serve::OverloadOptions options;
  options.capacity = 64;
  gmc::serve::LoadGovernor governor(options);
  uint64_t depth = 0;
  for (auto _ : state) {
    // Sweep depths below yellow_exit so the level never transitions —
    // the steady-state (GREEN, no CAS retry) cost the admission path
    // pays on every request.
    governor.RecordQueueDepth(depth);
    depth = (depth + 1) & 7;
  }
  state.counters["transitions"] =
      static_cast<double>(governor.transitions());
}
BENCHMARK(BM_GovernorRecordDepth);

// The per-request drain-side feed: one EWMA fold (CAS loop, uncontended
// here) plus the same recompute.
void BM_GovernorRecordWait(benchmark::State& state) {
  gmc::serve::OverloadOptions options;
  options.wait_budget_ms = 250;
  gmc::serve::LoadGovernor governor(options);
  uint64_t wait_ms = 0;
  for (auto _ : state) {
    governor.RecordQueueWait(wait_ms);
    wait_ms = (wait_ms + 1) & 15;  // well under the budget: stays GREEN
  }
  state.counters["transitions"] =
      static_cast<double>(governor.transitions());
}
BENCHMARK(BM_GovernorRecordWait);

// The read everyone else pays: level() + retry_after_ms() on a shed or
// degrade decision — two relaxed loads and a shift.
void BM_GovernorDecision(benchmark::State& state) {
  gmc::serve::LoadGovernor governor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(governor.level());
    benchmark::DoNotOptimize(governor.retry_after_ms());
  }
}
BENCHMARK(BM_GovernorDecision);

// Request lines of the two e2ebench shapes. hot_exact: H1 over 4x4, each
// of the 24 tuples certain (omitted), absent (S only, "=0") or at a fresh
// dyadic k/2^j, j in 1..4, on EVAL or EVAL_APPROX exact. certified: C9
// over 3x3, all 36 tuples at a fresh k/7 or k/11, on EVAL_APPROX interval.
enum class LineShape { kHotExact, kCertified };

std::vector<std::string> RequestLines(LineShape shape, int count) {
  std::mt19937_64 rng(7);
  auto below = [&rng](uint64_t n) { return static_cast<int>(rng() % n); };
  std::vector<std::string> lines;
  for (int i = 0; i < count; ++i) {
    std::string line;
    if (shape == LineShape::kHotExact) {
      line = below(2) == 0 ? "EVAL h0-" + std::to_string(i) + " 4 4 1"
                           : "EVAL_APPROX h0-" + std::to_string(i) +
                                 " exact 1/10 1/20 4 4 1";
      auto weight = [&](const std::string& tuple, bool binary) {
        const int r = below(100);
        if (binary && r < 10) {
          line += " " + tuple + "=0";
        } else if (r >= (binary ? 50 : 45)) {
          const int den = 2 << below(4);
          line += " " + tuple + "=" + std::to_string(2 * below(den / 2) + 1) +
                  "/" + std::to_string(den);
        }
      };
      for (int u = 0; u < 4; ++u) weight("R(" + std::to_string(u) + ")", false);
      for (int v = 0; v < 4; ++v) weight("T(" + std::to_string(v) + ")", false);
      for (int u = 0; u < 4; ++u) {
        for (int v = 0; v < 4; ++v) {
          weight("S(" + std::to_string(u) + "," + std::to_string(v) + ")",
                 true);
        }
      }
    } else {
      line = "EVAL_APPROX i0-" + std::to_string(i) +
             " interval 1/10 1/20 3 3 1";
      for (const char* symbol : {"S1", "S2", "S3", "S4"}) {
        for (int u = 0; u < 3; ++u) {
          for (int v = 0; v < 3; ++v) {
            const int den = below(2) == 0 ? 7 : 11;
            line += std::string(" ") + symbol + "(" + std::to_string(u) +
                    "," + std::to_string(v) + ")=" +
                    std::to_string(1 + below(den - 1)) + "/" +
                    std::to_string(den);
          }
        }
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

// The reader's parse of one request line: split into words, then the TID
// tail from <num_left> on (after <id>, or after <id> <mode> <eps> <delta>
// on EVAL_APPROX). Fails the run if any line does not parse.
void BM_ParseRequestLine(benchmark::State& state, LineShape shape) {
  const gmc::Query query = gmc::ParseQueryOrDie(
      shape == LineShape::kHotExact
          ? "Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))"
          : "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
            "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
  const std::vector<std::string> lines = RequestLines(shape, 256);
  size_t line = 0;
  double tuple_tokens = 0;
  std::string detail;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const std::vector<std::string_view> words =
        gmc::serve::internal::SplitWords(lines[line]);
    const size_t first = words[0] == "EVAL_APPROX" ? 5 : 2;
    const std::optional<gmc::Tid> tid = gmc::serve::internal::ParseTidTail(
        query, words, first, /*max_domain=*/256, &detail);
    if (!tid.has_value() ||
        tid->explicit_tuples().size() != words.size() - first - 3) {
      state.SkipWithError(("request line did not parse: " + detail).c_str());
      return;
    }
    benchmark::DoNotOptimize(tid);
    tuple_tokens += static_cast<double>(words.size() - first - 3);
    line = (line + 1) % lines.size();
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  state.counters["ns_per_tuple_token"] =
      tuple_tokens > 0 ? elapsed_ns / tuple_tokens : 0.0;
  state.counters["tuple_tokens_per_line"] =
      tuple_tokens / static_cast<double>(state.iterations());
}
BENCHMARK_CAPTURE(BM_ParseRequestLine, hot_exact, LineShape::kHotExact);
BENCHMARK_CAPTURE(BM_ParseRequestLine, certified, LineShape::kCertified);

// Correctness + overhead guard, registered as a benchmark so a violation
// fails the bench run loudly:
//   - armed-but-unfired pass is bit-identical to the no-token pass;
//   - a pre-fired token returns a full-size result (discardable, but
//     well-formed) and reports cancelled;
//   - min-of-7 armed wall time stays within 25% of min-of-7 baseline
//     (design target < 2%; the cap is generous because CI runners are
//     noisy, while a poll misplaced into the per-node inner loop costs
//     well over 25% and still trips it).
void BM_RobustCrossCheck(benchmark::State& state) {
  const int num_k = 64;
  gmc::Lineage lineage = SweepLineage();
  gmc::NnfCircuit circuit = SweepCircuit(lineage);
  gmc::WeightMatrix weights = SweepWeights(lineage, num_k);
  using Clock = std::chrono::steady_clock;
  double ratio = 0.0;
  for (auto _ : state) {
    const std::vector<gmc::Rational> baseline =
        circuit.EvaluateBatch(weights, /*num_threads=*/1);
    gmc::CancelToken distant(kDistantDeadlineMs);
    const std::vector<gmc::Rational> armed =
        circuit.EvaluateBatch(weights, /*num_threads=*/1, &distant);
    if (distant.cancelled() || armed != baseline) {
      state.SkipWithError("armed-but-unfired pass is not bit-identical");
      return;
    }
    gmc::CancelToken fired;
    fired.Cancel();
    const std::vector<gmc::Rational> discarded =
        circuit.EvaluateBatch(weights, /*num_threads=*/1, &fired);
    if (!fired.cancelled() || discarded.size() != baseline.size()) {
      state.SkipWithError("cancelled pass lost its output shape");
      return;
    }

    double best_base = 1e300;
    double best_armed = 1e300;
    for (int rep = 0; rep < 7; ++rep) {
      auto t0 = Clock::now();
      benchmark::DoNotOptimize(
          circuit.EvaluateBatch(weights, /*num_threads=*/1));
      auto t1 = Clock::now();
      gmc::CancelToken token(kDistantDeadlineMs);
      benchmark::DoNotOptimize(
          circuit.EvaluateBatch(weights, /*num_threads=*/1, &token));
      auto t2 = Clock::now();
      best_base =
          std::min(best_base, std::chrono::duration<double>(t1 - t0).count());
      best_armed =
          std::min(best_armed, std::chrono::duration<double>(t2 - t1).count());
    }
    ratio = best_armed / best_base;
    if (ratio > 1.25) {
      state.SkipWithError("armed cancel polling costs >25% over baseline");
      return;
    }
  }
  state.counters["armed_over_baseline"] = ratio;
  state.counters["weight_vectors"] = num_k;
}
BENCHMARK(BM_RobustCrossCheck)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
