// The robustness layer: cooperative cancellation (CancelToken), end-to-end
// deadlines through the session and the wire, byte-budgeted LRU eviction
// with shared_ptr pinning, transient-fault injection (GMC_FAULT), and the
// serve hardening (line caps, NUL rejection, idle timeouts). The invariants
// under test are the strong ones the headers promise:
//
//   - cancellation changes WHEN a pass stops, never what a completed pass
//     computes: a deadline'd attempt yields a typed kDeadlineExceeded (and
//     nothing is memoized), the retry without a deadline is bit-identical
//     to a never-deadlined run;
//   - eviction frees memory without invalidating anything: concurrent
//     GetShared hammering against a budget smaller than the working set
//     stays exact to the bit (the TSAN job runs this file);
//   - a fired fault point surfaces as a typed error or a tolerated lost
//     write on the normal failure path — never a crash, never a silently
//     wrong answer.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "approx/karp_luby.h"
#include "compile/circuit_cache.h"
#include "compile/nnf.h"
#include "core/dichotomy.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "serve/serve.h"
#include "store/circuit_io.h"
#include "store/circuit_store.h"
#include "fault_guard.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace gmc {
namespace {

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Tid UniformTid(const Query& query, int n) {
  return Tid(query.vocab_ptr(), n, n, Rational(1, 3));
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// ---------------------------------------------------------------------------
// CancelToken

TEST(CancelTokenTest, DefaultTokenFiresOnlyOnExplicitCancel) {
  CancelToken token;
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.Poll());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.Poll());
}

TEST(CancelTokenTest, ZeroDeadlineMeansUnarmed) {
  CancelToken token(0);
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.Poll());
}

TEST(CancelTokenTest, DeadlineLatchesThroughPoll) {
  CancelToken token(1);
  EXPECT_TRUE(token.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // cancelled() never reads the clock: until someone Polls, the flag is
  // still down even though the deadline has passed.
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Poll());
  EXPECT_TRUE(token.cancelled());  // latched for every other worker
}

// ---------------------------------------------------------------------------
// Fault injection

// A GMC_FAULT spec that names an unknown point is malformed, and the env
// install then disables every point: a stale name would leave a faults run
// green with nothing armed. So the ambient spec must parse. Configure
// installs it exactly as the env install would, before the first Reset
// below.
TEST(FaultTest, AmbientSpecParses) {
  const char* spec = std::getenv("GMC_FAULT");
  if (spec == nullptr) GTEST_SKIP() << "GMC_FAULT unset";
  std::string error;
  EXPECT_TRUE(fault::Configure(spec, &error)) << error;
}

// The env install disarms a malformed spec and names the variable and the
// parse error on stderr. It runs once per process, at the first crossing,
// so the threadsafe style runs the check in a freshly started child; the
// child exits 0 only if the crossing found every point disarmed.
TEST(FaultDeathTest, MalformedEnvSpecIsDisarmedAndReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("GMC_FAULT", "approx.plan=0.05,seed=7", 1);
        (void)fault::ShouldFail(fault::Point::kStoreRead);
        std::exit(fault::CrossingCount(fault::Point::kStoreRead) == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "GMC_FAULT=\"approx\\.plan=0\\.05,seed=7\" is malformed \\(unknown "
      "fault point 'approx\\.plan'\\); every fault point is disarmed");
}

TEST(FaultTest, RateOneFiresEveryCrossingAndCountersTick) {
  FaultGuard guard;
  std::string error;
  ASSERT_TRUE(fault::Configure("cache.insert=1,seed=42", &error)) << error;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fault::ShouldFail(fault::Point::kCacheInsert));
  }
  EXPECT_EQ(fault::InjectedCount(fault::Point::kCacheInsert), 5u);
  EXPECT_EQ(fault::CrossingCount(fault::Point::kCacheInsert), 5u);
  // Unconfigured points never fire but still count crossings.
  EXPECT_FALSE(fault::ShouldFail(fault::Point::kStoreWrite));
  EXPECT_EQ(fault::InjectedCount(fault::Point::kStoreWrite), 0u);
  EXPECT_EQ(fault::CrossingCount(fault::Point::kStoreWrite), 1u);
}

TEST(FaultTest, DecisionsAreAPureFunctionOfSeedAndCrossingIndex) {
  FaultGuard guard;
  const std::string spec = "store.read=0.5,seed=7";
  std::vector<bool> first;
  ASSERT_TRUE(fault::Configure(spec));
  for (int i = 0; i < 200; ++i) {
    first.push_back(fault::ShouldFail(fault::Point::kStoreRead));
  }
  // Same seed, fresh counters: the exact same crossings fire again.
  ASSERT_TRUE(fault::Configure(spec));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(fault::ShouldFail(fault::Point::kStoreRead), first[i])
        << "crossing " << i;
  }
  // The pattern is a real mix at rate 0.5, not a constant.
  EXPECT_GT(fault::InjectedCount(fault::Point::kStoreRead), 50u);
  EXPECT_LT(fault::InjectedCount(fault::Point::kStoreRead), 150u);
}

TEST(FaultTest, MalformedSpecIsRejectedAndKeepsThePreviousSpec) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Configure("store.write=1,seed=1"));
  std::string error;
  EXPECT_FALSE(fault::Configure("store.write=nope", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::Configure("no.such.point=0.5", &error));
  // The previous spec is still active.
  EXPECT_TRUE(fault::ShouldFail(fault::Point::kStoreWrite));
  fault::Reset();
  EXPECT_FALSE(fault::ShouldFail(fault::Point::kStoreWrite));
  // Disabled injection is the zero-cost path: not even crossings count.
  EXPECT_EQ(fault::CrossingCount(fault::Point::kStoreWrite), 0u);
}

TEST(FaultTest, StoreWriteFaultSurfacesAsTypedSaveError) {
  FaultGuard guard;
  char tmpl[] = "/tmp/gmc_robust_store_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  const Query query = H1();
  const Lineage lineage = Ground(query, UniformTid(query, 3));
  CircuitCache cache;
  const std::shared_ptr<const NnfCircuit> pinned =
      cache.GetShared(lineage.cnf);
  const NnfCircuit& circuit = *pinned;

  store::CircuitStore store(dir);
  std::string error;
  ASSERT_TRUE(fault::Configure("store.write=1,seed=1"));
  EXPECT_FALSE(store.Save(circuit, lineage.cnf, OrderHeuristic::kDefault,
                          &error));
  EXPECT_NE(error.find("fault injection"), std::string::npos) << error;

  // Self-healing: the same save lands once the fault clears.
  fault::Reset();
  ASSERT_TRUE(store.Save(circuit, lineage.cnf, OrderHeuristic::kDefault,
                         &error))
      << error;
  for (const std::string& path : store.ListEntries()) ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(FaultTest, CacheInsertFaultLosesTheEntryNeverTheAnswer) {
  FaultGuard guard;
  const Query query = H1();
  const Lineage lineage = Ground(query, UniformTid(query, 3));

  CircuitCache reference;
  const Rational want =
      reference.GetShared(lineage.cnf)->Evaluate(lineage.probabilities);

  ASSERT_TRUE(fault::Configure("cache.insert=1,seed=1"));
  CircuitCache cache;
  // Every lookup recompiles (the insert is lost each time), yet every
  // answer is exact and the returned reference stays valid until Clear.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
              want);
  }
  EXPECT_EQ(cache.stats().compiles, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_GE(fault::InjectedCount(fault::Point::kCacheInsert), 3u);
}

TEST(FaultTest, StoreReadFaultDegradesToARecompileWithCorrectBits) {
  FaultGuard guard;
  char tmpl[] = "/tmp/gmc_robust_store_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  const Query query = H1();
  const Lineage lineage = Ground(query, UniformTid(query, 3));
  GmcOptions store_options;
  store_options.store_directory = dir;
  Rational want;
  {
    // Populate the store via write-through.
    CircuitCache writer;
    writer.Configure(store_options);
    want = writer.GetShared(lineage.cnf)->Evaluate(lineage.probabilities);
  }

  ASSERT_TRUE(fault::Configure("store.read=1,seed=1"));
  CircuitCache reader;
  reader.Configure(store_options);
  EXPECT_EQ(reader.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
            want);
  // The read-through was exercised and failed; the compile covered it.
  EXPECT_GE(fault::InjectedCount(fault::Point::kStoreRead), 1u);
  EXPECT_EQ(reader.stats().compiles, 1u);

  fault::Reset();
  for (const std::string& path :
       store::CircuitStore(dir).ListEntries()) {
    ::unlink(path.c_str());
  }
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// Cancelled circuit walks

TEST(CancelledWalkTest, CancelledPassKeepsSizesAndRetryIsBitIdentical) {
  const Query query = H1();
  const Lineage lineage = Ground(query, UniformTid(query, 4));
  CircuitCache cache;
  const std::shared_ptr<const NnfCircuit> pinned =
      cache.GetShared(lineage.cnf);
  const NnfCircuit& circuit = *pinned;
  const WeightMatrix weights =
      WeightMatrix::FromRows({lineage.probabilities});
  const std::vector<Rational> want = circuit.EvaluateBatch(weights, 1);
  ASSERT_EQ(want.size(), 1u);
  const std::vector<ProbInterval> want_interval =
      circuit.EvaluateBatchInterval(weights, 1);
  ASSERT_EQ(want_interval.size(), 1u);
  auto same_bits = [](const ProbInterval& x, const ProbInterval& y) {
    return std::memcmp(&x, &y, sizeof(ProbInterval)) == 0;
  };

  for (int threads : {1, 2, 8}) {
    CancelToken token;
    token.Cancel();
    // A cancelled pass keeps the size contract (callers index the result
    // before checking the token) but its values are meaningless.
    const std::vector<Rational> cancelled =
        circuit.EvaluateBatch(weights, threads, &token);
    EXPECT_EQ(cancelled.size(), want.size());
    EXPECT_EQ(circuit.EvaluateBatchInterval(weights, threads, &token).size(),
              want_interval.size());
    EXPECT_TRUE(token.cancelled());
    // An un-fired token never perturbs the pass: bit-identical results.
    CancelToken idle;
    EXPECT_EQ(circuit.EvaluateBatch(weights, threads, &idle), want);
    const std::vector<ProbInterval> interval =
        circuit.EvaluateBatchInterval(weights, threads, &idle);
    ASSERT_EQ(interval.size(), want_interval.size());
    EXPECT_TRUE(same_bits(interval[0], want_interval[0]));
    EXPECT_FALSE(idle.cancelled());
  }

  // The dyadic kernel at each mantissa width, on k/2^e grids whose folds
  // land at uint64 (e = 1), UInt128 (e = 4) and BigInt (e = 8); 64 columns
  // make several slices at every width and thread count.
  constexpr int kColumns = 64;
  const std::pair<int, int DyadicBatchStats::*> grids[] = {
      {1, &DyadicBatchStats::fixed64_vectors},
      {4, &DyadicBatchStats::fixed128_vectors},
      {8, &DyadicBatchStats::bigint_vectors}};
  for (const auto& [exponent, width] : grids) {
    const int64_t den = int64_t{1} << exponent;
    std::vector<std::vector<Rational>> rows;
    for (int k = 0; k < kColumns; ++k) {
      std::vector<Rational> row;
      for (size_t v = 0; v < lineage.probabilities.size(); ++v) {
        row.emplace_back(1 + static_cast<int64_t>(k + v) % den, den);
      }
      rows.push_back(std::move(row));
    }
    const WeightMatrix grid = WeightMatrix::FromRows(rows);
    DyadicBatchStats stats;
    const std::vector<Rational> want_dyadic =
        circuit.EvaluateBatchDyadic(grid, 1, &stats);
    ASSERT_EQ(stats.*width, kColumns) << "exponent " << exponent;
    for (int threads : {1, 2, 8}) {
      CancelToken token;
      token.Cancel();
      EXPECT_EQ(
          circuit.EvaluateBatchDyadic(grid, threads, nullptr, &token).size(),
          want_dyadic.size());
      CancelToken idle;
      EXPECT_EQ(circuit.EvaluateBatchDyadic(grid, threads, nullptr, &idle),
                want_dyadic)
          << "exponent " << exponent << " threads " << threads;
      EXPECT_FALSE(idle.cancelled());
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end session deadlines

// The acceptance pin: a deadline D against a cold compile+eval that costs
// MUCH more than D comes back as a typed error in about D — at every
// thread count — and the very next evaluation without a deadline succeeds
// bit-identically (nothing was memoized by the aborted attempt).
TEST(SessionDeadlineTest, ColdEvaluationRespectsDeadlineAtEveryThreadCount) {
  const Query query = H1();
  const Tid tid = UniformTid(query, 8);  // ~tens of ms cold on dev hardware

  // Ground truth plus the cold cost from a deadline-free session.
  GfomcSession reference;
  {
    GmcOptions opts = reference.options();
    opts.routing_mode = RoutingMode::kExact;
    opts.compile_budget = CompileBudget{};
    reference.Configure(opts);
  }
  const auto cold_start = std::chrono::steady_clock::now();
  GmcAnswer expected;
  ASSERT_TRUE(reference.EvaluateAnswer(query, tid, &expected).ok());
  const double cold_ms = ElapsedMs(cold_start);

  constexpr uint64_t kDeadlineMs = 5;
  // Hardware too fast for the instance to dwarf the deadline would make
  // the pin vacuous, not wrong; keep the ratio honest.
  ASSERT_GT(cold_ms, 2.0 * kDeadlineMs)
      << "instance too small to exercise the deadline";

  for (int threads : {1, 2, 8}) {
    GfomcSession session;
    GmcOptions opts = session.options();
    opts.routing_mode = RoutingMode::kExact;
    opts.compile_budget = CompileBudget{};
    opts.num_threads = threads;
    opts.deadline_ms = kDeadlineMs;
    session.Configure(opts);

    const auto start = std::chrono::steady_clock::now();
    GmcAnswer answer;
    const GmcStatus status = session.EvaluateAnswer(query, tid, &answer);
    const double elapsed_ms = ElapsedMs(start);

    ASSERT_FALSE(status.ok()) << "threads=" << threads;
    EXPECT_EQ(status.code, GmcStatusCode::kDeadlineExceeded);
    // Polling is amortized, so the overshoot is bounded by a poll stride,
    // not by the instance: well under the cold cost, targeting 2·D.
    EXPECT_LE(elapsed_ms, std::max(2.0 * kDeadlineMs, cold_ms / 2.0))
        << "threads=" << threads << " cold_ms=" << cold_ms;
    EXPECT_GE(session.stats().deadline_exceeded, 1u);

    // Nothing memoized: the SAME session without the deadline succeeds
    // and matches the reference to the bit.
    opts.deadline_ms = 0;
    session.Configure(opts);
    GmcAnswer retry;
    ASSERT_TRUE(session.EvaluateAnswer(query, tid, &retry).ok())
        << "threads=" << threads;
    EXPECT_EQ(retry.exact.ToString(), expected.exact.ToString());
  }
}

// The sampled tier never reports a deadline error: it degrades to the
// achieved-epsilon anytime certificate at however many samples it drew.
TEST(SessionDeadlineTest, SamplerDegradesInsteadOfErroring) {
  const Query query = H1();
  const Lineage lineage = Ground(query, UniformTid(query, 4));
  KarpLubyParams params;
  params.epsilon = 0.005;  // demands far more samples than one poll stride
  params.delta = 0.01;
  params.max_samples = 0;

  CancelToken fired;
  fired.Cancel();
  params.cancel = &fired;
  const KarpLubyResult result =
      KarpLubyEstimate(lineage.cnf, lineage.probabilities, params);
  ASSERT_FALSE(result.exact);
  // Stopped at the first poll (stride 64), certificate recomputed for the
  // count actually drawn — strictly weaker than the target.
  EXPECT_EQ(result.samples, 64u);
  EXPECT_GT(result.epsilon, params.epsilon);

  // The same run without a deadline hits the target epsilon.
  params.cancel = nullptr;
  params.epsilon = 0.2;  // cheap target: the full run stays fast
  const KarpLubyResult full =
      KarpLubyEstimate(lineage.cnf, lineage.probabilities, params);
  EXPECT_DOUBLE_EQ(full.epsilon, 0.2);
}

// ---------------------------------------------------------------------------
// Byte-budgeted LRU eviction

TEST(EvictionTest, BudgetEvictsLruAndAnswersStayExact) {
  const Query query = H1();
  // Three distinct lineage structures with strictly growing circuits.
  std::vector<Lineage> lineages;
  for (int n : {3, 4, 5}) {
    lineages.push_back(Ground(query, UniformTid(query, n)));
  }

  // Reference pass (unbounded) also measures the working set.
  CircuitCache reference;
  std::vector<Rational> want;
  uint64_t smallest_two = 0;
  {
    std::vector<uint64_t> sizes;
    for (const Lineage& lineage : lineages) {
      want.push_back(
          reference.GetShared(lineage.cnf)->Evaluate(lineage.probabilities));
      sizes.push_back(reference.GetShared(lineage.cnf)->MemoryBytes());
    }
    smallest_two = sizes[0] + sizes[1];
    ASSERT_LT(smallest_two, sizes[0] + sizes[1] + sizes[2]);
  }

  CircuitCache cache;
  GmcOptions opts = cache.options();
  opts.max_resident_bytes = smallest_two;  // the full set cannot fit
  cache.Configure(opts);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < lineages.size(); ++i) {
      EXPECT_EQ(
          cache.GetShared(lineages[i].cnf)->Evaluate(lineages[i].probabilities),
          want[i]);
    }
  }
  const CircuitCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  // The gauge never counts evicted bytes; the only allowed overshoot is
  // the newest entry, which is shielded until the next insert.
  EXPECT_LE(stats.resident_bytes,
            smallest_two + reference.GetShared(lineages[2].cnf)->MemoryBytes());
}

TEST(EvictionTest, EvictedButPersistedCircuitsReloadFromTheStore) {
  char tmpl[] = "/tmp/gmc_robust_store_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  const Query query = H1();
  std::vector<Lineage> lineages;
  for (int n : {3, 4, 5}) {
    lineages.push_back(Ground(query, UniformTid(query, n)));
  }
  uint64_t budget = 0;
  {
    CircuitCache sizer;
    budget = sizer.GetShared(lineages[0].cnf)->MemoryBytes() +
             sizer.GetShared(lineages[1].cnf)->MemoryBytes();
  }

  CircuitCache cache;
  GmcOptions opts = cache.options();
  opts.max_resident_bytes = budget;
  opts.store_directory = dir;  // write-through persists every compile
  cache.Configure(opts);
  for (const Lineage& lineage : lineages) {
    (void)cache.GetShared(lineage.cnf);
  }
  ASSERT_GT(cache.stats().evictions, 0u);
  const uint64_t compiles_before = cache.stats().compiles;

  // Touch everything again: evicted entries come back as store hits, not
  // recompiles.
  for (const Lineage& lineage : lineages) {
    ASSERT_NE(cache.GetShared(lineage.cnf), nullptr);
  }
  EXPECT_EQ(cache.stats().compiles, compiles_before);
  EXPECT_GT(cache.stats().store_hits, 0u);

  for (const std::string& path :
       store::CircuitStore(dir).ListEntries()) {
    ::unlink(path.c_str());
  }
  ::rmdir(dir.c_str());
}

// One session, one cache, one byte budget: a warm start from a store larger
// than max_resident_bytes loads each stored circuit once and ends inside
// the cap, safe and unsafe traffic share that cap, and a flush writes each
// resident circuit once.
TEST(EvictionTest, SessionHoldsEachCircuitOnceUnderOneCap) {
  FaultGuard guard;  // every circuit below must reach the store
  char store_tmpl[] = "/tmp/gmc_robust_store_XXXXXX";
  char flush_tmpl[] = "/tmp/gmc_robust_flush_XXXXXX";
  ASSERT_NE(::mkdtemp(store_tmpl), nullptr);
  ASSERT_NE(::mkdtemp(flush_tmpl), nullptr);
  const std::string store_dir = store_tmpl;
  const std::string flush_dir = flush_tmpl;

  // Eight structures of similar size: a 4x4 domain with one binary tuple
  // made certain at a different pair each time.
  const Query query = H1();
  std::vector<Tid> tids;
  for (int k = 0; k < 8; ++k) {
    Tid tid = UniformTid(query, 4);
    tid.SetBinary(query.vocab().Find("S"), k / 4, k % 4, Rational::One());
    tids.push_back(std::move(tid));
  }
  // The caches live on the heap: std::mutex has a trivial destructor, so
  // ThreadSanitizer would take later tests' stack caches, reusing this
  // frame's addresses, for the same mutexes and report a false
  // lock-order cycle.
  std::vector<Rational> want;
  {
    auto writer = std::make_unique<CircuitCache>();
    GmcOptions options = writer->options();
    options.store_directory = store_dir;  // write-through every compile
    writer->Configure(options);
    for (const Tid& tid : tids) {
      const Lineage lineage = Ground(query, tid);
      want.push_back(
          writer->GetShared(lineage.cnf)->Evaluate(lineage.probabilities));
    }
  }
  const size_t stored = store::CircuitStore(store_dir).ListEntries().size();
  ASSERT_EQ(stored, tids.size());
  uint64_t total = 0;
  uint64_t largest = 0;
  for (const std::string& path :
       store::CircuitStore(store_dir).ListEntries()) {
    store::LoadedCircuit loaded;
    ASSERT_TRUE(store::LoadCircuit(path, &loaded, nullptr));
    total += loaded.circuit.MemoryBytes();
    largest = std::max(largest, loaded.circuit.MemoryBytes());
  }
  const uint64_t cap = total / 2;
  ASSERT_GE(cap, largest) << "every circuit must fit the cap alone";

  auto session = std::make_unique<GfomcSession>();
  GmcOptions opts = session->options();
  opts.max_resident_bytes = cap;
  session->Configure(opts);
  EXPECT_EQ(session->WarmCircuitsFrom(store_dir), stored);
  EXPECT_LE(session->stats().cache.resident_bytes, cap);

  const std::vector<GfomcResult> results = session->EvaluateMany(query, tids);
  for (size_t i = 0; i < tids.size(); ++i) {
    EXPECT_EQ(results[i].probability, want[i]) << "tid " << i;
  }
  const Query safe = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  session->EvaluateMany(safe, {Tid(safe.vocab_ptr(), 3, 3, Rational::Half())});
  const GfomcSession::Stats stats = session->stats();
  EXPECT_EQ(stats.safe_compiled, 1u);  // the safe route used the cache too
  EXPECT_GT(stats.cache.evictions, 0u);
  EXPECT_LE(stats.cache.resident_bytes, cap);

  const size_t saved = session->SaveCircuitsTo(flush_dir);
  EXPECT_GT(saved, 0u);
  EXPECT_EQ(saved, store::CircuitStore(flush_dir).ListEntries().size());

  for (const std::string& dir : {store_dir, flush_dir}) {
    for (const std::string& path : store::CircuitStore(dir).ListEntries()) {
      ::unlink(path.c_str());
    }
    ::rmdir(dir.c_str());
  }
}

// The TSAN pin: 8 threads hammer GetShared + evaluate against a budget
// that holds ~2 of 3 circuits, so evictions race live pins constantly.
// Every answer must stay exact and every shared_ptr valid.
TEST(EvictionTest, ConcurrentHammerUnderTinyBudgetStaysExact) {
  const Query query = H1();
  std::vector<Lineage> lineages;
  for (int n : {3, 4, 5}) {
    lineages.push_back(Ground(query, UniformTid(query, n)));
  }
  CircuitCache reference;
  std::vector<Rational> want;
  uint64_t budget = 0;
  for (size_t i = 0; i < lineages.size(); ++i) {
    const Lineage& lineage = lineages[i];
    want.push_back(
        reference.GetShared(lineage.cnf)->Evaluate(lineage.probabilities));
    if (i < 2) {
      budget += reference.GetShared(lineage.cnf)->MemoryBytes();
    }
  }

  CircuitCache cache;
  GmcOptions opts = cache.options();
  opts.max_resident_bytes = budget;
  cache.Configure(opts);

  constexpr int kThreads = 8;
  constexpr int kIters = 30;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t which = static_cast<size_t>((t + i) % 3);
        const Lineage& lineage = lineages[which];
        // Pin, then evaluate through the pin: eviction may drop the map
        // entry mid-flight, the walk must not care.
        std::shared_ptr<const NnfCircuit> circuit =
            cache.GetShared(lineage.cnf);
        if (circuit == nullptr) {
          ++mismatches[t];
          continue;
        }
        const WeightMatrix weights =
            WeightMatrix::FromRows({lineage.probabilities});
        if (circuit->EvaluateBatch(weights, 1)[0] != want[which]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

// Deadline firing mid-flight must leave the cache consistent: aborted
// compiles are never memoized, so later un-deadlined traffic (from any
// thread count) converges on the exact answer.
TEST(EvictionTest, DeadlinedCompilesLeaveTheCacheConsistent) {
  const Query query = H1();
  const Lineage lineage = Ground(query, UniformTid(query, 8));
  CircuitCache reference;
  const Rational want =
      reference.GetShared(lineage.cnf)->Evaluate(lineage.probabilities);

  for (int threads : {1, 2, 8}) {
    CircuitCache cache;
    GmcOptions options = cache.options();
    options.num_threads = threads;
    cache.Configure(options);
    CancelToken fired;
    fired.Cancel();
    // A pre-fired token aborts the compile deterministically (the first
    // amortized poll): null result, cancelled flag, nothing cached.
    EXPECT_EQ(cache.TryGetShared(lineage.cnf, CompileBudget{}, &fired),
              nullptr);
    EXPECT_TRUE(fired.cancelled());
    EXPECT_EQ(cache.stats().budget_exhausted, 0u);  // not a budget failure
    // The same cache still serves the exact answer afterwards.
    EXPECT_EQ(cache.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
              want);
  }
}

// ---------------------------------------------------------------------------
// The wire: deadlines, line caps, NUL bytes, idle timeouts

using serve::GmcServer;

std::string TestSocketPath(const std::string& name) {
  return "/tmp/gmc_robust_test_" + std::to_string(::getpid()) + "_" + name +
         ".sock";
}

// Minimal blocking line client (serve_test.cc's, trimmed): HELLO consumed
// on connect, reads bounded by SO_RCVTIMEO.
class LineClient {
 public:
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return false;
    }
    return ReadLine() == "HELLO gmc_serve 1";
  }

  bool SendRaw(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  std::string ReadLine() {
    size_t pos;
    while ((pos = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string line = buffer_.substr(0, pos);
    buffer_.erase(0, pos + 1);
    return line;
  }

  std::string Roundtrip(const std::string& line) {
    if (!SendRaw(line + "\n")) return "";
    return ReadLine();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(ServeRobustTest, PerRequestDeadlineAnswersTypedTimeout) {
  const Query query = H1();
  // Self-calibrating bound: the cold in-process cost of the same instance
  // scales with the machine (and with TSAN) exactly like the server does.
  GfomcSession reference;
  {
    GmcOptions opts = reference.options();
    opts.routing_mode = RoutingMode::kExact;
    opts.compile_budget = CompileBudget{};
    reference.Configure(opts);
  }
  const Tid tid = UniformTid(query, 8);
  const auto cold_start = std::chrono::steady_clock::now();
  GmcAnswer expected;
  ASSERT_TRUE(reference.EvaluateAnswer(query, tid, &expected).ok());
  const double cold_ms = ElapsedMs(cold_start);
  ASSERT_GT(cold_ms, 10.0) << "instance too small to exercise the deadline";

  serve::GmcServerOptions options;
  options.socket_path = TestSocketPath("deadline");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  const auto start = std::chrono::steady_clock::now();
  const std::string response =
      client.Roundtrip("EVAL q1 deadline=5 8 8 1/3");
  const double elapsed_ms = ElapsedMs(start);
  ASSERT_EQ(response.rfind("ERR q1 TIMEOUT", 0), 0u) << response;
  EXPECT_LT(elapsed_ms, cold_ms) << "timeout reply slower than the answer";

  // The same request without a deadline succeeds on the same connection,
  // bit-identical to the in-process reference.
  EXPECT_EQ(client.Roundtrip("EVAL q2 8 8 1/3"),
            "OK q2 " + expected.exact.ToString() + " lifted=0");
  // And a generous deadline changes nothing but the route: same bits.
  EXPECT_EQ(client.Roundtrip("EVAL q3 deadline=60000 8 8 1/3"),
            "OK q3 " + expected.exact.ToString() + " lifted=0");

  const std::string stats = client.Roundtrip("STATS");
  EXPECT_NE(stats.find(" timeouts=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find(" deadline_exceeded=1"), std::string::npos) << stats;
  EXPECT_EQ(client.Roundtrip("QUIT"), "BYE");
  server.Stop();
}

TEST(ServeRobustTest, DeadlineTokenParses) {
  serve::GmcServerOptions options;
  options.socket_path = TestSocketPath("dparse");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  EXPECT_EQ(client.Roundtrip("EVAL q1 deadline=abc 2 2 1/2")
                .rfind("ERR q1 PARSE", 0),
            0u);
  EXPECT_EQ(client.Roundtrip("EVAL q2 deadline= 2 2 1/2")
                .rfind("ERR q2 PARSE", 0),
            0u);
  // deadline=0 is "no deadline", still a valid token on both verbs.
  EXPECT_EQ(client.Roundtrip("EVAL q3 deadline=0 2 2 1/2").rfind("OK q3", 0),
            0u);
  EXPECT_EQ(client
                .Roundtrip(
                    "EVAL_APPROX q4 deadline=60000 exact 1/20 1/100 2 2 1/2")
                .rfind("OK q4 EXACT", 0),
            0u);
  EXPECT_EQ(client.Roundtrip("QUIT"), "BYE");
  server.Stop();
}

TEST(ServeRobustTest, OversizeLineGetsTypedErrorThenClose) {
  serve::GmcServerOptions options;
  options.socket_path = TestSocketPath("oversize");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  // One unterminated line past the 1 MiB cap: typed reject, then EOF.
  const std::string hostile((1 << 20) + 64, 'x');
  // The server may reject and close while the tail is still in flight, so
  // a short send is not a test failure here.
  (void)client.SendRaw(hostile);
  const std::string response = client.ReadLine();
  EXPECT_EQ(response.rfind("ERR - INVALID line exceeds", 0), 0u) << response;
  EXPECT_EQ(client.ReadLine(), "");  // connection closed

  // The server survives and keeps serving fresh connections.
  LineClient next;
  ASSERT_TRUE(next.Connect(server.socket_path()));
  EXPECT_EQ(next.Roundtrip("EVAL q1 2 2 1/2").rfind("OK q1", 0), 0u);
  const std::string stats = next.Roundtrip("STATS");
  EXPECT_NE(stats.find(" oversize_lines=1"), std::string::npos) << stats;
  server.Stop();
}

TEST(ServeRobustTest, NulByteGetsTypedErrorThenClose) {
  serve::GmcServerOptions options;
  options.socket_path = TestSocketPath("nul");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  std::string hostile = "EVAL q1 2 2 1/2\n";
  hostile[5] = '\0';
  ASSERT_TRUE(client.SendRaw(hostile));
  EXPECT_EQ(client.ReadLine().rfind("ERR - INVALID NUL", 0), 0u);
  EXPECT_EQ(client.ReadLine(), "");
  server.Stop();
  EXPECT_EQ(server.stats().oversize_lines, 1u);
}

TEST(ServeRobustTest, IdleConnectionsAreReaped) {
  serve::GmcServerOptions options;
  options.socket_path = TestSocketPath("idle");
  options.read_idle_ms = 50;
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  // An active client is untouched...
  EXPECT_EQ(client.Roundtrip("EVAL q1 2 2 1/2").rfind("OK q1", 0), 0u);
  // ...then goes idle past the bound and is closed by the server.
  EXPECT_EQ(client.ReadLine(), "");
  server.Stop();
  EXPECT_EQ(server.stats().idle_disconnects, 1u);
}

TEST(ServeRobustTest, SocketWriteFaultDropsTheReplyNotTheServer) {
  FaultGuard guard;
  serve::GmcServerOptions options;
  options.socket_path = TestSocketPath("sockfault");
  GmcServer server(H1(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LineClient client;
  ASSERT_TRUE(client.Connect(server.socket_path()));
  // Warm the answer first so both roundtrips are cache hits.
  EXPECT_EQ(client.Roundtrip("EVAL q1 2 2 1/2").rfind("OK q1", 0), 0u);

  ASSERT_TRUE(fault::Configure("socket.write=1,seed=1"));
  // The reply to this request is swallowed — the client sees nothing, the
  // server carries on. Wait for the injection counter to prove the drop
  // actually happened before clearing the fault, so the next roundtrip is
  // deterministic.
  ASSERT_TRUE(client.SendRaw("EVAL q2 2 2 1/2\n"));
  const auto dropped = std::chrono::steady_clock::now();
  while (fault::InjectedCount(fault::Point::kSocketWrite) == 0 &&
         ElapsedMs(dropped) < 5000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fault::InjectedCount(fault::Point::kSocketWrite), 1u);
  fault::Reset();
  EXPECT_EQ(client.Roundtrip("EVAL q3 2 2 1/2").rfind("OK q3", 0), 0u);
  EXPECT_EQ(client.Roundtrip("QUIT"), "BYE");
  server.Stop();
}

}  // namespace
}  // namespace gmc
