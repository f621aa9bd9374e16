// The circuit store: persistence without a single bit of drift.
//
// Pins (a) save→load→evaluate bit-identity of the owning load against the
// in-memory circuit on random CNFs and the paper's gadget corpus, across
// every order heuristic, both exact batch evaluators, and 1/2/8 threads;
// (b) clean rejection (no crash, no UB, an error string) of truncated,
// bit-flipped, version-skewed, and structurally corrupt files;
// (c) the CircuitCache integration: read-through, write-through,
// SaveTo/WarmFrom (including WarmFrom racing live compiles), the
// store_hits/store_misses/store_rejected counters, and the GMC_STORE-
// default plumbing.

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "compile/circuit_cache.h"
#include "compile/compiler.h"
#include "compile/nnf.h"
#include "compile/vtree.h"
#include "core/dichotomy.h"
#include "hardness/p2cnf.h"
#include "hardness/reduction_type1.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/tid.h"
#include "scoped_env.h"
#include "store/circuit_format.h"
#include "store/circuit_io.h"
#include "store/circuit_store.h"
#include "store/scrub.h"

namespace gmc {
namespace {

constexpr OrderHeuristic kAllOrders[] = {
    OrderHeuristic::kDefault, OrderHeuristic::kMinFill,
    OrderHeuristic::kBalanced};

constexpr int kThreadCounts[] = {1, 2, 8};

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Query ExampleC9() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

// The Type-I and Type-II gadget lineages — the circuits the store will
// actually persist in production (the hardness reductions' workloads).
std::vector<Lineage> GadgetCorpus(int max_type2_domain) {
  std::vector<Lineage> corpus;
  for (int nm = 2; nm <= 4; ++nm) {
    Type1Reduction reduction(H1());
    P2Cnf phi = P2Cnf::Random(nm, std::min(nm, nm * (nm - 1) / 2),
                              /*seed=*/17);
    Tid tid = reduction.BuildTid(phi, 1, 2);
    corpus.push_back(Ground(reduction.query(), tid));
  }
  Query q = ExampleC9();
  for (int d = 3; d <= max_type2_domain; ++d) {
    Tid tid(q.vocab_ptr(), d, d, Rational::Half());
    corpus.push_back(Ground(q, tid));
  }
  return corpus;
}

Cnf RandomCnf(std::mt19937_64& rng) {
  const int num_vars = 3 + static_cast<int>(rng() % 10);
  const int num_clauses = 1 + static_cast<int>(rng() % 12);
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (int c = 0; c < num_clauses; ++c) {
    const int len = 1 + static_cast<int>(rng() % 4);
    std::vector<int> clause;
    for (int l = 0; l < len; ++l) {
      clause.push_back(static_cast<int>(rng() % num_vars));
    }
    cnf.AddClause(std::move(clause));
  }
  cnf.RemoveSubsumed();
  return cnf;
}

// K all-dyadic weight vectors (varying per column and variable) — the
// interpolation-grid shape, eligible for EvaluateBatchDyadic.
WeightMatrix DyadicWeights(int num_vars, int k) {
  WeightMatrix weights(k, num_vars);
  for (int column = 0; column < k; ++column) {
    for (int v = 0; v < num_vars; ++v) {
      weights.Set(column, v, Rational((column + v) % 9, 16));
    }
  }
  return weights;
}

// Non-dyadic weights, so EvaluateBatch takes the general Rational path.
WeightMatrix RationalWeights(int num_vars, int k) {
  WeightMatrix weights(k, num_vars);
  for (int column = 0; column < k; ++column) {
    for (int v = 0; v < num_vars; ++v) {
      weights.Set(column, v, Rational((column + 2 * v) % 7, 7));
    }
  }
  return weights;
}

// A scratch directory per test, removed with its contents on teardown.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/gmc_store_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    for (const std::string& path : store::CircuitStore(dir_).ListEntries()) {
      ::unlink(path.c_str());
    }
    // Self-healing reads may have quarantined corrupt fixtures.
    const std::string qdir = dir_ + "/" + store::kQuarantineDirName;
    for (const std::string& path : store::CircuitStore(qdir).ListEntries()) {
      ::unlink(path.c_str());
      ::unlink((path + ".reason").c_str());
    }
    ::rmdir(qdir.c_str());
    ::rmdir(dir_.c_str());
  }

  // Options attaching a cache to dir_, read-through + write-through.
  GmcOptions StoreOptions() const {
    GmcOptions options;
    options.store_directory = dir_;
    return options;
  }

  std::string dir_;
};

NnfCircuit CompileUnder(const Cnf& cnf, OrderHeuristic order) {
  Compiler compiler;
  compiler.set_order(order);
  return compiler.Compile(cnf);
}

// The acceptance bar: every exact batch evaluator, at every thread count,
// agrees BIT-IDENTICALLY between the in-memory circuit and an owning load
// of the same file.
void ExpectRoundTripBitIdentical(const NnfCircuit& original, const Cnf& cnf,
                                 OrderHeuristic order,
                                 const std::string& path) {
  std::string error;
  ASSERT_TRUE(store::SaveCircuit(original, cnf, order, path, &error)) << error;

  store::LoadedCircuit loaded;
  ASSERT_TRUE(store::LoadCircuit(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.order, order);
  EXPECT_EQ(loaded.cnf_hash, cnf.Hash64());
  EXPECT_EQ(loaded.cnf.clauses, cnf.clauses);
  EXPECT_EQ(loaded.circuit.Fingerprint(), original.Fingerprint());
  EXPECT_EQ(loaded.fingerprint, original.Fingerprint());

  const int num_vars = original.num_vars();
  const WeightMatrix dyadic = DyadicWeights(num_vars, 5);
  const WeightMatrix rational = RationalWeights(num_vars, 5);
  for (int threads : kThreadCounts) {
    const std::vector<Rational> want_rat =
        original.EvaluateBatch(rational, threads);
    EXPECT_EQ(loaded.circuit.EvaluateBatch(rational, threads), want_rat);

    const std::vector<Rational> want_dy =
        original.EvaluateBatchDyadic(dyadic, threads);
    EXPECT_EQ(loaded.circuit.EvaluateBatchDyadic(dyadic, threads), want_dy);
    // The two exact evaluators agree with each other too, through the
    // stored bytes.
    EXPECT_EQ(loaded.circuit.EvaluateBatch(dyadic, threads), want_dy);
  }
}

TEST_F(StoreTest, RoundTripRandomCnfsAllOrders) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 12; ++i) {
    const Cnf cnf = RandomCnf(rng);
    for (OrderHeuristic order : kAllOrders) {
      ExpectRoundTripBitIdentical(CompileUnder(cnf, order), cnf, order,
                                  dir_ + "/random.gmcc");
    }
  }
}

TEST_F(StoreTest, RoundTripGadgetCorpusAllOrders) {
  for (const Lineage& lineage : GadgetCorpus(/*max_type2_domain=*/4)) {
    ASSERT_FALSE(lineage.is_false);
    for (OrderHeuristic order : kAllOrders) {
      ExpectRoundTripBitIdentical(CompileUnder(lineage.cnf, order),
                                  lineage.cnf, order, dir_ + "/gadget.gmcc");
    }
  }
}

TEST_F(StoreTest, SingleEvaluateMatchesThroughTheStore) {
  const Lineage lineage = GadgetCorpus(3).back();
  const NnfCircuit circuit =
      CompileUnder(lineage.cnf, OrderHeuristic::kMinFill);
  const std::string path = dir_ + "/single.gmcc";
  std::string error;
  ASSERT_TRUE(store::SaveCircuit(circuit, lineage.cnf,
                                 OrderHeuristic::kMinFill, path, &error));
  store::LoadedCircuit loaded;
  ASSERT_TRUE(store::LoadCircuit(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.circuit.Evaluate(lineage.probabilities),
            circuit.Evaluate(lineage.probabilities));
}

TEST_F(StoreTest, LoadedCircuitConcurrentEvaluation) {
  const Lineage lineage = GadgetCorpus(4).back();
  const NnfCircuit circuit =
      CompileUnder(lineage.cnf, OrderHeuristic::kDefault);
  const std::string path = dir_ + "/conc.gmcc";
  std::string error;
  ASSERT_TRUE(store::SaveCircuit(circuit, lineage.cnf,
                                 OrderHeuristic::kDefault, path, &error));
  store::LoadedCircuit loaded;
  ASSERT_TRUE(store::LoadCircuit(path, &loaded, &error)) << error;

  const WeightMatrix weights = DyadicWeights(circuit.num_vars(), 6);
  const std::vector<Rational> want = circuit.EvaluateBatchDyadic(weights, 1);
  std::vector<std::thread> workers;
  std::vector<int> ok(8, 0);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      // One loaded circuit, eight concurrent walkers (each internally
      // parallel too) — the shape of a resident store hit under load.
      ok[t] = loaded.circuit.EvaluateBatchDyadic(weights, 2) == want ? 1 : 0;
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

TEST_F(StoreTest, FingerprintIsOrderIndependentAndDiscriminating) {
  // The same formula compiled under different orders yields differently
  // SHAPED circuits — fingerprints may differ. But renumbering the same
  // DAG must not move the fingerprint: FromFlat(view()) is the identity on
  // structure.
  std::mt19937_64 rng(21);
  const Cnf a = RandomCnf(rng);
  const Cnf b = RandomCnf(rng);
  const NnfCircuit ca = CompileUnder(a, OrderHeuristic::kDefault);
  const NnfCircuit cb = CompileUnder(b, OrderHeuristic::kDefault);
  EXPECT_EQ(NnfCircuit::FromFlat(ca.view()).Fingerprint(),
            ca.Fingerprint());
  ASSERT_NE(a.clauses, b.clauses);
  EXPECT_NE(ca.Fingerprint(), cb.Fingerprint());
}

TEST(StoreGoldenTest, EncodedBytesMatchTheRecordedImages) {
  // No other test compares an encoding with one an earlier build wrote. A
  // changed node numbering, child-pool order or record field would make
  // every deployed store entry fail its fingerprint check and recompile
  // without any error; these sizes and checksums were recorded from the
  // encoder before NnfCircuit adopted the flat record layout in memory.
  struct Golden {
    OrderHeuristic order;
    size_t size;
    uint64_t checksum;
  };
  constexpr Golden kGolden[] = {
      {OrderHeuristic::kDefault, 656, 0x21776d2a7aedbed3ull},
      {OrderHeuristic::kMinFill, 608, 0xf983dc17ea960eecull},
      {OrderHeuristic::kBalanced, 608, 0x37f4d8ccf5d0f1b3ull},
  };
  const Query query = H1();
  const Lineage lineage =
      Ground(query, Tid(query.vocab_ptr(), 2, 2, Rational::Half()));
  for (const Golden& golden : kGolden) {
    const std::vector<uint8_t> bytes = store::EncodeCircuit(
        CompileUnder(lineage.cnf, golden.order), lineage.cnf, golden.order);
    EXPECT_EQ(bytes.size(), golden.size) << OrderHeuristicName(golden.order);
    EXPECT_EQ(store::ChecksumFile(bytes.data(), bytes.size()),
              golden.checksum)
        << OrderHeuristicName(golden.order);
  }
}

// ------------------------------------------------------------------ fuzz

std::vector<uint8_t> EncodedGadget() {
  const Lineage lineage = GadgetCorpus(3).back();
  return store::EncodeCircuit(CompileUnder(lineage.cnf,
                                           OrderHeuristic::kDefault),
                              lineage.cnf, OrderHeuristic::kDefault);
}

TEST(StoreRejectionTest, TruncationsNeverCrash) {
  const std::vector<uint8_t> bytes = EncodedGadget();
  // Every header boundary plus a sweep through the sections.
  std::vector<size_t> cuts = {0, 1, 7, 8, 16, 31, 32, 79, 80};
  for (size_t cut = 81; cut < bytes.size(); cut += 97) cuts.push_back(cut);
  cuts.push_back(bytes.size() - 1);
  for (size_t cut : cuts) {
    store::LoadedCircuit out;
    std::string error;
    EXPECT_FALSE(store::DecodeCircuit(bytes.data(), cut, &out, &error))
        << "accepted a file truncated to " << cut << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(StoreRejectionTest, EveryBitFlipIsRejected) {
  const std::vector<uint8_t> bytes = EncodedGadget();
  // Any single flipped bit breaks the checksum (or the checksum field
  // itself); stride keeps the sweep fast while still crossing every
  // section of the file.
  for (size_t byte = 0; byte < bytes.size();
       byte += (byte < sizeof(store::FileHeader) ? 1 : 13)) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[byte] ^= 0x40;
    store::LoadedCircuit out;
    std::string error;
    EXPECT_FALSE(
        store::DecodeCircuit(corrupt.data(), corrupt.size(), &out, &error))
        << "accepted a flip in byte " << byte;
  }
}

// Re-seals the checksum after a deliberate header/arena mutation, so the
// mutation reaches the STRUCTURAL validator instead of the checksum gate.
std::vector<uint8_t> Resealed(std::vector<uint8_t> bytes) {
  const uint64_t checksum =
      store::ChecksumFile(bytes.data(), bytes.size());
  std::memcpy(bytes.data() + offsetof(store::FileHeader, checksum), &checksum,
              sizeof(checksum));
  return bytes;
}

TEST(StoreRejectionTest, VersionSkewAndStructuralCorruption) {
  const std::vector<uint8_t> good = EncodedGadget();
  auto mutate = [&](size_t offset, uint32_t value) {
    std::vector<uint8_t> bad = good;
    std::memcpy(bad.data() + offset, &value, sizeof(value));
    return Resealed(std::move(bad));
  };

  struct Case {
    const char* what;
    std::vector<uint8_t> bytes;
  };
  const size_t node0 = sizeof(store::FileHeader);
  std::vector<Case> cases;
  cases.push_back({"future version",
                   mutate(offsetof(store::FileHeader, version), 2)});
  cases.push_back({"unknown order tag",
                   mutate(offsetof(store::FileHeader, order_tag), 99)});
  cases.push_back(
      {"root out of range",
       mutate(offsetof(store::FileHeader, root), 0x7fffffff)});
  cases.push_back({"node count beyond the file",
                   mutate(offsetof(store::FileHeader, num_nodes), 1 << 30)});
  cases.push_back({"unknown node kind", mutate(node0 + 2 * 16, 99)});
  // A decision node's high-branch field forced far forward: edges must
  // point at predecessors. (Scan for the first decision node — node 2 is
  // a kVar whose a/b fields are don't-cares, so corrupting IT would still
  // be a valid file.)
  {
    uint64_t num_nodes = 0;
    std::memcpy(&num_nodes, good.data() + offsetof(store::FileHeader,
                                                   num_nodes),
                sizeof(num_nodes));
    size_t decision = 0;
    for (size_t id = 2; id < num_nodes; ++id) {
      uint32_t kind = 0;
      std::memcpy(&kind, good.data() + node0 + id * 16, sizeof(kind));
      if (kind == static_cast<uint32_t>(NnfKind::kDecision)) {
        decision = id;
        break;
      }
    }
    ASSERT_NE(decision, 0u) << "gadget circuit has no decision node?";
    cases.push_back(
        {"forward edge", mutate(node0 + decision * 16 + 8, 1 << 20)});
  }
  {
    std::vector<uint8_t> bad = good;
    bad[0] = 'X';
    cases.push_back({"bad magic", Resealed(std::move(bad))});
  }
  for (const Case& c : cases) {
    store::LoadedCircuit out;
    std::string error;
    EXPECT_FALSE(
        store::DecodeCircuit(c.bytes.data(), c.bytes.size(), &out, &error))
        << "accepted: " << c.what;
    EXPECT_FALSE(error.empty()) << c.what;
  }
}

TEST_F(StoreTest, LoadRejectsCorruptFilesCleanly) {
  const std::vector<uint8_t> bytes = EncodedGadget();
  const std::string path = dir_ + "/corrupt.gmcc";
  std::vector<uint8_t> corrupt = bytes;
  corrupt[sizeof(store::FileHeader) + 5] ^= 0xff;
  FILE* f = ::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(::fwrite(corrupt.data(), 1, corrupt.size(), f), corrupt.size());
  ::fclose(f);

  std::string error;
  store::LoadedCircuit out;
  EXPECT_FALSE(store::LoadCircuit(path, &out, &error));
  EXPECT_FALSE(error.empty());
  ::unlink(path.c_str());
}

// ------------------------------------------------- CircuitCache plumbing

TEST_F(StoreTest, ReadThroughAndWriteThrough) {
  const Lineage lineage = GadgetCorpus(3).back();

  CircuitCache writer;
  writer.Configure(StoreOptions());
  EXPECT_EQ(writer.store_directory(), dir_);
  const Rational want =
      writer.GetShared(lineage.cnf)->Evaluate(lineage.probabilities);
  {
    const CircuitCache::Stats s = writer.stats();
    EXPECT_EQ(s.compiles, 1u);
    EXPECT_EQ(s.store_misses, 1u);  // cold store consulted, then compiled
    EXPECT_EQ(s.store_hits, 0u);
  }
  // The write-through landed one file, at the hash-named path.
  struct stat st;
  ASSERT_EQ(::stat(store::CircuitStore(dir_).PathFor(lineage.cnf).c_str(),
                   &st),
            0);

  // A cold process (fresh cache, same directory): the store replaces the
  // compile and the probability is bit-identical.
  CircuitCache reader;
  reader.Configure(StoreOptions());
  EXPECT_EQ(reader.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
            want);
  const CircuitCache::Stats s = reader.stats();
  EXPECT_EQ(s.compiles, 0u);
  EXPECT_EQ(s.store_hits, 1u);
}

TEST_F(StoreTest, RejectedEntryFallsBackToCompilation) {
  const Lineage lineage = GadgetCorpus(3).back();
  const std::string path = store::CircuitStore(dir_).PathFor(lineage.cnf);
  FILE* f = ::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ::fputs("not a circuit", f);
  ::fclose(f);

  CircuitCache cache;
  cache.Configure(StoreOptions());
  const Rational got =
      cache.GetShared(lineage.cnf)->Evaluate(lineage.probabilities);
  const CircuitCache::Stats s = cache.stats();
  EXPECT_EQ(s.store_rejected, 1u);
  EXPECT_EQ(s.compiles, 1u);  // fell back and recompiled
  // And the write-through healed the store: a fresh cache now hits.
  CircuitCache healed;
  healed.Configure(StoreOptions());
  EXPECT_EQ(healed.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
            got);
  EXPECT_EQ(healed.stats().store_hits, 1u);
}

TEST_F(StoreTest, SaveToThenWarmFrom) {
  const std::vector<Lineage> corpus = GadgetCorpus(4);
  CircuitCache source;  // no store attached — plain in-memory compiles
  std::vector<Rational> want;
  for (const Lineage& lineage : corpus) {
    want.push_back(
        source.GetShared(lineage.cnf)->Evaluate(lineage.probabilities));
  }
  std::string error;
  EXPECT_EQ(source.SaveTo(dir_, &error), corpus.size()) << error;

  CircuitCache warmed;
  EXPECT_EQ(warmed.WarmFrom(dir_), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const Lineage& lineage = corpus[i];
    EXPECT_EQ(warmed.GetShared(lineage.cnf)->Evaluate(lineage.probabilities),
              want[i]);
  }
  const CircuitCache::Stats s = warmed.stats();
  EXPECT_EQ(s.compiles, 0u);  // every query served by the warm start
  EXPECT_EQ(s.hits, corpus.size());
}

TEST_F(StoreTest, WarmFromRacesLiveCompiles) {
  const std::vector<Lineage> corpus = GadgetCorpus(4);
  std::vector<Rational> want;
  {
    CircuitCache source;
    for (const Lineage& lineage : corpus) {
      want.push_back(
          source.GetShared(lineage.cnf)->Evaluate(lineage.probabilities));
    }
    std::string error;
    ASSERT_EQ(source.SaveTo(dir_, &error), corpus.size()) << error;
  }

  // 8 threads: two warm the cache from disk while six evaluate the same
  // structures through Get-compiles — every interleaving must agree.
  CircuitCache cache;
  std::vector<std::thread> workers;
  std::vector<int> ok(8, 1);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      if (t < 2) {
        cache.WarmFrom(dir_);
        return;
      }
      for (size_t i = 0; i < corpus.size(); ++i) {
        const Lineage& lineage = corpus[i];
        if (cache.GetShared(lineage.cnf)->Evaluate(lineage.probabilities) !=
            want[i]) {
          ok[t] = 0;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

TEST_F(StoreTest, ResidentCircuitsCarryOnlyTheirArrays) {
  // A resident circuit — compiled into a cache, loaded from a file, or
  // served after a warm start — is its node records and child pool, no
  // build-time index; MemoryBytes, the cache's eviction unit, counts
  // exactly that.
  auto expect_arrays_only = [](const NnfCircuit& circuit) {
    EXPECT_EQ(circuit.MemoryBytes(),
              sizeof(NnfCircuit) + 16 * circuit.num_nodes() +
                  4 * circuit.view().num_children);
  };
  const Lineage lineage = GadgetCorpus(3).back();
  CircuitCache source;
  const std::shared_ptr<const NnfCircuit> compiled =
      source.GetShared(lineage.cnf);
  ASSERT_NE(compiled, nullptr);
  expect_arrays_only(*compiled);

  std::string error;
  ASSERT_EQ(source.SaveTo(dir_, &error), 1u) << error;
  store::LoadedCircuit loaded;
  ASSERT_TRUE(store::LoadCircuit(
      store::CircuitStore(dir_).PathFor(lineage.cnf), &loaded, &error))
      << error;
  expect_arrays_only(loaded.circuit);

  CircuitCache warmed;
  ASSERT_EQ(warmed.WarmFrom(dir_), 1u);
  const std::shared_ptr<const NnfCircuit> served =
      warmed.GetShared(lineage.cnf);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(warmed.stats().compiles, 0u);
  expect_arrays_only(*served);
  EXPECT_EQ(served->Fingerprint(), compiled->Fingerprint());
}

TEST_F(StoreTest, GmcStoreDefaultFlowsIntoNewCaches) {
  ScopedEnv env;
  env.Set("GMC_STORE", dir_.c_str());
  CircuitCache attached;
  EXPECT_EQ(attached.store_directory(), dir_);
  GfomcSession session;
  EXPECT_EQ(session.options().store_directory, dir_);
  env.Set("GMC_STORE", nullptr);
  CircuitCache detached;
  EXPECT_EQ(detached.store_directory(), "");
  // A cache keeps the store it was built with.
  EXPECT_EQ(attached.store_directory(), dir_);
}

TEST_F(StoreTest, SessionStorePlumbing) {
  // GfomcSession end to end: a session with a store attached persists its
  // compiles; a second session warm-starts and reports store hits.
  Query query = H1();
  Tid tid(query.vocab_ptr(), 3, 3, Rational::Half());

  Rational want;
  {
    GfomcSession session;
    session.set_store_directory(dir_);
    EXPECT_EQ(session.options().store_directory, dir_);
    want = session.Evaluate(query, tid).probability;
    EXPECT_GT(session.stats().cache.store_misses, 0u);
  }
  GfomcSession cold;
  cold.set_store_directory(dir_);
  EXPECT_GT(cold.WarmCircuitsFrom(dir_), 0u);
  EXPECT_EQ(cold.Evaluate(query, tid).probability, want);
  EXPECT_EQ(cold.stats().cache.store_rejected, 0u);
}

}  // namespace
}  // namespace gmc
