#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault_guard.h"
#include "lineage/boolean_formula.h"
#include "lineage/grounder.h"
#include "logic/parser.h"
#include "prob/block.h"
#include "prob/tid.h"
#include "util/fault.h"

namespace gmc {
namespace {

// --- Cnf -------------------------------------------------------------------

TEST(CnfTest, ConditionTrueRemovesClause) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  Cnf high = cnf.Condition(1, true);
  EXPECT_TRUE(high.IsTrue());
  Cnf low = cnf.Condition(1, false);
  ASSERT_EQ(low.clauses.size(), 2u);
  EXPECT_EQ(low.clauses[0], (std::vector<int>{0}));
  EXPECT_EQ(low.clauses[1], (std::vector<int>{2}));
}

TEST(CnfTest, RemoveSubsumed) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.AddClause({0, 1, 2});
  cnf.AddClause({0, 1});
  cnf.AddClause({0, 1});  // duplicate
  cnf.AddClause({2});
  cnf.RemoveSubsumed();
  ASSERT_EQ(cnf.clauses.size(), 2u);
  EXPECT_EQ(cnf.clauses[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(cnf.clauses[1], (std::vector<int>{2}));
}

TEST(CnfTest, Components) {
  Cnf cnf;
  cnf.num_vars = 5;
  cnf.AddClause({0, 1});
  cnf.AddClause({1, 2});
  cnf.AddClause({3, 4});
  std::vector<int> comp = cnf.ClauseComponents();
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_FALSE(cnf.IsConnected());
  EXPECT_TRUE(cnf.Disconnects({0}, {3}));
  EXPECT_FALSE(cnf.Disconnects({0}, {2}));
}

// --- Grounding -------------------------------------------------------------

TEST(GrounderTest, DefaultProbabilityOneGivesTrueLineage) {
  Query h0 = ParseQueryOrDie("Ax Ay (R(x) | S(x,y) | T(y))");
  Tid tid(h0.vocab_ptr(), 3, 3);  // default probability 1
  Lineage lineage = Ground(h0, tid);
  EXPECT_TRUE(lineage.cnf.IsTrue());
  EXPECT_FALSE(lineage.is_false);
}

TEST(GrounderTest, PaperSection16Lineage) {
  // §1.6: Q = (R ∨ S) ∧ (S ∨ T) on one pair has lineage (R∨S)∧(S∨T).
  Query q =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
  const Vocabulary& v = q.vocab();
  Tid tid(q.vocab_ptr(), 1, 1);
  tid.SetUnaryLeft(v.Find("R"), 0, Rational::Half());
  tid.SetBinary(v.Find("S"), 0, 0, Rational::Half());
  tid.SetUnaryRight(v.Find("T"), 0, Rational::Half());
  Lineage lineage = Ground(q, tid);
  EXPECT_EQ(lineage.variables.size(), 3u);
  EXPECT_EQ(lineage.cnf.clauses.size(), 2u);
  EXPECT_TRUE(lineage.cnf.IsConnected());
}

TEST(GrounderTest, ZeroProbabilityDropsLiteral) {
  Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  const Vocabulary& v = q.vocab();
  Tid tid(q.vocab_ptr(), 1, 1);
  tid.SetUnaryLeft(v.Find("R"), 0, Rational::Zero());
  tid.SetBinary(v.Find("S"), 0, 0, Rational::Half());
  Lineage lineage = Ground(q, tid);
  ASSERT_EQ(lineage.cnf.clauses.size(), 1u);
  EXPECT_EQ(lineage.cnf.clauses[0].size(), 1u);
  EXPECT_EQ(lineage.variables[lineage.cnf.clauses[0][0]].symbol,
            v.Find("S"));
}

TEST(GrounderTest, AllZeroMakesFalse) {
  Query q = ParseQueryOrDie("Ax Ay (S(x,y))");
  Tid tid(q.vocab_ptr(), 1, 1, Rational::Zero());
  Lineage lineage = Ground(q, tid);
  EXPECT_TRUE(lineage.is_false);
}

TEST(GrounderTest, TypeIiDistribution) {
  // ∀x(∀yS1 ∨ ∀yS2) over a 1×2 domain:
  // (S1(0,0)∧S1(0,1)) ∨ (S2(0,0)∧S2(0,1)) → 4 CNF clauses.
  Query q = ParseQueryOrDie("Ax (Ay (S1(x,y)) | Ay (S2(x,y)))");
  Tid tid(q.vocab_ptr(), 1, 2, Rational::Half());
  Lineage lineage = Ground(q, tid);
  EXPECT_EQ(lineage.variables.size(), 4u);
  EXPECT_EQ(lineage.cnf.clauses.size(), 4u);
  for (const auto& clause : lineage.cnf.clauses) {
    EXPECT_EQ(clause.size(), 2u);
  }
}

TEST(GrounderTest, PinnedBaseConstant) {
  // Grounding a clause only at u = 1 leaves u = 0 unconstrained.
  Query q = ParseQueryOrDie("Ax Ay (S(x,y))");
  Tid tid(q.vocab_ptr(), 2, 2, Rational::Half());
  Grounder grounder(&tid);
  grounder.AddClause(q.clauses()[0], /*only_base=*/1);
  Lineage lineage = grounder.Take();
  EXPECT_EQ(lineage.cnf.clauses.size(), 2u);
  for (const TupleKey& key : lineage.variables) {
    EXPECT_EQ(key.left, 1);
  }
}

TEST(TidTest, GfomcAndFomcInstances) {
  auto vocab = std::make_shared<Vocabulary>();
  SymbolId s = vocab->Add("S", SymbolKind::kBinary);
  Tid tid(vocab, 2, 2);
  EXPECT_TRUE(tid.IsGfomcInstance());
  EXPECT_TRUE(tid.IsFomcInstance());
  tid.SetBinary(s, 0, 0, Rational::Zero());
  EXPECT_TRUE(tid.IsGfomcInstance());
  EXPECT_FALSE(tid.IsFomcInstance());  // 0 not allowed for FOMC (∀CNF side)
  tid.SetBinary(s, 1, 1, Rational(1, 3));
  EXPECT_FALSE(tid.IsGfomcInstance());
  EXPECT_EQ(tid.NumGroundTuples(), 4);
}

// --- Grounding templates ---------------------------------------------------

Query H1() {
  return ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))");
}

Query H0() { return ParseQueryOrDie("Ax Ay (R(x) | S(x,y) | T(y))"); }

Query ExampleC9() {
  return ParseQueryOrDie(
      "Ax (Ay (S1(x,y)) | Ay (S2(x,y))) & Ax Ay (S1(x,y) | S3(x,y)) & "
      "Ay (Ax (S3(x,y)) | Ax (S4(x,y)))");
}

void ExpectSameLineage(const Lineage& got, const Lineage& want) {
  EXPECT_EQ(got.cnf.num_vars, want.cnf.num_vars);
  EXPECT_EQ(got.cnf.clauses, want.cnf.clauses);
  EXPECT_TRUE(got.variables == want.variables);
  EXPECT_EQ(got.probabilities, want.probabilities);
  EXPECT_EQ(got.is_false, want.is_false);
}

// A weight from {0, 1/2, 1, 1/3, 2/5, k/7}.
Rational AnyWeight(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return Rational::Zero();
    case 1:
      return Rational::Half();
    case 2:
      return Rational::One();
    case 3:
      return Rational(1, 3);
    case 4:
      return Rational(2, 5);
    default:
      return Rational(static_cast<int64_t>(1 + (*rng)() % 6), 7);
  }
}

// An uncertain weight from the same set.
Rational UncertainWeight(std::mt19937_64* rng) {
  Rational p = AnyWeight(rng);
  while (p.IsZero() || p.IsOne()) p = AnyWeight(rng);
  return p;
}

// A TID over `query`'s vocabulary: a random default, and about three in
// four tuples of every symbol set explicitly.
Tid RandomTid(const Query& query, int num_left, int num_right,
              std::mt19937_64* rng) {
  Tid tid(query.vocab_ptr(), num_left, num_right, AnyWeight(rng));
  const Vocabulary& vocab = query.vocab();
  for (SymbolId s = 0; s < vocab.size(); ++s) {
    const bool binary = vocab.IsBinary(s);
    const bool left = vocab.kind(s) == SymbolKind::kUnaryLeft;
    for (int u = 0; u < (left || binary ? num_left : 1); ++u) {
      for (int v = 0; v < (left ? 1 : num_right); ++v) {
        if ((*rng)() % 4 == 0) continue;
        const TupleKey key = binary ? TupleKey{s, u, v}
                             : left ? TupleKey{s, u, -1}
                                    : TupleKey{s, -1, v};
        tid.Set(key, AnyWeight(rng));
      }
    }
  }
  return tid;
}

// The same TID with every uncertain weight, the default included, drawn
// afresh: the support pattern is unchanged.
Tid Reweighted(const Tid& tid, std::mt19937_64* rng) {
  const Rational& p = tid.default_probability();
  Tid out(tid.vocab_ptr(), tid.num_left(), tid.num_right(),
          p.IsZero() || p.IsOne() ? p : UncertainWeight(rng));
  for (const auto& [key, weight] : tid.explicit_tuples()) {
    out.Set(key, weight.IsZero() || weight.IsOne() ? weight
                                                   : UncertainWeight(rng));
  }
  return out;
}

// The same explicit tuples over another default probability: another
// support pattern wherever a tuple is left at the default.
Tid WithDefault(const Tid& tid, const Rational& p) {
  Tid out(tid.vocab_ptr(), tid.num_left(), tid.num_right(), p);
  for (const auto& [key, weight] : tid.explicit_tuples()) out.Set(key, weight);
  return out;
}

// The support pattern as the test sees it: the sides and the 0 / 1 /
// uncertain class of every ground tuple of the query's symbols.
using Pattern = std::tuple<int, int, std::vector<int>>;
Pattern PatternOf(const Query& query, const Tid& tid) {
  std::vector<int> classes;
  const Vocabulary& vocab = query.vocab();
  for (SymbolId s : query.Symbols()) {
    const bool binary = vocab.IsBinary(s);
    const bool left = vocab.kind(s) == SymbolKind::kUnaryLeft;
    for (int u = 0; u < (left || binary ? tid.num_left() : 1); ++u) {
      for (int v = 0; v < (left ? 1 : tid.num_right()); ++v) {
        const Rational& p = tid.Probability(binary ? TupleKey{s, u, v}
                                            : left ? TupleKey{s, u, -1}
                                                   : TupleKey{s, -1, v});
        classes.push_back(p.IsZero() ? 0 : p.IsOne() ? 1 : 2);
      }
    }
  }
  return {tid.num_left(), tid.num_right(), std::move(classes)};
}

// Grounds `tids` through one table and checks each lineage against Ground,
// and each hit against the test's own record of patterns already seen.
void ExpectTemplatesMatchGround(const Query& query,
                                const std::vector<Tid>& tids) {
  GroundingTemplates templates;
  std::set<Pattern> seen;
  for (const Tid& tid : tids) {
    bool hit = false;
    const Lineage lineage = templates.Ground(query, tid, &hit);
    ExpectSameLineage(lineage, Ground(query, tid));
    EXPECT_EQ(hit, !seen.insert(PatternOf(query, tid)).second)
        << query.ToString() << " on " << tid.DebugString();
  }
  EXPECT_EQ(templates.size(), seen.size());
  EXPECT_LE(templates.bytes(), GroundingTemplates::kMaxBytes);
}

// Random TIDs at domain sides 0–4, each followed by two reweightings that
// keep its support pattern and by its tuples over each default class.
std::vector<Tid> PatternTids(const Query& query, int count,
                             std::mt19937_64* rng) {
  std::vector<Tid> tids;
  for (int i = 0; i < count; ++i) {
    const Tid tid = RandomTid(query, static_cast<int>((*rng)() % 5),
                              static_cast<int>((*rng)() % 5), rng);
    tids.push_back(tid);
    tids.push_back(Reweighted(tid, rng));
    tids.push_back(Reweighted(tid, rng));
    for (const Rational& p :
         {Rational::Zero(), Rational::Half(), Rational::One()}) {
      tids.push_back(WithDefault(tid, p));
    }
  }
  return tids;
}

TEST(GroundingTemplatesTest, MatchGroundOnH0H1AndC9) {
  FaultGuard guard;  // an armed lineage.template would turn hits into misses
  std::mt19937_64 rng(20);
  for (const Query& query : {H1(), H0(), ExampleC9()}) {
    ExpectTemplatesMatchGround(query, PatternTids(query, 40, &rng));
  }
}

TEST(GroundingTemplatesTest, MatchGroundOnTypeOneGadgetTids) {
  FaultGuard guard;
  std::mt19937_64 rng(21);
  const Query h1 = H1();
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {0, 2}};
  std::vector<Tid> tids;
  for (const auto& [p1, p2] : {std::pair{1, 1}, {1, 2}, {2, 3}}) {
    const Tid gadget = MakeBlockTidForGraph(h1.vocab_ptr(), 3, edges, p1, p2);
    tids.push_back(gadget);
    tids.push_back(Reweighted(gadget, &rng));
    tids.push_back(Reweighted(gadget, &rng));
  }
  ExpectTemplatesMatchGround(h1, tids);
}

TEST(GroundingTemplatesTest, MatchGroundOnRandomQueries) {
  // Queries of at most three clauses over R(x), S1–S3(x,y) and T(y): Type I
  // and middle clauses with any non-empty set of binaries, and Type II
  // clauses on either side.
  FaultGuard guard;
  std::mt19937_64 rng(22);
  auto vocab = std::make_shared<Vocabulary>();
  const SymbolId r = vocab->Add("R", SymbolKind::kUnaryLeft);
  const SymbolId t = vocab->Add("T", SymbolKind::kUnaryRight);
  const SymbolId s[] = {vocab->Add("S1", SymbolKind::kBinary),
                        vocab->Add("S2", SymbolKind::kBinary),
                        vocab->Add("S3", SymbolKind::kBinary)};
  auto binaries = [&] {
    std::vector<SymbolId> out;
    while (out.empty()) {
      for (SymbolId b : s) {
        if (rng() % 2 == 0) out.push_back(b);
      }
    }
    return out;
  };
  int queries = 0;
  while (queries < 200) {
    std::vector<Clause> clauses;
    const int num_clauses = 1 + static_cast<int>(rng() % 3);
    for (int c = 0; c < num_clauses; ++c) {
      if (rng() % 4 == 0) {  // Type II, left or right
        clauses.emplace_back(rng() % 2 == 0 ? Side::kLeft : Side::kRight,
                             std::vector<SymbolId>{},
                             std::vector<Subclause>{{binaries(), {}},
                                                    {binaries(), {}}});
        continue;
      }
      std::vector<SymbolId> base;
      std::vector<SymbolId> inner;
      if (rng() % 2 == 0) base.push_back(r);
      if (rng() % 2 == 0) inner.push_back(t);
      clauses.emplace_back(Side::kLeft, base,
                           std::vector<Subclause>{{binaries(), inner}});
    }
    const Query query(vocab, clauses);
    if (query.IsTrue() || query.IsFalse()) continue;
    ++queries;
    ExpectTemplatesMatchGround(query, PatternTids(query, 2, &rng));
  }
}

TEST(GroundingTemplatesTest, QueriesOnOneTidNeverShareATemplate) {
  FaultGuard guard;
  auto vocab = std::make_shared<Vocabulary>();
  const Query h1 =
      ParseQueryOrDie("Ax Ay (R(x) | S(x,y)) & Ax Ay (S(x,y) | T(y))", vocab);
  const Query h0 = ParseQueryOrDie("Ax Ay (R(x) | S(x,y) | T(y))", vocab);
  Tid tid(vocab, 2, 2, Rational::Half());
  GroundingTemplates templates;
  for (int round = 0; round < 2; ++round) {
    for (const Query* query : {&h1, &h0}) {
      bool hit = false;
      ExpectSameLineage(templates.Ground(*query, tid, &hit),
                        Ground(*query, tid));
      EXPECT_EQ(hit, round == 1) << query->ToString();
    }
  }
  EXPECT_EQ(templates.size(), 2u);
}

TEST(GroundingTemplatesTest, FalseLineagesAndEmptyDomainsRoundTrip) {
  FaultGuard guard;
  const Query q = ParseQueryOrDie("Ax Ay (R(x) | S(x,y))");
  const Vocabulary& v = q.vocab();
  GroundingTemplates templates;
  // R(1) and S(1, 0) at 0 falsify the clause at x = 1, after R(0) and
  // S(0, 0) became variables.
  Tid tid(q.vocab_ptr(), 2, 1, Rational::Half());
  tid.SetUnaryLeft(v.Find("R"), 1, Rational::Zero());
  tid.SetBinary(v.Find("S"), 1, 0, Rational::Zero());
  std::mt19937_64 rng(23);
  for (const Tid& instance : {tid, Reweighted(tid, &rng)}) {
    bool hit = false;
    const Lineage lineage = templates.Ground(q, instance, &hit);
    EXPECT_TRUE(lineage.is_false);
    EXPECT_EQ(lineage.variables.size(), 2u);
    ExpectSameLineage(lineage, Ground(q, instance));
  }
  for (const auto& [left, right] : {std::pair{0, 0}, {0, 3}, {3, 0}}) {
    const Tid empty(q.vocab_ptr(), left, right, Rational::Half());
    for (int round = 0; round < 2; ++round) {
      bool hit = false;
      const Lineage lineage = templates.Ground(q, empty, &hit);
      EXPECT_EQ(hit, round == 1);
      EXPECT_TRUE(lineage.cnf.IsTrue());
      ExpectSameLineage(lineage, Ground(q, empty));
    }
  }
}

TEST(GroundingTemplatesTest, PatternsPastTheUint16LayoutAlwaysGround) {
  // A side over 0xffff, or 0xffff slots or more, does not fit a template:
  // such an instance grounds every time and nothing is stored.
  FaultGuard guard;
  const Query r = ParseQueryOrDie("Ax (R(x))");
  const Query s = ParseQueryOrDie("Ax Ay (S(x,y))");
  const Tid wide(r.vocab_ptr(), 2, 0x10000, Rational::Half());
  const Tid square(s.vocab_ptr(), 256, 256);  // 2^16 slots, all certain
  GroundingTemplates templates;
  for (int round = 0; round < 2; ++round) {
    bool hit = true;
    ExpectSameLineage(templates.Ground(r, wide, &hit), Ground(r, wide));
    EXPECT_FALSE(hit);
    ExpectSameLineage(templates.Ground(s, square, &hit), Ground(s, square));
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(templates.size(), 0u);
  // 0xfffe slots fit.
  const Tid fits(s.vocab_ptr(), 2, 0x7fff);
  bool hit = true;
  templates.Ground(s, fits, &hit);
  ExpectSameLineage(templates.Ground(s, fits, &hit), Ground(s, fits));
  EXPECT_TRUE(hit);
}

TEST(GroundingTemplatesTest, FillingPastTheCapResetsTheTable) {
  // ∀x∀y S(x,y) on 8×8 patterns of mostly uncertain tuples: each template
  // holds a few hundred bytes, so the constant cap is passed after some
  // thousands of patterns. The table resets, stays under the cap, and
  // every lineage still equals Ground's.
  FaultGuard guard;
  const Query q = ParseQueryOrDie("Ax Ay (S(x,y))");
  const SymbolId s = q.vocab().Find("S");
  std::mt19937_64 rng(24);
  auto random_tid = [&] {
    Tid tid(q.vocab_ptr(), 8, 8, Rational::One());
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        const uint64_t r = rng() % 400;
        tid.SetBinary(s, u, v,
                      r == 0     ? Rational::Zero()
                      : r < 100  ? Rational::One()
                                 : Rational(static_cast<int64_t>(1 + r % 6),
                                            7));
      }
    }
    return tid;
  };
  GroundingTemplates templates;
  const Tid first = random_tid();
  bool hit = false;
  templates.Ground(q, first, &hit);
  size_t before = templates.size();
  bool reset = false;
  for (int i = 0; i < 40000 && !reset; ++i) {
    const Tid tid = random_tid();
    ExpectSameLineage(templates.Ground(q, tid, &hit), Ground(q, tid));
    ASSERT_LE(templates.bytes(), GroundingTemplates::kMaxBytes);
    reset = templates.size() < before;
    before = templates.size();
  }
  ASSERT_TRUE(reset);
  EXPECT_EQ(templates.size(), 1u);  // the pattern that passed the cap
  // The first pattern went with the reset: it grounds again, and equal.
  ExpectSameLineage(templates.Ground(q, first, &hit), Ground(q, first));
  EXPECT_FALSE(hit);
  ExpectSameLineage(templates.Ground(q, first, &hit), Ground(q, first));
  EXPECT_TRUE(hit);
}

TEST(GroundingTemplatesTest, AFiredFaultPointGroundsAndStoresNothing) {
  FaultGuard guard;
  const Query h1 = H1();
  const Tid tid(h1.vocab_ptr(), 3, 3, Rational(2, 5));
  GroundingTemplates templates;
  std::string error;
  ASSERT_TRUE(fault::Configure("lineage.template=1", &error)) << error;
  for (int round = 0; round < 2; ++round) {
    bool hit = true;
    ExpectSameLineage(templates.Ground(h1, tid, &hit), Ground(h1, tid));
    EXPECT_FALSE(hit);
  }
  EXPECT_EQ(templates.size(), 0u);
  EXPECT_EQ(fault::InjectedCount(fault::Point::kLineageTemplate), 2u);
}

}  // namespace
}  // namespace gmc
