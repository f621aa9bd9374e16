// The Cook reduction #P2CNF ≤P FOMC_bi(Q) for final Type-I queries
// (Theorem 3.1) — executable end to end.
//
// Given a final Type-I query Q and a P2CNF Φ with m clauses over n
// variables, the reduction:
//   1. computes the small matrix A(1) of Q's one-link block exactly and the
//      z-series z_ab(p) = (A(1)^p / 2^{p-1})_ab for p = 1..m+1 (Lemma 3.19);
//   2. for each multiset {p1 ≤ p2} ⊆ {1..m+1} (C(m+2,2) oracle calls;
//      permuted parameters give the same block TID up to isomorphism),
//      builds the block-disjoint TID ∆_{p1,p2} (one composite block per
//      clause of Φ) and queries the FOMC oracle for Pr_∆(Q) — all
//      probabilities are in {1/2, 1}, so this is model counting, not just
//      generalized model counting;
//   3. solves the big-matrix system (Theorem 3.6) exactly, recovering every
//      undirected signature count #k′ of Φ;
//   4. returns #Φ = Σ_{k′ : k00 = 0} #k′.
//
// The oracle can be the honest exact WMC engine (no structure assumed), the
// compiled serving path (CompiledOracle, core/dichotomy.h), or the Theorem
// 3.4 factorized evaluator (exponential only in n); all give identical
// answers and are cross-checked in tests.

#ifndef GMC_HARDNESS_REDUCTION_TYPE1_H_
#define GMC_HARDNESS_REDUCTION_TYPE1_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hardness/p2cnf.h"
#include "hardness/small_matrix.h"
#include "linalg/matrix.h"
#include "logic/query.h"
#include "prob/tid.h"
#include "util/rational.h"

namespace gmc {

// The Pr(Q) oracle interface the reduction consults. The paper's point is
// that *no* polynomial-time oracle exists unless FP = #P; these
// implementations are exact but may take exponential time.
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual Rational Probability(const Query& query, const Tid& tid) = 0;
  // Batched form: Pr(Q) for every TID, in input order. The base
  // implementation loops over Probability; an oracle that can exploit
  // shared lineage structure (CompiledOracle) overrides it to answer the
  // whole batch in one call. Each TID still counts as one oracle call — the
  // reduction complexity accounting is unchanged.
  virtual std::vector<Rational> ProbabilityBatch(const Query& query,
                                                 const std::vector<Tid>& tids);
  virtual std::string name() const = 0;
  int calls() const { return calls_; }

 protected:
  int calls_ = 0;
};

// Exact weighted model counting of the full lineage; assumes nothing about
// the TID's structure.
class WmcOracle : public Oracle {
 public:
  Rational Probability(const Query& query, const Tid& tid) override;
  std::string name() const override { return "wmc"; }
};

// Theorem 3.4: Pr_∆(Q) = 2^{-n} Σ_θ Π_{(u,v)∈E} y_{θ(u)θ(v)}; valid for
// block-disjoint TIDs built by this reduction. Exponential in n only.
class FactorizedOracle : public Oracle {
 public:
  // `z_series[p-1] = {z00, z01, z11}(p)`, shared with the reduction.
  Rational Probability(const Query& query, const Tid& tid) override;
  std::string name() const override { return "theorem-3.4"; }

  // Out-of-band block structure (the generic Probability() above aborts; the
  // reduction calls this directly).
  Rational GraphProbability(const P2Cnf& phi,
                            const std::vector<Rational>& y00_y01_y11);
};

// How Type1Reduction::Run ended. Only kRecovered carries a count: a
// refusal leaves model_count at 0, which is NOT #Φ = 0.
enum class Type1Status : uint8_t {
  kRecovered = 0,  // model_count is #Φ
  // The one-link matrix A(1) fails design conditions (22)-(24) (see
  // design_report), so Theorem 3.6's big matrix need not be invertible.
  // Run refuses before any oracle call. Unsafe length-0 queries such as
  // H0 = ∀x∀y(R(x) ∨ S(x,y) ∨ T(y)) end here: their final form
  // ∀x∀y(R(x) ∨ T(y)) breaks the ordering z00 < z01 = z10 < z11.
  kDesignConditionsFailed,
};

struct Type1ReductionResult {
  Type1Status status = Type1Status::kRecovered;
  BigInt model_count;                          // recovered #Φ
  std::map<Signature, BigInt> signature_counts;  // recovered #k′
  int oracle_calls = 0;
  bool big_matrix_nonsingular = false;
  // All solution entries were non-negative integers, zero at infeasible
  // signatures — internal consistency of Theorem 3.6's solve.
  bool solution_integral = false;
  DesignConditionReport design_report;
};

class Type1Reduction {
 public:
  // `query` must be an unsafe Type-I bipartite query (finality gives the
  // design-condition guarantees; the checks are re-verified at run time).
  explicit Type1Reduction(const Query& query);

  const Query& query() const { return query_; }

  // Runs the full reduction. If `oracle` is null, uses the Theorem 3.4
  // factorized evaluation (fast path); otherwise consults `oracle` once per
  // (p1, p2) pair on the actual TID. Returns status
  // kDesignConditionsFailed, with no count and no oracle call, when the
  // query's A(1) fails design conditions (22)-(24).
  Type1ReductionResult Run(const P2Cnf& phi, Oracle* oracle = nullptr);

  // The TID ∆_{p1,p2} the reduction sends to the oracle (exposed for tests
  // and benchmarks).
  Tid BuildTid(const P2Cnf& phi, int p1, int p2) const;

 private:
  Query query_;
  RationalMatrix a1_;
};

}  // namespace gmc

#endif  // GMC_HARDNESS_REDUCTION_TYPE1_H_
