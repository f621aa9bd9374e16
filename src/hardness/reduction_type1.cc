#include "hardness/reduction_type1.h"

#include <utility>
#include <vector>

#include "hardness/big_matrix.h"
#include "logic/bipartite.h"
#include "prob/block.h"
#include "util/check.h"
#include "wmc/wmc.h"

namespace gmc {

std::vector<Rational> Oracle::ProbabilityBatch(const Query& query,
                                               const std::vector<Tid>& tids) {
  std::vector<Rational> results;
  results.reserve(tids.size());
  for (const Tid& tid : tids) results.push_back(Probability(query, tid));
  return results;
}

Rational WmcOracle::Probability(const Query& query, const Tid& tid) {
  ++calls_;
  WmcEngine engine;
  return engine.QueryProbability(query, tid);
}

Rational FactorizedOracle::Probability(const Query& query, const Tid& tid) {
  (void)query;
  (void)tid;
  GMC_CHECK_MSG(false,
                "FactorizedOracle needs block structure; use "
                "GraphProbability (the reduction does this internally)");
  return Rational::Zero();
}

Rational FactorizedOracle::GraphProbability(
    const P2Cnf& phi, const std::vector<Rational>& y) {
  ++calls_;
  GMC_CHECK(y.size() == 3);  // {y00, y01(=y10), y11}
  const int n = phi.num_vars;
  GMC_CHECK_MSG(n <= 25, "factorized oracle limited to 25 vertices");
  Rational total = Rational::Zero();
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t theta = 0; theta < limit; ++theta) {
    Rational world = Rational::One();
    for (const auto& [i, j] : phi.edges) {
      const int a = (theta >> i) & 1;
      const int b = (theta >> j) & 1;
      world *= y[a + b];  // y00, y01=y10, or y11 by the number of ones
      if (world.IsZero()) break;
    }
    total += world;
  }
  return total * Rational::Half().Pow(n);
}

Type1Reduction::Type1Reduction(const Query& query)
    : query_(query), a1_(ComputeA1(query)) {
  BipartiteAnalysis analysis = AnalyzeBipartite(query);
  GMC_CHECK_MSG(!analysis.safe,
                "Type1Reduction requires an unsafe query (safe queries are "
                "in PTIME; there is nothing to reduce to)");
  GMC_CHECK_MSG(analysis.left_type == PartType::kTypeI &&
                    analysis.right_type == PartType::kTypeI,
                "Type1Reduction requires a Type I-I query");
}

Tid Type1Reduction::BuildTid(const P2Cnf& phi, int p1, int p2) const {
  return MakeBlockTidForGraph(query_.vocab_ptr(), phi.num_vars, phi.edges,
                              p1, p2);
}

Type1ReductionResult Type1Reduction::Run(const P2Cnf& phi, Oracle* oracle) {
  const int m = phi.num_clauses();
  const int n = phi.num_vars;
  GMC_CHECK_MSG(m >= 1, "the reduction needs at least one clause");

  Type1ReductionResult result;
  result.design_report = CheckDesignConditions(a1_);
  if (!result.design_report.AllHold()) {
    result.status = Type1Status::kDesignConditionsFailed;
    return result;
  }

  // z-series for p = 1..m+1 (Lemma 3.19) and the symmetric big matrix
  // (Theorem 3.6, multiset-row form — see big_matrix.h).
  const std::vector<std::vector<Rational>> z_series = ZSeries(a1_, m + 1);
  SymmetricBigMatrix big = BuildSymmetricBigMatrix(z_series, m);

  // Right-hand side: 2^n · Pr_∆(Q), one oracle call per multiset {p1, p2}.
  // All TIDs are known up front, so the oracle sees them as one batch —
  // CompiledOracle answers the whole sweep in one session call, one
  // circuit pass per distinct gadget lineage.
  const Rational two_pow_n = Rational(BigInt(1).ShiftLeft(n), BigInt(1));
  std::vector<Rational> rhs(big.matrix.rows());
  if (oracle != nullptr) {
    std::vector<Tid> tids;
    tids.reserve(big.row_params.size());
    for (const auto& [p1, p2] : big.row_params) {
      tids.push_back(BuildTid(phi, p1, p2));
    }
    std::vector<Rational> probabilities =
        oracle->ProbabilityBatch(query_, tids);
    GMC_CHECK_MSG(probabilities.size() == tids.size(),
                  "oracle returned the wrong number of batch results");
    result.oracle_calls = oracle->calls();
    for (size_t row = 0; row < probabilities.size(); ++row) {
      rhs[row] = probabilities[row] * two_pow_n;
    }
  } else {
    FactorizedOracle factorized;
    for (size_t row = 0; row < big.row_params.size(); ++row) {
      const auto& [p1, p2] = big.row_params[row];
      std::vector<Rational> y = {z_series[p1 - 1][0] * z_series[p2 - 1][0],
                                 z_series[p1 - 1][1] * z_series[p2 - 1][1],
                                 z_series[p1 - 1][2] * z_series[p2 - 1][2]};
      rhs[row] = factorized.GraphProbability(phi, y) * two_pow_n;
      result.oracle_calls = factorized.calls();
    }
  }

  // Exact solve; non-singularity is Theorem 3.6's guarantee, re-checked
  // here on every run.
  std::optional<std::vector<Rational>> solution = big.matrix.Solve(rhs);
  result.big_matrix_nonsingular = solution.has_value();
  GMC_CHECK_MSG(result.big_matrix_nonsingular,
                "big matrix singular (contradicts Theorem 3.6)");

  // Decode the recovered signature counts; #Φ sums those with k00 = 0.
  result.solution_integral = true;
  result.model_count = BigInt(0);
  for (size_t c = 0; c < big.col_signatures.size(); ++c) {
    const Rational& value = (*solution)[c];
    if (!value.IsInteger() || value.sign() < 0) {
      result.solution_integral = false;
    }
    if (value.IsZero()) continue;
    const auto& signature = big.col_signatures[c];
    result.signature_counts[signature] = value.numerator();
    if (signature[0] == 0) result.model_count += value.numerator();
  }
  return result;
}

}  // namespace gmc
