#include "wmc/wmc.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace gmc {

Rational WmcEngine::Probability(const Cnf& cnf,
                                const std::vector<Rational>& probabilities) {
  GMC_CHECK(static_cast<int>(probabilities.size()) >= cnf.num_vars);
  for (const auto& clause : cnf.clauses) {
    if (clause.empty()) return Rational::Zero();
  }
  probabilities_ = &probabilities;
  // The cache is keyed on variable ids whose weights live in
  // `probabilities`, so it cannot be reused across weight vectors.
  cache_.clear();
  Rational out = Recurse(cnf);
  probabilities_ = nullptr;
  return out;
}

Rational WmcEngine::Probability(const Lineage& lineage) {
  if (lineage.is_false) return Rational::Zero();
  return Probability(lineage.cnf, lineage.probabilities);
}

Rational WmcEngine::QueryProbability(const Query& query, const Tid& tid) {
  if (query.IsFalse()) return Rational::Zero();
  if (query.IsTrue()) return Rational::One();
  return Probability(Ground(query, tid));
}

Rational WmcEngine::Recurse(const Cnf& cnf) {
  ++stats_.recursive_calls;
  if (cnf.clauses.empty()) return Rational::One();
  for (const auto& clause : cnf.clauses) {
    if (clause.empty()) return Rational::Zero();
  }
  if (auto it = cache_.find(cnf); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }

  // Connected-component decomposition: disjoint variable sets are
  // independent, so the probability is the product over components.
  std::vector<Cnf> parts = cnf.SplitComponents();
  Rational result;
  if (parts.size() > 1) {
    ++stats_.component_splits;
    result = Rational::One();
    for (Cnf& part : parts) {
      result *= Recurse(part);
      if (result.IsZero()) break;
    }
  } else {
    // Shannon expansion on the most frequent variable.
    ++stats_.shannon_branches;
    const int best_var = cnf.MostOccurringVariable();
    GMC_CHECK(best_var >= 0);
    const Rational& p = (*probabilities_)[best_var];
    Rational high = Recurse(cnf.Condition(best_var, true));
    Rational low = Recurse(cnf.Condition(best_var, false));
    result = p * high + (Rational::One() - p) * low;
  }
  cache_.emplace(cnf, result);
  return result;
}

}  // namespace gmc
