// Exact weighted model counting for monotone CNF — the reference engine.
//
// Pr(Q) = WMC(Φ_∆(Q)) with the lineage variables weighted by their tuple
// probabilities (§2). The engine combines (a) connected-component
// decomposition — independent AND per Theorem 3.4's reasoning, (b) Shannon
// expansion on a most-occurring variable, and (c) memoization keyed on the
// canonical sub-formula. On the paper's path-shaped gadget lineages,
// component splits after conditioning an articulation tuple keep the
// recursion effectively linear (bench E15).
//
// Production traffic evaluates through the d-DNNF compiler (compile/); this
// engine runs its own recursion and stays the independent reference that
// the tests, WmcOracle and the hardness checks compare against.
//
// WMC on monotone CNF is #P-hard in general (that is the paper's point), so
// worst-case exponential behaviour is expected; the engine is exact always.

#ifndef GMC_WMC_WMC_H_
#define GMC_WMC_WMC_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lineage/grounder.h"
#include "logic/query.h"
#include "prob/tid.h"
#include "util/rational.h"

namespace gmc {

class WmcEngine {
 public:
  struct Stats {
    uint64_t recursive_calls = 0;
    uint64_t cache_hits = 0;
    uint64_t component_splits = 0;
    uint64_t shannon_branches = 0;
  };

  WmcEngine() = default;

  // Probability that the CNF is satisfied when variable v is independently
  // true with probability probabilities[v].
  Rational Probability(const Cnf& cnf,
                       const std::vector<Rational>& probabilities);
  Rational Probability(const Lineage& lineage);
  // Grounds and counts: Pr_∆(Q).
  Rational QueryProbability(const Query& query, const Tid& tid);

  const Stats& stats() const { return stats_; }

 private:
  Rational Recurse(const Cnf& cnf);

  const std::vector<Rational>* probabilities_ = nullptr;
  // Memo for the in-flight weight vector: hashed with the allocation-free
  // Cnf::Hash64, compared exactly (CnfClauseEq), so hits never allocate
  // and collisions never corrupt the exact result.
  std::unordered_map<Cnf, Rational, CnfHash, CnfClauseEq> cache_;
  Stats stats_;
};

}  // namespace gmc

#endif  // GMC_WMC_WMC_H_
