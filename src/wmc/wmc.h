// Exact weighted model counting for monotone CNF.
//
// This is the Pr(Q) oracle used throughout: Pr(Q) = WMC(Φ_∆(Q)) with the
// lineage variables weighted by their tuple probabilities (§2). The engine
// combines (a) connected-component decomposition — independent AND per
// Theorem 3.4's reasoning, (b) Shannon expansion on a most-occurring
// variable, and (c) memoization keyed on the canonical sub-formula. On the
// paper's path-shaped gadget lineages, component splits after conditioning
// an articulation tuple keep the recursion effectively linear (bench E15).
//
// WMC on monotone CNF is #P-hard in general (that is the paper's point), so
// worst-case exponential behaviour is expected; the engine is exact always.

#ifndef GMC_WMC_WMC_H_
#define GMC_WMC_WMC_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "compile/circuit_cache.h"
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

  // Knowledge-compilation path (src/compile/): the formula is compiled to a
  // d-DNNF circuit on first sight and every call afterwards is one linear
  // circuit pass. Unlike the recursive path, whose memo dies with the
  // weight vector, compiled circuits are reused across weight vectors —
  // prefer this whenever the same lineage is evaluated more than once.
  Rational CompiledProbability(const Cnf& cnf,
                               const std::vector<Rational>& probabilities);
  Rational CompiledProbability(const Lineage& lineage);
  Rational CompiledQueryProbability(const Query& query, const Tid& tid);

  // Batched compiled path: all K weight vectors in one topological circuit
  // pass (NnfCircuit::EvaluateBatch) instead of K walks — the preferred
  // entry point for interpolation sweeps and any other workload that knows
  // its whole weight set up front. The lineage form groups by CNF
  // structure and batches within each group.
  std::vector<Rational> CompiledProbabilityBatch(const Cnf& cnf,
                                                 const WeightMatrix& weights);
  std::vector<Rational> CompiledProbabilityBatch(
      const std::vector<Lineage>& lineages);

  const Stats& stats() const { return stats_; }
  const CircuitCache& circuits() const { return circuits_; }
  void ResetStats() { stats_ = Stats(); }
  void ClearCache() { cache_.clear(); }

 private:
  Rational Recurse(const Cnf& cnf);

  const std::vector<Rational>* probabilities_ = nullptr;
  // Memo for the in-flight weight vector: hashed with the allocation-free
  // Cnf::Hash64, compared exactly (CnfClauseEq), so hits never allocate
  // and collisions never corrupt the exact result.
  std::unordered_map<Cnf, Rational, CnfHash, CnfClauseEq> cache_;
  CircuitCache circuits_;
  Stats stats_;
};

}  // namespace gmc

#endif  // GMC_WMC_WMC_H_
