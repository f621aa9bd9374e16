// Monotone CNF formulas — the shape of every ∀CNF lineage.
//
// Positive ∀CNF queries ground to monotone (negation-free) CNFs, which have
// a unique minimal clause representation (no clause contains another). On
// minimized monotone CNFs, syntactic structure matches semantics exactly:
// connectivity of the clause/variable graph is the unique factorization into
// independent conjuncts (Lemma B.5), which Lemma 1.2's algebraic test is
// validated against.

#ifndef GMC_LINEAGE_BOOLEAN_FORMULA_H_
#define GMC_LINEAGE_BOOLEAN_FORMULA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gmc {

// A monotone CNF over variables 0..num_vars-1. Clauses are sorted vectors of
// distinct variable ids. An empty clause list means TRUE; any empty clause
// means FALSE.
struct Cnf {
  int num_vars = 0;
  std::vector<std::vector<int>> clauses;

  bool IsTrue() const { return clauses.empty(); }
  bool HasEmptyClause() const;

  // Adds a clause (sorted and deduped). Aborts on out-of-range variables.
  void AddClause(std::vector<int> clause);

  // Removes clauses that are supersets of other clauses, yielding the
  // canonical minimal form of the monotone function. Also sorts the clause
  // list for canonical comparison.
  void RemoveSubsumed();

  // Conditions on var := value. For value=true removes satisfied clauses;
  // for value=false removes the literal (possibly creating empty clauses).
  Cnf Condition(int var, bool value) const;

  // Variables that actually occur, sorted.
  std::vector<int> UsedVariables() const;

  // Component index per clause under the shares-a-variable relation.
  std::vector<int> ClauseComponents() const;

  // True if all clauses are in a single connected component and the formula
  // depends on at least one variable. (Constant formulas count as
  // connected-trivially.)
  bool IsConnected() const;

  // Definition B.2: does the (minimized) formula disconnect variable sets
  // `u` and `v`, i.e. factor as F1 ∧ F2 with u only in F1 and v only in F2?
  // Exact on minimized monotone CNFs via component decomposition.
  bool Disconnects(const std::vector<int>& u, const std::vector<int>& v) const;

  // 64-bit FNV-1a hash of the clause lists (each clause's variable ids,
  // then a separator), computed without allocating. Variables keep their
  // global ids, so equal formulas over the same tuples hash equal. Hash
  // function for CnfHash below.
  uint64_t Hash64() const;

  // Splits the formula into its connected components (one sub-CNF per
  // component of ClauseComponents(), each over the full variable range).
  // A connected or constant formula yields a single part.
  std::vector<Cnf> SplitComponents() const;

  // The variable occurring in the most clauses (smallest id on ties) — the
  // Shannon-branching heuristic of the d-DNNF compiler's default order and
  // of the reference WmcEngine. Returns -1 for constant formulas.
  int MostOccurringVariable() const;

  std::string ToString() const;
};

// Hash and equality functors for CNF-keyed tables (the WMC memo, the
// compiler's sub-formula memo, the circuit cache). Hashing is the
// allocation-free Hash64; equality compares the clause lists exactly, so a
// hash collision costs one extra probe, never a wrong result — the exact
// arithmetic the hardness reductions rely on is preserved. (Keys are
// inserted only on cache misses, so the allocation churn of the old
// per-call string keys is still gone from the hot path.)
struct CnfHash {
  size_t operator()(const Cnf& cnf) const {
    return static_cast<size_t>(cnf.Hash64());
  }
};

struct CnfClauseEq {
  bool operator()(const Cnf& a, const Cnf& b) const {
    return a.clauses == b.clauses;
  }
};

}  // namespace gmc

#endif  // GMC_LINEAGE_BOOLEAN_FORMULA_H_
