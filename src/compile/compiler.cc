#include "compile/compiler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.h"

namespace gmc {

NnfCircuit Compiler::Compile(const Cnf& cnf) {
  // Unlimited and uncancelled, so the compile always completes.
  return *TryCompile(cnf, CompileBudget());
}

std::optional<NnfCircuit> Compiler::TryCompile(const Cnf& cnf,
                                               const CompileBudget& budget,
                                               const CancelToken* cancel) {
  budget_ = &budget;
  budget_exhausted_ = false;  // never inherit a prior run's failure
  budget_calls_ = 0;
  budget_token_.reset();
  if (budget.max_millis > 0) budget_token_.emplace(budget.max_millis);
  cancel_ = cancel;
  cancelled_ = false;
  NnfCircuit circuit = CompileImpl(cnf);
  budget_ = nullptr;
  cancel_ = nullptr;
  if (cancelled_) return std::nullopt;
  if (budget_exhausted_) {
    ++stats_.budget_exhausted;
    return std::nullopt;
  }
  return circuit;
}

NnfCircuit Compiler::CompileImpl(const Cnf& cnf) {
  rank_.clear();
  if (order_ != OrderHeuristic::kDefault) {
    // One vtree per top-level compilation, over the full CNF: the ranks
    // stay fixed for every sub-formula, so the memo (cleared below) is
    // keyed consistently under the order in force.
    Vtree vtree = Vtree::Build(cnf, order_);
    rank_ = vtree.decision_rank();
    ++stats_.vtree_builds;
  }
  NnfCircuit circuit;
  circuit_ = &circuit;
  memo_.clear();
  circuit.SetRoot(CompileNode(cnf));
  circuit_ = nullptr;
  // A budget-exhausted or cancelled run unwinds with a placeholder root;
  // the circuit is about to be discarded, so skip the post-passes.
  if (cancelled_) {
    ++stats_.cancelled;
    return circuit;
  }
  if (budget_exhausted_) return circuit;
  // Constant folding can orphan nodes (a FALSE component collapses its
  // AND); drop them so every Evaluate pass touches live nodes only.
  circuit.PruneUnreachable();
  stats_.minimize_nodes_before += circuit.num_nodes();
  if (minimize_) circuit = minimizer_.Minimize(circuit);
  stats_.minimize_nodes_after += circuit.num_nodes();
  return circuit;
}

NnfCircuit Compiler::Compile(const Lineage& lineage) {
  if (lineage.is_false) {
    NnfCircuit circuit;
    circuit.SetRoot(circuit.False());
    return circuit;
  }
  return Compile(lineage.cnf);
}

int Compiler::BranchVariable(const Cnf& cnf) const {
  if (rank_.empty()) return cnf.MostOccurringVariable();
  // Vtree dissection: the occurring variable whose dissection point is
  // highest in the tree — i.e. minimum decision rank. Every variable of a
  // sub-CNF occurred in the top-level CNF (conditioning only removes
  // literals), so its rank is always present.
  int best_var = -1;
  for (const auto& clause : cnf.clauses) {
    for (int v : clause) {
      GMC_CHECK(v >= 0 && v < static_cast<int>(rank_.size()));
      GMC_CHECK(rank_[v] >= 0);
      if (best_var == -1 || rank_[v] < rank_[best_var]) best_var = v;
    }
  }
  return best_var;
}

bool Compiler::BudgetSpent() {
  if (budget_exhausted_ || cancelled_) return true;
  ++budget_calls_;
  // The external deadline outranks the budget and applies to unlimited
  // budgets too; its clock read shares the budget's every-256 stride.
  if (cancel_ != nullptr &&
      ((budget_calls_ & 255) == 0 ? cancel_->Poll() : cancel_->cancelled())) {
    cancelled_ = true;
    return true;
  }
  if ((budget_->max_calls > 0 && budget_calls_ > budget_->max_calls) ||
      (budget_->max_nodes > 0 &&
       circuit_->num_nodes() > budget_->max_nodes)) {
    budget_exhausted_ = true;
  } else if (budget_token_.has_value() && (budget_calls_ & 255) == 0 &&
             budget_token_->Poll()) {
    budget_exhausted_ = true;
  }
  return budget_exhausted_;
}

int Compiler::CompileNode(const Cnf& cnf) {
  ++stats_.compile_calls;
  // Budget gate: once spent, unwind immediately with a placeholder — the
  // caller discards the whole circuit.
  if (BudgetSpent()) return circuit_->True();
  if (cnf.clauses.empty()) return circuit_->True();
  for (const auto& clause : cnf.clauses) {
    if (clause.empty()) return circuit_->False();
  }
  if (auto it = memo_.find(cnf); it != memo_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }

  // Connected-component decomposition: disjoint variable sets compile to a
  // decomposable AND. The split is the same Cnf helper WmcEngine uses;
  // the branch-variable choice below follows the active order heuristic.
  std::vector<Cnf> parts = cnf.SplitComponents();
  int result;
  if (parts.size() > 1) {
    ++stats_.component_splits;
    std::vector<int> children;
    children.reserve(parts.size());
    for (const Cnf& part : parts) {
      children.push_back(CompileNode(part));
      if (children.back() == circuit_->False()) break;
    }
    result = circuit_->And(std::move(children));
  } else {
    // Shannon expansion — a deterministic decision node.
    ++stats_.shannon_branches;
    const int best_var = BranchVariable(cnf);
    GMC_CHECK(best_var >= 0);
    const int high = CompileNode(cnf.Condition(best_var, true));
    const int low = CompileNode(cnf.Condition(best_var, false));
    result = circuit_->Decision(best_var, high, low);
  }
  // Never memoize under an exhausted budget or a fired deadline: the
  // placeholder results the unwind produces are not the CNF's circuit.
  if (!budget_exhausted_ && !cancelled_) memo_.emplace(cnf, result);
  return result;
}

}  // namespace gmc
