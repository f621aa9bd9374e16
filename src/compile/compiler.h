// Bottom-up exact compiler: monotone CNF → d-DNNF circuit.
//
// The library's one production component-and-Shannon recursion: every
// exact unsafe answer, the compiled safe route and the polynomial
// arithmetization (poly/lemmas.h) evaluate its circuits; WmcEngine keeps
// an independent copy only as the reference. Connected-component
// decomposition (independent conjuncts per Lemma B.5; the bipartite gadget
// lineages split eagerly once an articulation tuple is conditioned)
// becomes a decomposable AND, Shannon expansion a deterministic decision
// node. Sub-formulas are memoized on the canonical 64-bit CNF hash (see
// Cnf::Hash64), so the compiled circuit is a DAG no larger than the trace
// of one recursive run — and every later Evaluate costs a single linear
// pass instead of re-running the recursion.
//
// The Shannon branch variable is chosen by the active OrderHeuristic
// (compile/vtree.h): the legacy most-occurring variable under kDefault, or
// top-down vtree dissection under kMinFill / kBalanced — the knob that
// moves circuit SIZE while results stay bit-identical.

#ifndef GMC_COMPILE_COMPILER_H_
#define GMC_COMPILE_COMPILER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "compile/gmc_options.h"
#include "compile/minimize.h"
#include "compile/nnf.h"
#include "compile/vtree.h"
#include "lineage/boolean_formula.h"
#include "lineage/grounder.h"
#include "util/cancel.h"

namespace gmc {

/// One-CNF-at-a-time d-DNNF compiler.
///
/// Thread safety: NOT thread-safe — the sub-formula memo and the in-flight
/// circuit pointer are per-instance mutable state. CircuitCache wraps one
/// Compiler behind a mutex; use that (or one Compiler per thread) for
/// concurrent compilation.
///
/// Exactness: the emitted circuit computes the CNF exactly for every
/// weight vector (worst-case exponential size, as #P-hardness demands);
/// Compile is deterministic — same CNF, same order heuristic, same
/// minimize setting → structurally identical circuit.
class Compiler {
 public:
  /// Cumulative counters across Compile calls (ResetStats clears).
  struct Stats {
    uint64_t compile_calls = 0;
    uint64_t cache_hits = 0;
    uint64_t component_splits = 0;
    uint64_t shannon_branches = 0;
    /// Vtrees built — one per Compile call under a non-default heuristic.
    uint64_t vtree_builds = 0;
    /// TryCompile calls that hit a CompileBudget cap and returned nullopt
    /// (the routing probes that sent an instance to the anytime tier).
    uint64_t budget_exhausted = 0;
    /// Compilations stopped by an external CancelToken (request deadline).
    /// Distinct from budget_exhausted: a cancelled compile says nothing
    /// about the instance's hardness, so callers must not memoize it as a
    /// budget failure.
    uint64_t cancelled = 0;
    /// Sweep-and-merge totals (cumulative across Compile calls; equal when
    /// minimization is disabled).
    uint64_t minimize_nodes_before = 0;
    uint64_t minimize_nodes_after = 0;
  };

  Compiler() = default;

  /// Compiles the CNF into a fresh circuit whose root computes it. Exact
  /// for every monotone CNF. The raw circuit then goes through one
  /// sweep-and-merge Minimizer pass (see minimize.h) unless disabled
  /// below. The returned circuit is owned by the caller and holds no
  /// reference back into the compiler. TryCompile with an unlimited budget
  /// and no token.
  NnfCircuit Compile(const Cnf& cnf);
  /// Lineage convenience: an unsatisfiable lineage compiles to the FALSE
  /// circuit. Evaluate with lineage.probabilities (or any other weights).
  NnfCircuit Compile(const Lineage& lineage);

  /// Budgeted compilation — the routing probe of the anytime tier, and the
  /// body of every compilation. Returns the circuit iff the whole
  /// compilation (node construction, call count, wall clock) fits inside
  /// `budget`; std::nullopt once any cap is hit (the partial circuit is
  /// discarded and Stats::budget_exhausted ticks). An unlimited budget is
  /// exactly Compile: same circuit, bit for bit. Node/call caps are
  /// deterministic; the wall-clock cap is checked every few hundred
  /// recursion steps, so overshoot is bounded but timing-dependent.
  /// `cancel` (optional) is the request-deadline token, polled on the same
  /// stride: once it fires the result is std::nullopt too, but
  /// Stats::cancelled ticks instead of budget_exhausted — callers
  /// distinguish the two by checking cancel->cancelled().
  std::optional<NnfCircuit> TryCompile(const Cnf& cnf,
                                       const CompileBudget& budget,
                                       const CancelToken* cancel = nullptr);

  /// Shannon-order selection (default kDefault — the legacy
  /// most-occurring-variable heuristic). Non-default orders build one
  /// Vtree per Compile call from the CNF's primal graph and branch by its
  /// dissection; see compile/vtree.h. Affects circuit size only — results
  /// are bit-identical under every setting. Takes effect on the next
  /// Compile call.
  void set_order(OrderHeuristic order) { order_ = order; }
  OrderHeuristic order() const { return order_; }

  /// Post-compile minimization knob (on by default; benchmarks flip it
  /// off to measure the pass's payoff in isolation).
  void set_minimize(bool minimize) { minimize_ = minimize; }
  bool minimize() const { return minimize_; }

  const Stats& stats() const { return stats_; }
  const Minimizer::Stats& minimizer_stats() const {
    return minimizer_.stats();
  }
  void ResetStats() {
    stats_ = Stats();
    minimizer_.ResetStats();
  }

 private:
  /// One full compilation under the budget state TryCompile set up.
  NnfCircuit CompileImpl(const Cnf& cnf);
  int CompileNode(const Cnf& cnf);
  /// The Shannon branch variable for `cnf` under the active order:
  /// minimum-decision-rank occurring variable when a vtree is in force,
  /// else the legacy most-occurring variable.
  int BranchVariable(const Cnf& cnf) const;
  /// True once the in-flight budget is spent or the external token fired;
  /// flips budget_exhausted_ / cancelled_ so the recursion unwinds without
  /// building further nodes.
  bool BudgetSpent();

  NnfCircuit* circuit_ = nullptr;
  // In-flight budget state, set by TryCompile for one compilation.
  const CompileBudget* budget_ = nullptr;
  bool budget_exhausted_ = false;
  uint64_t budget_calls_ = 0;
  // The budget's own wall-clock cap (max_millis), armed per TryCompile.
  std::optional<CancelToken> budget_token_;
  // External request-deadline token; polling it is amortized on the same
  // every-256-calls stride as the budget clock.
  const CancelToken* cancel_ = nullptr;
  bool cancelled_ = false;
  // Sub-CNF -> node id; hashed via Hash64, compared exactly (CnfClauseEq).
  // Cleared at the top of every Compile, so entries never leak across
  // orders — the memo is keyed consistently under whichever order the
  // in-flight compilation runs.
  std::unordered_map<Cnf, int, CnfHash, CnfClauseEq> memo_;
  // Decision ranks of the in-flight vtree (empty under kDefault).
  std::vector<int> rank_;
  Minimizer minimizer_;
  OrderHeuristic order_ = OrderHeuristic::kDefault;
  bool minimize_ = true;
  Stats stats_;
};

}  // namespace gmc

#endif  // GMC_COMPILE_COMPILER_H_
