// Type-II query machinery (Appendix C): lattice structure, the queries
// Q_αβ, their invertibility (Lemma C.10), and the Möbius inversion formula
// over block-disjoint TIDs (Theorem C.19 / Corollary C.20).
//
// A Type II-II query is rewritten as Q = ∀x(∨ᵢ∀y Gᵢ) ∧ ∀x∀y C ∧
// ∀y(∨ⱼ∀x Hⱼ) (Eqs. 46–49) by distributing its left and right clauses. The
// left lattice is the implication lattice of {Gᵢ ∧ C}, the right lattice of
// {C ∧ Hⱼ}; their strict supports have sizes m̄, n̄ ∈ [3, 2^m − 1] for
// unsafe queries. The reduction of §C.4 then recovers CCP(m̄, n̄) counts
// from Pr(Q) on block TIDs; this module provides those combinatorial
// pieces plus an executable check of the inversion formula itself.

#ifndef GMC_HARDNESS_TYPE2_H_
#define GMC_HARDNESS_TYPE2_H_

#include <memory>
#include <vector>

#include "logic/query.h"
#include "prob/tid.h"
#include "safe/lattice.h"
#include "util/rational.h"

namespace gmc {

class Oracle;  // hardness/reduction_type1.h

struct TypeIIStructure {
  Query query;
  SymbolCnf middle;                       // C(x,y)
  std::vector<SymbolCnf> left_formulas;   // Gᵢ ∧ C
  std::vector<SymbolCnf> right_formulas;  // C ∧ Hⱼ
  std::unique_ptr<ImplicationLattice> left_lattice;
  std::unique_ptr<ImplicationLattice> right_lattice;
  int m_bar = 0;  // |L0(G)|
  int n_bar = 0;  // |L0(H)|
};

// Decomposes an unsafe Type II-II query per Eqs. (46)–(49) and builds both
// lattices.
TypeIIStructure AnalyzeTypeII(const Query& query);

// The query ∀x∀y Q_αβ(x,y) of Eqs. (53)–(55), where `alpha`/`beta` index
// elements of the left/right lattices (0 = 1̂).
Query MakeQueryAlphaBeta(const TypeIIStructure& structure, int alpha,
                         int beta);

// Lemma C.10 check: the map (α, β) ↦ Q_αβ is order-reflecting — an
// implication Q_{α1β1} ⇒ Q_{α2β2} forces α1 ≤ α2 and β1 ≤ β2. Returns true
// if it holds for all pairs over the strict supports. (The paper proves it
// for queries of length ≥ 5.)
bool CheckInvertibility(const TypeIIStructure& structure);

// Theorem C.19 / Corollary C.20 on a concrete block-disjoint TID: every
// (u, v) pair is its own elementary block (all binary tuples between u and
// v, probabilities from `delta`). Returns Pr(Q) computed directly by WMC
// and via the Möbius inversion sum
//   Σ_{σ,τ} Πᵤ µ(σ(u)) Πᵥ µ(τ(v)) Π_{u,v} Pr(Y_{σ(u)τ(v)}(u,v)).
//
// The per-block probabilities Pr(Y_αβ(u,v)) come from `oracle`, one
// ProbabilityBatch(Q_αβ, pair TIDs) per (α, β), so each block is one oracle
// call. A CompiledOracle (core/dichotomy.h) compiles each distinct block
// lineage structure once and serves an (α, β)'s blocks with one batched
// pass per structure; its session's stats report the sharing actually
// achieved.
struct MobiusInversionCheck {
  Rational direct;
  Rational via_inversion;
  int terms = 0;
};

MobiusInversionCheck VerifyMobiusInversion(const TypeIIStructure& structure,
                                           const Tid& delta, Oracle& oracle);

}  // namespace gmc

#endif  // GMC_HARDNESS_TYPE2_H_
