#include "safe/safe_eval.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "logic/bipartite.h"
#include "safe/lattice.h"
#include "util/check.h"

namespace gmc {

namespace {

// A clause of a safe component viewed from the evaluation side: a
// disjunction of unary atoms over the base constant plus ∀-quantified
// binary-only subclauses over the other side.
struct ClauseView {
  std::vector<SymbolId> base_unaries;
  std::vector<std::vector<SymbolId>> subclauses;  // binary symbol sets
};

ClauseView ViewFrom(const Clause& clause, Side side) {
  ClauseView view;
  if (clause.base() == side) {
    view.base_unaries = clause.base_unaries();
    for (const Subclause& sub : clause.subclauses()) {
      GMC_CHECK_MSG(sub.inner_unaries.empty(),
                    "opposite-side unary in a clause of a safe component");
      view.subclauses.push_back(sub.binaries);
    }
    return view;
  }
  // Rebase a prenex-simple clause to the other side:
  // ∀x∀y(S_J(x,y) ∨ T(y)) = ∀y(T(y) ∨ ∀x S_J(x,y)).
  GMC_CHECK_MSG(clause.NumSubclauses() <= 1,
                "multi-subclause clause cannot be rebased");
  GMC_CHECK_MSG(clause.base_unaries().empty(),
                "clause has unaries on both sides of a safe component");
  if (clause.NumSubclauses() == 1) {
    const Subclause& sub = clause.subclauses()[0];
    view.base_unaries = sub.inner_unaries;
    view.subclauses.push_back(sub.binaries);
  }
  return view;
}

// Pr of the monotone CNF `formula` over the binary tuples at one (left,
// right) pair, by enumeration over the uncertain symbols.
Rational PairProbability(const SymbolCnf& formula, const Tid& tid,
                         ConstantId left, ConstantId right) {
  // Partition symbols: certain-true satisfies its clauses; certain-false
  // drops; the rest are enumerated.
  std::vector<SymbolId> uncertain;
  std::vector<std::vector<SymbolId>> active;
  for (const auto& clause : formula.clauses) {
    bool satisfied = false;
    std::vector<SymbolId> lits;
    for (SymbolId s : clause) {
      const Rational& p = tid.Probability(TupleKey{s, left, right});
      if (p.IsOne()) {
        satisfied = true;
        break;
      }
      if (!p.IsZero()) lits.push_back(s);
    }
    if (satisfied) continue;
    if (lits.empty()) return Rational::Zero();
    active.push_back(std::move(lits));
  }
  if (active.empty()) return Rational::One();
  for (const auto& clause : active) {
    uncertain.insert(uncertain.end(), clause.begin(), clause.end());
  }
  std::sort(uncertain.begin(), uncertain.end());
  uncertain.erase(std::unique(uncertain.begin(), uncertain.end()),
                  uncertain.end());
  GMC_CHECK_MSG(uncertain.size() <= 20, "too many symbols at one pair");
  Rational total = Rational::Zero();
  const uint32_t limit = uint32_t{1} << uncertain.size();
  for (uint32_t mask = 0; mask < limit; ++mask) {
    bool satisfied = true;
    for (const auto& clause : active) {
      bool clause_sat = false;
      for (SymbolId s : clause) {
        const size_t index =
            std::lower_bound(uncertain.begin(), uncertain.end(), s) -
            uncertain.begin();
        if (mask & (uint32_t{1} << index)) {
          clause_sat = true;
          break;
        }
      }
      if (!clause_sat) {
        satisfied = false;
        break;
      }
    }
    if (!satisfied) continue;
    Rational world = Rational::One();
    for (size_t i = 0; i < uncertain.size(); ++i) {
      const Rational& p =
          tid.Probability(TupleKey{uncertain[i], left, right});
      world *= (mask & (uint32_t{1} << i)) ? p : Rational::One() - p;
    }
    total += world;
  }
  return total;
}

}  // namespace

std::optional<Rational> LiftedProbability(const Query& query,
                                          const Tid& tid) {
  if (query.IsFalse()) return Rational::Zero();
  if (query.IsTrue()) return Rational::One();
  BipartiteAnalysis analysis = AnalyzeBipartite(query);
  if (!analysis.safe) return std::nullopt;

  const std::vector<int> component_of = query.ClauseComponents();
  int num_components = 0;
  for (int c : component_of) num_components = std::max(num_components, c + 1);

  Rational total = Rational::One();
  for (int component = 0; component < num_components; ++component) {
    std::vector<const Clause*> clauses;
    bool has_right = false;
    for (size_t i = 0; i < component_of.size(); ++i) {
      if (component_of[i] != component) continue;
      clauses.push_back(&query.clauses()[i]);
      has_right |= query.clauses()[i].IsRightClause();
    }
    // A safe component lacks left or right clauses; evaluate from the side
    // that anchors every clause. (Right clauses present ⇒ no left clauses.)
    const Side side = has_right ? Side::kRight : Side::kLeft;
    std::vector<ClauseView> views;
    for (const Clause* clause : clauses) views.push_back(ViewFrom(*clause, side));

    const int num_base =
        side == Side::kLeft ? tid.num_left() : tid.num_right();
    const int num_inner =
        side == Side::kLeft ? tid.num_right() : tid.num_left();
    auto unary_key = [&side](SymbolId s, ConstantId b) {
      return side == Side::kLeft ? TupleKey{s, b, -1} : TupleKey{s, -1, b};
    };

    Rational component_probability = Rational::One();
    for (ConstantId b = 0; b < num_base && !component_probability.IsZero();
         ++b) {
      // Uncertain unary tuples at b, across all clauses of the component.
      std::vector<SymbolId> uncertain_unaries;
      std::vector<bool> certainly_satisfied(views.size(), false);
      for (size_t c = 0; c < views.size(); ++c) {
        for (SymbolId s : views[c].base_unaries) {
          const Rational& p = tid.Probability(unary_key(s, b));
          if (p.IsOne()) certainly_satisfied[c] = true;
          if (!p.IsZero() && !p.IsOne()) uncertain_unaries.push_back(s);
        }
      }
      std::sort(uncertain_unaries.begin(), uncertain_unaries.end());
      uncertain_unaries.erase(
          std::unique(uncertain_unaries.begin(), uncertain_unaries.end()),
          uncertain_unaries.end());
      GMC_CHECK_MSG(uncertain_unaries.size() <= 16,
                    "too many unary symbols at one constant");

      Rational base_probability = Rational::Zero();
      const uint32_t limit = uint32_t{1} << uncertain_unaries.size();
      for (uint32_t mask = 0; mask < limit; ++mask) {
        Rational weight = Rational::One();
        for (size_t i = 0; i < uncertain_unaries.size(); ++i) {
          const Rational& p =
              tid.Probability(unary_key(uncertain_unaries[i], b));
          weight *= (mask & (uint32_t{1} << i)) ? p : Rational::One() - p;
        }
        // Surviving clauses under this unary assignment.
        std::vector<const ClauseView*> surviving;
        bool branch_false = false;
        for (size_t c = 0; c < views.size(); ++c) {
          if (certainly_satisfied[c]) continue;
          bool satisfied = false;
          for (SymbolId s : views[c].base_unaries) {
            auto it = std::lower_bound(uncertain_unaries.begin(),
                                       uncertain_unaries.end(), s);
            if (it != uncertain_unaries.end() && *it == s &&
                (mask & (uint32_t{1}
                         << (it - uncertain_unaries.begin())))) {
              satisfied = true;
              break;
            }
          }
          if (satisfied) continue;
          if (views[c].subclauses.empty()) {
            branch_false = true;  // pure unary clause, all atoms false
            break;
          }
          surviving.push_back(&views[c]);
        }
        if (branch_false) continue;
        if (surviving.empty()) {
          base_probability += weight;
          continue;
        }
        // Distribute ∧_c ∨_ℓ into the G_i of Eq. (47): one conjunction per
        // choice of subclause per clause.
        std::vector<SymbolCnf> disjuncts;
        std::vector<size_t> choice(surviving.size(), 0);
        while (true) {
          std::vector<std::vector<SymbolId>> picked;
          for (size_t c = 0; c < surviving.size(); ++c) {
            picked.push_back(surviving[c]->subclauses[choice[c]]);
          }
          disjuncts.push_back(SymbolCnf::FromClauses(std::move(picked)));
          size_t pos = 0;
          while (pos < choice.size()) {
            if (++choice[pos] < surviving[pos]->subclauses.size()) break;
            choice[pos] = 0;
            ++pos;
          }
          if (pos == choice.size()) break;
        }
        std::sort(disjuncts.begin(), disjuncts.end());
        disjuncts.erase(std::unique(disjuncts.begin(), disjuncts.end()),
                        disjuncts.end());

        auto forall_inner = [&](const SymbolCnf& g) {
          Rational product = Rational::One();
          for (ConstantId v = 0; v < num_inner && !product.IsZero(); ++v) {
            const ConstantId left = side == Side::kLeft ? b : v;
            const ConstantId right = side == Side::kLeft ? v : b;
            product *= PairProbability(g, tid, left, right);
          }
          return product;
        };

        Rational branch;
        if (disjuncts.size() == 1) {
          branch = forall_inner(disjuncts[0]);
        } else {
          // Möbius inversion: Pr(∨ᵢ ∀y Gᵢ) = −Σ_{α<1̂} µ(α)·Pr(∀y G_α).
          ImplicationLattice lattice(disjuncts);
          branch = Rational::Zero();
          for (int index : lattice.StrictSupport()) {
            const LatticeElement& element = lattice.elements()[index];
            branch -= Rational(element.mobius) *
                      forall_inner(element.formula);
          }
        }
        base_probability += weight * branch;
      }
      component_probability *= base_probability;
    }
    total *= component_probability;
  }
  return total;
}

}  // namespace gmc
