#include "hardness/type2.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "hardness/reduction_type1.h"
#include "logic/bipartite.h"
#include "util/check.h"
#include "wmc/wmc.h"

namespace gmc {

namespace {

// Middle-clause-only query from a symbol CNF: ∀x∀y F(x,y).
std::vector<Clause> MiddleClausesOf(const SymbolCnf& formula) {
  std::vector<Clause> out;
  for (const auto& clause : formula.clauses) {
    out.push_back(Clause(Side::kLeft, {}, {Subclause{clause, {}}}));
  }
  return out;
}

}  // namespace

TypeIIStructure AnalyzeTypeII(const Query& query) {
  BipartiteAnalysis analysis = AnalyzeBipartite(query);
  GMC_CHECK_MSG(!analysis.safe, "Type II analysis expects an unsafe query");
  GMC_CHECK_MSG(analysis.left_type == PartType::kTypeII &&
                    analysis.right_type == PartType::kTypeII,
                "query is not of type II-II");

  TypeIIStructure out{query, SymbolCnf{}, {}, {}, nullptr, nullptr, 0, 0};

  std::vector<const Clause*> left_clauses, right_clauses;
  std::vector<std::vector<SymbolId>> middle_clauses;
  for (const Clause& clause : query.clauses()) {
    if (clause.IsLeftClause()) {
      left_clauses.push_back(&clause);
    } else if (clause.IsRightClause()) {
      right_clauses.push_back(&clause);
    } else {
      GMC_CHECK(clause.IsMiddleClause());
      middle_clauses.push_back(clause.subclauses()[0].binaries);
    }
  }
  out.middle = SymbolCnf::FromClauses(std::move(middle_clauses));

  // Distribute ∧ over ∨ (CNF→DNF across clauses) to get the Gᵢ of Eq. (47).
  auto distribute = [](const std::vector<const Clause*>& clauses) {
    std::vector<SymbolCnf> formulas;
    if (clauses.empty()) return formulas;
    std::vector<size_t> choice(clauses.size(), 0);
    while (true) {
      std::vector<std::vector<SymbolId>> picked;
      for (size_t c = 0; c < clauses.size(); ++c) {
        picked.push_back(clauses[c]->subclauses()[choice[c]].binaries);
      }
      formulas.push_back(SymbolCnf::FromClauses(std::move(picked)));
      size_t pos = 0;
      while (pos < choice.size()) {
        if (++choice[pos] <
            static_cast<size_t>(clauses[pos]->NumSubclauses())) {
          break;
        }
        choice[pos] = 0;
        ++pos;
      }
      if (pos == choice.size()) break;
    }
    std::sort(formulas.begin(), formulas.end());
    formulas.erase(std::unique(formulas.begin(), formulas.end()),
                   formulas.end());
    return formulas;
  };

  for (const SymbolCnf& g : distribute(left_clauses)) {
    out.left_formulas.push_back(SymbolCnf::And(g, out.middle));
  }
  for (const SymbolCnf& h : distribute(right_clauses)) {
    out.right_formulas.push_back(SymbolCnf::And(out.middle, h));
  }
  GMC_CHECK(!out.left_formulas.empty() && !out.right_formulas.empty());
  out.left_lattice =
      std::make_unique<ImplicationLattice>(out.left_formulas);
  out.right_lattice =
      std::make_unique<ImplicationLattice>(out.right_formulas);
  out.m_bar = static_cast<int>(out.left_lattice->StrictSupport().size());
  out.n_bar = static_cast<int>(out.right_lattice->StrictSupport().size());
  return out;
}

Query MakeQueryAlphaBeta(const TypeIIStructure& structure, int alpha,
                         int beta) {
  const auto& left = structure.left_lattice->elements();
  const auto& right = structure.right_lattice->elements();
  GMC_CHECK(alpha >= 0 && alpha < static_cast<int>(left.size()));
  GMC_CHECK(beta >= 0 && beta < static_cast<int>(right.size()));
  if (alpha == 0 && beta == 0) return structure.query;  // Q_1̂1̂ ≡ Q
  if (alpha > 0 && beta > 0) {
    // Eq. (54): ∀x∀y(G_α ∧ C ∧ H_β); both lattice formulas already include
    // C, so their conjunction is exactly the right CNF.
    SymbolCnf conj =
        SymbolCnf::And(left[alpha].formula, right[beta].formula);
    return Query(structure.query.vocab_ptr(), MiddleClausesOf(conj));
  }
  // Eq. (55): Q ∧ the grounded-side formula.
  std::vector<Clause> clauses = structure.query.clauses();
  const SymbolCnf& extra =
      alpha > 0 ? left[alpha].formula : right[beta].formula;
  for (Clause& c : MiddleClausesOf(extra)) clauses.push_back(std::move(c));
  return Query(structure.query.vocab_ptr(), std::move(clauses));
}

bool CheckInvertibility(const TypeIIStructure& structure) {
  // Order: α ≤ α′ in Lˆ iff subset(α′) ⊆ subset(α); 1̂ (index 0, subset ∅)
  // is the top.
  const auto& left = structure.left_lattice->elements();
  const auto& right = structure.right_lattice->elements();
  auto leq = [](uint32_t a, uint32_t b) {  // element a ≤ element b
    return (b & a) == b;                   // subset(b) ⊆ subset(a)
  };
  for (int a1 = 0; a1 < static_cast<int>(left.size()); ++a1) {
    for (int b1 = 0; b1 < static_cast<int>(right.size()); ++b1) {
      Query q1 = MakeQueryAlphaBeta(structure, a1, b1);
      for (int a2 = 0; a2 < static_cast<int>(left.size()); ++a2) {
        for (int b2 = 0; b2 < static_cast<int>(right.size()); ++b2) {
          Query q2 = MakeQueryAlphaBeta(structure, a2, b2);
          if (!Query::Implies(q1, q2)) continue;
          if (!leq(left[a1].subset, left[a2].subset) ||
              !leq(right[b1].subset, right[b2].subset)) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

MobiusInversionCheck VerifyMobiusInversion(const TypeIIStructure& structure,
                                           const Tid& delta, Oracle& oracle) {
  MobiusInversionCheck out;
  WmcEngine engine;
  out.direct = engine.QueryProbability(structure.query, delta);

  const Vocabulary& vocab = structure.query.vocab();
  const int nu = delta.num_left();
  const int nv = delta.num_right();
  const std::vector<int> l0g = structure.left_lattice->StrictSupport();
  const std::vector<int> l0h = structure.right_lattice->StrictSupport();

  // Per-block probabilities Pr(Y_αβ(u,v)): the block is the single pair
  // (u,v) with delta's probabilities. Every (α, β, u, v) combination the
  // inversion sum can touch is known up front, so the oracle sees each
  // (α, β)'s blocks as one batch.
  std::map<std::tuple<int, int, int, int>, Rational> block_probability;
  {
    // The pair TID depends only on (u, v); build the nu·nv of them once
    // instead of once per (α, β).
    std::vector<Tid> pair_tids;
    pair_tids.reserve(static_cast<size_t>(nu) * nv);
    for (int u = 0; u < nu; ++u) {
      for (int v = 0; v < nv; ++v) {
        Tid pair_tid(structure.query.vocab_ptr(), 1, 1, Rational::One());
        for (SymbolId s = 0; s < vocab.size(); ++s) {
          if (vocab.kind(s) != SymbolKind::kBinary) continue;
          pair_tid.SetBinary(s, 0, 0, delta.Probability(TupleKey{s, u, v}));
        }
        pair_tids.push_back(std::move(pair_tid));
      }
    }
    // One batch per (α, β): lineage structure is shared within an (α, β)
    // and rarely across them.
    for (int a : l0g) {
      for (int b : l0h) {
        std::vector<Rational> values = oracle.ProbabilityBatch(
            MakeQueryAlphaBeta(structure, a, b), pair_tids);
        for (int u = 0; u < nu; ++u) {
          for (int v = 0; v < nv; ++v) {
            block_probability.emplace(std::make_tuple(u, v, a, b),
                                      std::move(values[u * nv + v]));
          }
        }
      }
    }
  }
  auto y = [&](int u, int v, int a, int b) {
    return block_probability.at(std::make_tuple(u, v, a, b));
  };

  // Σ over σ : U → L0(G), τ : V → L0(H) (odometers over support indices).
  Rational total = Rational::Zero();
  std::vector<size_t> sigma(nu, 0);
  while (true) {
    std::vector<size_t> tau(nv, 0);
    while (true) {
      ++out.terms;
      Rational term = Rational::One();
      for (int u = 0; u < nu; ++u) {
        term *= Rational(
            structure.left_lattice->elements()[l0g[sigma[u]]].mobius);
      }
      for (int v = 0; v < nv; ++v) {
        term *= Rational(
            structure.right_lattice->elements()[l0h[tau[v]]].mobius);
      }
      for (int u = 0; u < nu && !term.IsZero(); ++u) {
        for (int v = 0; v < nv && !term.IsZero(); ++v) {
          term *= y(u, v, l0g[sigma[u]], l0h[tau[v]]);
        }
      }
      total += term;
      int pos = nv - 1;
      while (pos >= 0 && tau[pos] == l0h.size() - 1) tau[pos--] = 0;
      if (pos < 0) break;
      ++tau[pos];
    }
    int pos = nu - 1;
    while (pos >= 0 && sigma[pos] == l0g.size() - 1) sigma[pos--] = 0;
    if (pos < 0) break;
    ++sigma[pos];
  }
  // (−1)^{|U|+|V|}.
  if ((nu + nv) % 2 == 1) total = -total;
  out.via_inversion = total;
  return out;
}

}  // namespace gmc
