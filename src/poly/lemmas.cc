#include "poly/lemmas.h"

#include "compile/compiler.h"
#include "util/check.h"

namespace gmc {

Polynomial ArithmetizeCnf(const Cnf& cnf) {
  // One bottom-up pass over the d-DNNF in the polynomial semiring. Every
  // node's polynomial agrees with its sub-function on {0,1}^n and is
  // multilinear (AND children have disjoint supports, decision branches
  // omit their variable), so the root is THE arithmetization.
  const NnfCircuit circuit = Compiler().Compile(cnf);
  const std::vector<FlatNode>& nodes = circuit.nodes();
  std::vector<Polynomial> value(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const FlatNode& node = nodes[i];
    switch (static_cast<NnfKind>(node.kind)) {
      case NnfKind::kFalse:  // the zero polynomial
        break;
      case NnfKind::kTrue:
        value[i] = Polynomial::Constant(Rational::One());
        break;
      case NnfKind::kVar:
        value[i] = Polynomial::Variable(node.var);
        break;
      case NnfKind::kAnd:
        value[i] = Polynomial::Constant(Rational::One());
        for (const int child : circuit.children(i)) value[i] *= value[child];
        break;
      case NnfKind::kDecision:
        value[i] = Polynomial::Variable(node.var) * value[node.a] +
                   Polynomial::OneMinusVariable(node.var) * value[node.b];
        break;
    }
  }
  return value[circuit.root()];
}

std::unordered_map<int, Rational> FindNonRoot(const Polynomial& f,
                                              const Rational& c1,
                                              const Rational& c2,
                                              const Rational& c3) {
  GMC_CHECK_MSG(!f.IsZero(), "Lemma 1.1 requires f not identically zero");
  GMC_CHECK_MSG(c1 != c2 && c1 != c3 && c2 != c3,
                "Lemma 1.1 requires three distinct constants");
  GMC_CHECK_MSG(f.MaxVariableDegree() <= 2,
                "Lemma 1.1 requires degree <= 2 per variable");
  std::unordered_map<int, Rational> assignment;
  Polynomial current = f;
  // Eliminate variables one at a time. A degree-≤2 polynomial in x_n over
  // the ring of remaining variables has at most two roots among any three
  // distinct constants, so some substitution keeps the rest non-zero.
  for (int var : f.Variables()) {
    bool found = false;
    for (const Rational& c : {c1, c2, c3}) {
      Polynomial next = current.SubstituteValue(var, c);
      if (!next.IsZero()) {
        assignment[var] = c;
        current = std::move(next);
        found = true;
        break;
      }
    }
    GMC_CHECK_MSG(found, "no non-root value found (violates Lemma 1.1)");
  }
  GMC_CHECK(current.IsConstant() && !current.IsZero());
  return assignment;
}

PolyMatrix SmallMatrix(const Polynomial& y, int var_r, int var_t) {
  PolyMatrix out(2, 2);
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      out.At(a, b) = y.SubstituteValue(var_r, Rational(a))
                         .SubstituteValue(var_t, Rational(b));
    }
  }
  return out;
}

bool SmallMatrixSingular(const Polynomial& y, int var_r, int var_t) {
  return SmallMatrix(y, var_r, var_t).Determinant().IsZero();
}

}  // namespace gmc
