// Tuple-independent probabilistic databases (TIDs) over bipartite domains.
//
// A TID ∆ = (Dom, p) assigns a probability to every ground tuple over the
// vocabulary (§2). Domains here are bipartite: `num_left` constants ranged
// over by x and `num_right` constants ranged over by y. Following the
// paper's constructions ("Otherwise, Pr(S(a,b)) = 1"), tuples not explicitly
// assigned a probability take a configurable default, which is 1 for the
// hardness gadgets (so unmentioned atoms are simply true) — use 0 to model
// the classic "absent tuples are false" convention.

#ifndef GMC_PROB_TID_H_
#define GMC_PROB_TID_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "logic/symbol.h"
#include "util/rational.h"

namespace gmc {

using ConstantId = int32_t;

// A ground tuple: R(left), T(right), or S(left, right).
struct TupleKey {
  SymbolId symbol = -1;
  ConstantId left = -1;   // -1 for right-unary symbols
  ConstantId right = -1;  // -1 for left-unary symbols

  bool operator==(const TupleKey&) const = default;
};

struct TupleKeyHash {
  size_t operator()(const TupleKey& key) const {
    size_t h = static_cast<size_t>(key.symbol) * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<size_t>(key.left) + 0x9e3779b9u) + (h << 6) + (h >> 2);
    h ^= (static_cast<size_t>(key.right) + 0x85ebca6bu) + (h << 6) + (h >> 2);
    return h;
  }
};

class Tid {
 public:
  Tid(std::shared_ptr<const Vocabulary> vocab, int num_left, int num_right,
      Rational default_probability = Rational::One());

  const Vocabulary& vocab() const { return *vocab_; }
  std::shared_ptr<const Vocabulary> vocab_ptr() const { return vocab_; }
  int num_left() const { return num_left_; }
  int num_right() const { return num_right_; }
  const Rational& default_probability() const { return default_probability_; }

  // Domain growth (returns the new constant's id).
  ConstantId AddLeft() { return num_left_++; }
  ConstantId AddRight() { return num_right_++; }

  // Probability assignment. Keys must be well-formed for the symbol's kind
  // and constants must be in range (checked).
  void Set(const TupleKey& key, const Rational& probability);
  void SetUnaryLeft(SymbolId symbol, ConstantId u, const Rational& p);
  void SetUnaryRight(SymbolId symbol, ConstantId v, const Rational& p);
  void SetBinary(SymbolId symbol, ConstantId u, ConstantId v,
                 const Rational& p);

  const Rational& Probability(const TupleKey& key) const;

  // Room for `tuples` explicit tuples without rehashing.
  void Reserve(size_t tuples) { tuples_.reserve(tuples); }

  // Explicitly assigned tuples (everything else has the default).
  const std::unordered_map<TupleKey, Rational, TupleKeyHash>& explicit_tuples()
      const {
    return tuples_;
  }

  // Total number of ground tuples over the current domain.
  int64_t NumGroundTuples() const;

  // True if all probabilities (including the default) lie in {0, 1/2, 1} —
  // the GFOMC setting; or {1/2, 1} — the FOMC (model counting) setting of
  // §2 for ∀CNF.
  bool IsGfomcInstance() const;
  bool IsFomcInstance() const;

  std::string DebugString() const;

 private:
  void CheckKey(const TupleKey& key) const;

  std::shared_ptr<const Vocabulary> vocab_;
  int num_left_ = 0;
  int num_right_ = 0;
  Rational default_probability_;
  std::unordered_map<TupleKey, Rational, TupleKeyHash> tuples_;
};

}  // namespace gmc

#endif  // GMC_PROB_TID_H_
