#include "prob/tid.h"

#include <utility>

#include "util/check.h"

namespace gmc {

Tid::Tid(std::shared_ptr<const Vocabulary> vocab, int num_left, int num_right,
         Rational default_probability)
    : vocab_(std::move(vocab)),
      num_left_(num_left),
      num_right_(num_right),
      default_probability_(std::move(default_probability)) {
  GMC_CHECK(vocab_ != nullptr);
  GMC_CHECK(num_left_ >= 0 && num_right_ >= 0);
  GMC_CHECK(default_probability_.IsProbability());
}

void Tid::CheckKey(const TupleKey& key) const {
  GMC_CHECK(key.symbol >= 0 && key.symbol < vocab_->size());
  switch (vocab_->kind(key.symbol)) {
    case SymbolKind::kUnaryLeft:
      GMC_CHECK(key.left >= 0 && key.left < num_left_ && key.right == -1);
      break;
    case SymbolKind::kUnaryRight:
      GMC_CHECK(key.right >= 0 && key.right < num_right_ && key.left == -1);
      break;
    case SymbolKind::kBinary:
      GMC_CHECK(key.left >= 0 && key.left < num_left_ && key.right >= 0 &&
                key.right < num_right_);
      break;
  }
}

void Tid::Set(const TupleKey& key, const Rational& probability) {
  CheckKey(key);
  GMC_CHECK_MSG(probability.IsProbability(), "probability out of [0, 1]");
  tuples_[key] = probability;
}

void Tid::SetUnaryLeft(SymbolId symbol, ConstantId u, const Rational& p) {
  Set(TupleKey{symbol, u, -1}, p);
}

void Tid::SetUnaryRight(SymbolId symbol, ConstantId v, const Rational& p) {
  Set(TupleKey{symbol, -1, v}, p);
}

void Tid::SetBinary(SymbolId symbol, ConstantId u, ConstantId v,
                    const Rational& p) {
  Set(TupleKey{symbol, u, v}, p);
}

const Rational& Tid::Probability(const TupleKey& key) const {
  auto it = tuples_.find(key);
  return it == tuples_.end() ? default_probability_ : it->second;
}

int64_t Tid::NumGroundTuples() const {
  int64_t total = 0;
  for (SymbolId id = 0; id < vocab_->size(); ++id) {
    switch (vocab_->kind(id)) {
      case SymbolKind::kUnaryLeft:
        total += num_left_;
        break;
      case SymbolKind::kUnaryRight:
        total += num_right_;
        break;
      case SymbolKind::kBinary:
        total += static_cast<int64_t>(num_left_) * num_right_;
        break;
    }
  }
  return total;
}

namespace {

bool InSet(const Rational& p, bool allow_zero) {
  if (p == Rational::Zero()) return allow_zero;
  return p == Rational::Half() || p == Rational::One();
}

}  // namespace

bool Tid::IsGfomcInstance() const {
  if (!InSet(default_probability_, /*allow_zero=*/true)) return false;
  for (const auto& [key, p] : tuples_) {
    if (!InSet(p, /*allow_zero=*/true)) return false;
  }
  return true;
}

bool Tid::IsFomcInstance() const {
  if (!InSet(default_probability_, /*allow_zero=*/false)) return false;
  for (const auto& [key, p] : tuples_) {
    if (!InSet(p, /*allow_zero=*/false)) return false;
  }
  return true;
}

std::string Tid::DebugString() const {
  std::string out = "Tid(left=" + std::to_string(num_left_) +
                    ", right=" + std::to_string(num_right_) +
                    ", default=" + default_probability_.ToString() + ")\n";
  for (const auto& [key, p] : tuples_) {
    out += "  " + vocab_->name(key.symbol) + "(";
    if (key.left >= 0) out += "u" + std::to_string(key.left);
    if (key.left >= 0 && key.right >= 0) out += ",";
    if (key.right >= 0) out += "v" + std::to_string(key.right);
    out += ") = " + p.ToString() + "\n";
  }
  return out;
}

}  // namespace gmc
