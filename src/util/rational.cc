#include "util/rational.h"

#include <utility>

#include "util/check.h"

namespace gmc {

Rational::Rational(int64_t numerator, int64_t denominator)
    : numerator_(numerator), denominator_(denominator) {
  GMC_CHECK_MSG(denominator != 0, "zero denominator");
  Reduce();
}

Rational::Rational(BigInt numerator, BigInt denominator)
    : numerator_(std::move(numerator)), denominator_(std::move(denominator)) {
  GMC_CHECK_MSG(!denominator_.IsZero(), "zero denominator");
  Reduce();
}

Rational Rational::FromBigInt(BigInt value) {
  return Rational(std::move(value), BigInt(1));
}

Rational Rational::FromReducedParts(BigInt numerator, BigInt denominator) {
  GMC_DCHECK(denominator.sign() > 0);
  GMC_DCHECK(BigInt::Gcd(numerator, denominator).IsOne() ||
             numerator.IsZero());
  Rational out;
  out.numerator_ = std::move(numerator);
  out.denominator_ = std::move(denominator);
  if (out.numerator_.IsZero()) out.denominator_ = BigInt(1);
  return out;
}

Rational Rational::Dyadic(BigInt numerator, uint64_t log2_denominator) {
  return Rational(std::move(numerator), BigInt(1).ShiftLeft(log2_denominator));
}

Rational Rational::FromString(const std::string& text) {
  size_t slash = text.find('/');
  if (slash == std::string::npos) {
    return FromBigInt(BigInt::FromDecimal(text));
  }
  return Rational(BigInt::FromDecimal(text.substr(0, slash)),
                  BigInt::FromDecimal(text.substr(slash + 1)));
}

void Rational::Reduce() {
  if (denominator_.IsNegative()) {
    numerator_ = -numerator_;
    denominator_ = -denominator_;
  }
  if (numerator_.IsZero()) {
    denominator_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(numerator_, denominator_);
  if (!g.IsOne()) {
    numerator_ /= g;
    denominator_ /= g;
  }
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.numerator_ = -out.numerator_;
  return out;
}

// The sum of reduced fractions n1/d1 ± n2/d2 needs no gcd at all when either
// side is integral or when the denominators are coprime, and otherwise only
// gcd(t, g) for g = gcd(d1, d2) — never a gcd over the full-width products.
// Every branch below mutates the existing numerator/denominator buffers in
// place (BigInt's compound operators reuse their limb storage).
void Rational::AddImpl(const Rational& other, bool subtract) {
  if (other.IsZero()) return;
  if (IsZero()) {
    numerator_ = other.numerator_;
    if (subtract) numerator_ = -numerator_;
    denominator_ = other.denominator_;
    return;
  }
  if (this == &other) {
    const Rational copy = other;
    AddImpl(copy, subtract);
    return;
  }
  if (other.IsInteger()) {
    // gcd(n1 ± k·d1, d1) == gcd(n1, d1) == 1: still reduced.
    BigInt t = other.numerator_ * denominator_;
    if (subtract) {
      numerator_ -= t;
    } else {
      numerator_ += t;
    }
    if (numerator_.IsZero()) denominator_ = BigInt(1);
    return;
  }
  if (IsInteger()) {
    // (n1·d2 ± n2) / d2 shares no factor with d2 (n2 doesn't).
    numerator_ *= other.denominator_;
    if (subtract) {
      numerator_ -= other.numerator_;
    } else {
      numerator_ += other.numerator_;
    }
    denominator_ = other.denominator_;
    return;
  }
  const BigInt g = BigInt::Gcd(denominator_, other.denominator_);
  if (g.IsOne()) {
    // Coprime denominators: any prime of d1·d2 divides exactly one of the
    // two summand terms, so the result is already reduced.
    numerator_ *= other.denominator_;
    BigInt t = other.numerator_ * denominator_;
    if (subtract) {
      numerator_ -= t;
    } else {
      numerator_ += t;
    }
    denominator_ *= other.denominator_;
    if (numerator_.IsZero()) denominator_ = BigInt(1);
    return;
  }
  // t / (d1·(d2/g)) with gcd(t, d1·(d2/g)) == gcd(t, g).
  const BigInt d2_over_g = other.denominator_ / g;
  BigInt t = numerator_ * d2_over_g;
  BigInt u = other.numerator_ * (denominator_ / g);
  if (subtract) {
    t -= u;
  } else {
    t += u;
  }
  if (t.IsZero()) {
    numerator_ = BigInt(0);
    denominator_ = BigInt(1);
    return;
  }
  const BigInt g2 = BigInt::Gcd(t, g);
  if (g2.IsOne()) {
    numerator_ = std::move(t);
    denominator_ *= d2_over_g;
  } else {
    numerator_ = t / g2;
    denominator_ /= g2;
    denominator_ *= d2_over_g;
  }
}

Rational& Rational::operator+=(const Rational& other) {
  AddImpl(other, /*subtract=*/false);
  return *this;
}

Rational& Rational::operator-=(const Rational& other) {
  AddImpl(other, /*subtract=*/true);
  return *this;
}

Rational& Rational::operator*=(const Rational& other) {
  if (IsZero()) return *this;
  if (other.IsZero()) {
    numerator_ = BigInt(0);
    denominator_ = BigInt(1);
    return *this;
  }
  if (this == &other) {
    // Squares of reduced fractions stay reduced.
    numerator_ *= numerator_;
    denominator_ *= denominator_;
    return *this;
  }
  if (other.IsInteger()) {
    // Only the integer factor can meet the denominator.
    const BigInt g = BigInt::Gcd(other.numerator_, denominator_);
    if (g.IsOne()) {
      numerator_ *= other.numerator_;
    } else {
      numerator_ *= other.numerator_ / g;
      denominator_ /= g;
    }
    return *this;
  }
  if (IsInteger()) {
    const BigInt g = BigInt::Gcd(numerator_, other.denominator_);
    if (g.IsOne()) {
      numerator_ *= other.numerator_;
      denominator_ = other.denominator_;
    } else {
      numerator_ /= g;
      numerator_ *= other.numerator_;
      denominator_ = other.denominator_ / g;
    }
    return *this;
  }
  // Cross-reduce before multiplying to keep intermediates small; inputs are
  // reduced, so the cross-reduced product is reduced.
  const BigInt g1 = BigInt::Gcd(numerator_, other.denominator_);
  const BigInt g2 = BigInt::Gcd(other.numerator_, denominator_);
  if (!g1.IsOne()) numerator_ /= g1;
  numerator_ *= g2.IsOne() ? other.numerator_ : other.numerator_ / g2;
  if (!g2.IsOne()) denominator_ /= g2;
  denominator_ *= g1.IsOne() ? other.denominator_ : other.denominator_ / g1;
  return *this;
}

Rational& Rational::operator/=(const Rational& other) {
  GMC_CHECK_MSG(!other.IsZero(), "division by zero rational");
  if (this == &other) {
    numerator_ = BigInt(1);
    denominator_ = BigInt(1);
    return *this;
  }
  return *this *= other.Inverse();
}

Rational Rational::operator+(const Rational& other) const {
  Rational out = *this;
  out.AddImpl(other, /*subtract=*/false);
  return out;
}

Rational Rational::operator-(const Rational& other) const {
  Rational out = *this;
  out.AddImpl(other, /*subtract=*/true);
  return out;
}

Rational Rational::operator*(const Rational& other) const {
  Rational out = *this;
  out *= other;
  return out;
}

Rational Rational::operator/(const Rational& other) const {
  Rational out = *this;
  out /= other;
  return out;
}

Rational Rational::Inverse() const {
  GMC_CHECK_MSG(!IsZero(), "inverse of zero");
  Rational out;
  out.numerator_ = denominator_;
  out.denominator_ = numerator_;
  if (out.denominator_.IsNegative()) {
    out.numerator_ = -out.numerator_;
    out.denominator_ = -out.denominator_;
  }
  return out;
}

Rational Rational::Abs() const {
  Rational out = *this;
  out.numerator_ = out.numerator_.Abs();
  return out;
}

Rational Rational::Pow(int64_t exponent) const {
  if (exponent == 0) return One();
  if (exponent < 0) return Inverse().Pow(-exponent);
  Rational out;
  out.numerator_ = numerator_.Pow(static_cast<uint64_t>(exponent));
  out.denominator_ = denominator_.Pow(static_cast<uint64_t>(exponent));
  return out;  // powers of a reduced fraction stay reduced
}

bool Rational::operator==(const Rational& other) const {
  return numerator_ == other.numerator_ && denominator_ == other.denominator_;
}

bool Rational::operator<(const Rational& other) const {
  return numerator_ * other.denominator_ < other.numerator_ * denominator_;
}

std::string Rational::ToString() const {
  if (denominator_.IsOne()) return numerator_.ToString();
  return numerator_.ToString() + "/" + denominator_.ToString();
}

double Rational::ToDouble() const {
  // Scale to keep precision when both parts are huge.
  const uint64_t nbits = numerator_.BitLength();
  const uint64_t dbits = denominator_.BitLength();
  if (nbits > 900 || dbits > 900) {
    const uint64_t shift =
        (nbits > dbits ? nbits : dbits) > 900
            ? (nbits > dbits ? nbits : dbits) - 512
            : 0;
    return numerator_.ShiftRight(shift).ToDouble() /
           denominator_.ShiftRight(shift).ToDouble();
  }
  return numerator_.ToDouble() / denominator_.ToDouble();
}

}  // namespace gmc
