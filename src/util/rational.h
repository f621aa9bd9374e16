// Exact rational numbers over BigInt.
//
// Every probability in this library is a Rational: tuple probabilities,
// lineage probabilities, polynomial coefficients, and the entries of the
// "big matrix" solved by the hardness reductions. Values are kept in lowest
// terms with a positive denominator, so equality is structural.

#ifndef GMC_UTIL_RATIONAL_H_
#define GMC_UTIL_RATIONAL_H_

#include <cstdint>
#include <string>

#include "util/bigint.h"

namespace gmc {

class Rational {
 public:
  // Zero.
  Rational() : numerator_(0), denominator_(1) {}
  // NOLINTNEXTLINE(google-explicit-constructor): integers embed exactly.
  Rational(int64_t value) : numerator_(value), denominator_(1) {}
  Rational(int64_t numerator, int64_t denominator);
  Rational(BigInt numerator, BigInt denominator);

  static Rational FromBigInt(BigInt value);
  // Builds a rational from parts that are ALREADY in lowest terms with a
  // positive denominator — the caller's invariant (debug-checked only).
  // Exists so the dyadic exact path can convert mantissa·2^-exp results
  // without re-running gcd: stripping the common factors of two is enough.
  static Rational FromReducedParts(BigInt numerator, BigInt denominator);
  // p / 2^k — the dyadic values produced by {0, 1/2, 1}-probability TIDs.
  static Rational Dyadic(BigInt numerator, uint64_t log2_denominator);
  // Parses "a/b" or "a". Aborts on malformed input.
  static Rational FromString(const std::string& text);

  static Rational Zero() { return Rational(0); }
  static Rational One() { return Rational(1); }
  static Rational Half() { return Rational(1, 2); }

  const BigInt& numerator() const { return numerator_; }
  const BigInt& denominator() const { return denominator_; }

  bool IsZero() const { return numerator_.IsZero(); }
  bool IsOne() const { return numerator_.IsOne() && denominator_.IsOne(); }
  bool IsInteger() const { return denominator_.IsOne(); }
  int sign() const { return numerator_.sign(); }
  // Whether the value lies in [0, 1]: the library's one definition of a
  // valid probability. Exact without a multiplication, since the
  // denominator is positive: num/den <= 1 iff num <= den.
  bool IsProbability() const {
    return numerator_.sign() >= 0 && numerator_ <= denominator_;
  }

  Rational operator-() const;
  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  // Aborts on division by zero.
  Rational operator/(const Rational& other) const;

  // In-place forms: mutate the existing numerator/denominator buffers (no
  // temporary Rational) and skip the gcd entirely when one side is integral
  // — adding an integer to a reduced fraction, or scaling by an integer
  // coprime to the denominator, cannot introduce a common factor.
  Rational& operator+=(const Rational& other);
  Rational& operator-=(const Rational& other);
  Rational& operator*=(const Rational& other);
  Rational& operator/=(const Rational& other);

  // *this raised to an integer power; negative exponents require *this != 0.
  Rational Pow(int64_t exponent) const;

  Rational Inverse() const;
  Rational Abs() const;

  bool operator==(const Rational& other) const;
  bool operator!=(const Rational& other) const { return !(*this == other); }
  bool operator<(const Rational& other) const;
  bool operator<=(const Rational& other) const { return !(other < *this); }
  bool operator>(const Rational& other) const { return other < *this; }
  bool operator>=(const Rational& other) const { return !(*this < other); }

  // "a/b", or "a" when the denominator is 1.
  std::string ToString() const;
  double ToDouble() const;

 private:
  void Reduce();
  // Shared body of += / -=: *this ± other, in place.
  void AddImpl(const Rational& other, bool subtract);

  BigInt numerator_;
  BigInt denominator_;  // invariant: > 0, gcd(|num|, den) == 1
};

}  // namespace gmc

#endif  // GMC_UTIL_RATIONAL_H_
