// Arbitrary-precision signed integers.
//
// The hardness reductions in this library recover integer model counts by
// exact Gaussian elimination over rationals whose numerators/denominators
// grow to thousands of bits, so an exact big-integer type is the foundation
// of everything else. Representation is sign-magnitude with little-endian
// 32-bit limbs. Multiplication switches to Karatsuba above a threshold;
// division is Knuth's Algorithm D; gcd is binary (Stein), which avoids
// divisions entirely.
//
// Two properties matter for the evaluate-many hot loops (EvaluateBatch /
// EvaluateBatchDyadic, which stream millions of small additions and
// multiplications per sweep):
//   * small-value optimization — magnitudes of up to two limbs (all 64-bit
//     values, the common case for sweep mantissas) are stored inline in the
//     BigInt itself and never touch the heap;
//   * true in-place compound operators — += / -= / *= mutate the existing
//     limb buffer instead of building a temporary and copy-assigning it.

#ifndef GMC_UTIL_BIGINT_H_
#define GMC_UTIL_BIGINT_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace gmc {
namespace internal {

// Small-vector of 32-bit limbs. Magnitudes of up to kInlineLimbs limbs live
// inside the object (no heap allocation); larger ones spill to a
// geometrically grown heap buffer, like std::vector. Only the operations
// the BigInt kernels need are provided; new limbs introduced by resize()
// are zero-filled (limb buffers are always dense).
class LimbVec {
 public:
  static constexpr uint32_t kInlineLimbs = 2;

  LimbVec() = default;
  LimbVec(const LimbVec& other) { *this = other; }
  LimbVec& operator=(const LimbVec& other) {
    if (this == &other) return *this;
    if (other.size_ > capacity_) Grow(other.size_, /*preserve=*/false);
    std::memcpy(data_, other.data_, other.size_ * sizeof(uint32_t));
    size_ = other.size_;
    return *this;
  }
  LimbVec(LimbVec&& other) noexcept { MoveFrom(&other); }
  LimbVec& operator=(LimbVec&& other) noexcept {
    if (this == &other) return *this;
    if (data_ != inline_) delete[] data_;
    MoveFrom(&other);
    return *this;
  }
  ~LimbVec() {
    if (data_ != inline_) delete[] data_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t* data() { return data_; }
  const uint32_t* data() const { return data_; }
  uint32_t& operator[](size_t i) { return data_[i]; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  uint32_t back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }
  void pop_back() { --size_; }
  void push_back(uint32_t value) {
    if (size_ == capacity_) Grow(size_ + 1, /*preserve=*/true);
    data_[size_++] = value;
  }
  // Grows with zero-fill or shrinks; never reallocates on shrink.
  void resize(size_t n) {
    if (n > size_) {
      if (n > capacity_) Grow(n, /*preserve=*/true);
      std::memset(data_ + size_, 0, (n - size_) * sizeof(uint32_t));
    }
    size_ = static_cast<uint32_t>(n);
  }
  void TrimZeros() {
    while (size_ > 0 && data_[size_ - 1] == 0) --size_;
  }

  bool operator==(const LimbVec& other) const {
    return size_ == other.size_ &&
           std::memcmp(data_, other.data_, size_ * sizeof(uint32_t)) == 0;
  }

 private:
  void MoveFrom(LimbVec* other) {
    if (other->data_ == other->inline_) {
      data_ = inline_;
      capacity_ = kInlineLimbs;
      std::memcpy(inline_, other->inline_, sizeof(inline_));
    } else {
      data_ = other->data_;
      capacity_ = other->capacity_;
      other->data_ = other->inline_;
      other->capacity_ = kInlineLimbs;
    }
    size_ = other->size_;
    other->size_ = 0;
  }
  void Grow(size_t need, bool preserve) {
    size_t cap = capacity_;
    while (cap < need) cap *= 2;
    uint32_t* heap = new uint32_t[cap];
    if (preserve) std::memcpy(heap, data_, size_ * sizeof(uint32_t));
    if (data_ != inline_) delete[] data_;
    data_ = heap;
    capacity_ = static_cast<uint32_t>(cap);
  }

  uint32_t* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineLimbs;
  uint32_t inline_[kInlineLimbs] = {};
};

}  // namespace internal

class BigInt {
 public:
  // Zero.
  BigInt() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): ints are the same value set.
  BigInt(int64_t value);

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(BigInt&&) = default;

  // Parses a decimal string with optional leading '-'. Aborts on malformed
  // input; use FromString for fallible parsing.
  static BigInt FromDecimal(const std::string& text);

  // -1, 0, +1.
  int sign() const { return sign_; }
  bool IsZero() const { return sign_ == 0; }
  bool IsOne() const { return sign_ == 1 && limbs_.size() == 1 && limbs_[0] == 1; }
  bool IsNegative() const { return sign_ < 0; }
  // True iff |*this| is a power of two (and *this != 0).
  bool IsPowerOfTwo() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  // Truncated division (C++ semantics): quotient rounds toward zero and the
  // remainder has the sign of the dividend. Aborts on division by zero.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;

  // In-place forms; += / -= / *= mutate the limb buffer directly (no
  // temporary BigInt) and are safe under self-aliasing (a += a, a *= a).
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);
  BigInt& operator*=(const BigInt& other);
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }
  BigInt& operator%=(const BigInt& other) { return *this = *this % other; }

  // Computes quotient and remainder in one pass.
  static void DivMod(const BigInt& numerator, const BigInt& denominator,
                     BigInt* quotient, BigInt* remainder);

  // Left/right shift by an arbitrary bit count (logical, on the magnitude).
  BigInt ShiftLeft(uint64_t bits) const;
  BigInt ShiftRight(uint64_t bits) const;
  // In-place shifts (the dyadic exponent-alignment hot path).
  void ShiftLeftInPlace(uint64_t bits);
  void ShiftRightInPlace(uint64_t bits);

  // Greatest common divisor of magnitudes; Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  // *this raised to a non-negative power (Pow(0) == 1, including 0^0).
  BigInt Pow(uint64_t exponent) const;

  // Number of bits in the magnitude (BitLength(0) == 0).
  uint64_t BitLength() const;
  // Number of trailing zero bits in the magnitude (0 for zero).
  uint64_t TrailingZeroBits() const;
  // The 64 magnitude bits starting at bit `offset` (little-endian),
  // zero-padded past the top — the fixed-width dyadic kernels' word
  // extraction, O(1) with no allocation.
  uint64_t Bits64At(uint64_t offset) const;

  // Floor square root of the magnitude (requires *this >= 0).
  BigInt ISqrt() const;
  // True iff *this is a perfect square (0 and 1 included).
  bool IsPerfectSquare() const;

  bool operator==(const BigInt& other) const;
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const;
  bool operator<=(const BigInt& other) const { return !(other < *this); }
  bool operator>(const BigInt& other) const { return other < *this; }
  bool operator>=(const BigInt& other) const { return !(*this < other); }

  // Decimal representation (with '-' for negatives).
  std::string ToString() const;

  // Best-effort conversion to double (may overflow to +/-inf).
  double ToDouble() const;

  // Exact conversion to int64_t; aborts if out of range.
  int64_t ToInt64() const;

 private:
  using LimbVec = internal::LimbVec;

  // Invariant: limbs_ has no trailing zero limbs; sign_ == 0 iff limbs_ empty.
  int sign_ = 0;
  LimbVec limbs_;

  void Normalize();
  // *this ± other with `other`'s sign multiplied by `other_sign` (+1 / −1);
  // shared body of += and -=.
  void AddSigned(const BigInt& other, int other_sign);
  static int CompareMagnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec MulMagnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec MulSchoolbook(const LimbVec& a, const LimbVec& b);
  static LimbVec MulKaratsuba(const LimbVec& a, const LimbVec& b);
  static void DivModMagnitude(const LimbVec& u, const LimbVec& v,
                              LimbVec* quotient, LimbVec* remainder);
};

}  // namespace gmc

#endif  // GMC_UTIL_BIGINT_H_
