// The two-limb mantissa word of the exact dyadic batch kernel
// (compile/nnf_fixed.cc), which runs a batch on uint64, UInt128 or BigInt
// mantissas as one exponent fold over the circuit decides. The word widths
// need every weight in [0, 1]: then every circuit value is a probability,
// and a value held as m · 2^-E has 0 <= m <= 2^E, so the fold's largest
// node exponent bounds every mantissa before the pass starts. UInt128's
// arithmetic therefore wraps: the fold, not the word, guarantees that no
// product or sum overflows.

#ifndef GMC_UTIL_DYADIC_FIXED_H_
#define GMC_UTIL_DYADIC_FIXED_H_

#include <bit>
#include <cstdint>

#include "util/bigint.h"
#include "util/check.h"

namespace gmc {

// x * y as a full 128-bit product, split into (low, high) 64-bit halves.
inline void Mul64To128(uint64_t x, uint64_t y, uint64_t* lo, uint64_t* hi) {
#ifdef __SIZEOF_INT128__
  const unsigned __int128 p =
      static_cast<unsigned __int128>(x) * static_cast<unsigned __int128>(y);
  *lo = static_cast<uint64_t>(p);
  *hi = static_cast<uint64_t>(p >> 64);
#else
  const uint64_t x0 = x & 0xffffffffu, x1 = x >> 32;
  const uint64_t y0 = y & 0xffffffffu, y1 = y >> 32;
  const uint64_t p00 = x0 * y0;
  const uint64_t p01 = x0 * y1;
  const uint64_t p10 = x1 * y0;
  const uint64_t p11 = x1 * y1;
  const uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
  *lo = (p00 & 0xffffffffu) | (mid << 32);
  *hi = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
#endif
}

// Unsigned 128-bit integer as an explicit pair of uint64 limbs — the
// mantissa word of the 128-bit batch kernel. Only the operations that
// kernel streams are provided; Mul wraps modulo 2^128 (the kernel's
// exponent analysis guarantees products fit).
struct UInt128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  constexpr UInt128() = default;
  constexpr UInt128(uint64_t low) : lo(low) {}  // NOLINT: same value set
  constexpr UInt128(uint64_t low, uint64_t high) : lo(low), hi(high) {}

  bool IsZero() const { return (lo | hi) == 0; }

  friend UInt128 operator+(UInt128 a, UInt128 b) {
    UInt128 out;
    out.lo = a.lo + b.lo;
    out.hi = a.hi + b.hi + (out.lo < a.lo ? 1 : 0);
    return out;
  }
  friend UInt128 operator-(UInt128 a, UInt128 b) {
    UInt128 out;
    out.lo = a.lo - b.lo;
    out.hi = a.hi - b.hi - (a.lo < b.lo ? 1 : 0);
    return out;
  }
  UInt128& operator+=(UInt128 other) { return *this = *this + other; }
  UInt128& operator*=(UInt128 other) { return *this = Mul(*this, other); }
  friend bool operator==(UInt128 a, UInt128 b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator<(UInt128 a, UInt128 b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  // a * b modulo 2^128. Both operands having a non-zero high limb means
  // the product cannot fit (>= 2^128); the kernel's exponent bound rules
  // that out, so the a.hi * b.hi word is structurally zero.
  static UInt128 Mul(UInt128 a, UInt128 b) {
    GMC_DCHECK(a.hi == 0 || b.hi == 0);
    UInt128 out;
    uint64_t carry;
    Mul64To128(a.lo, b.lo, &out.lo, &carry);
    out.hi = carry + a.lo * b.hi + a.hi * b.lo;
    return out;
  }

  // *this << shift for shift in [0, 128); bits shifted past 2^128 are
  // dropped (the kernel's exponent analysis rules that out).
  UInt128 Shl(unsigned shift) const {
    if (shift == 0) return *this;
    UInt128 out;
    if (shift >= 64) {
      out.hi = lo << (shift - 64);
    } else {
      out.hi = (hi << shift) | (lo >> (64 - shift));
      out.lo = lo << shift;
    }
    return out;
  }
  UInt128 Shr(unsigned shift) const {
    if (shift == 0) return *this;
    UInt128 out;
    if (shift >= 64) {
      out.lo = hi >> (shift - 64);
    } else {
      out.lo = (lo >> shift) | (hi << (64 - shift));
      out.hi = hi >> shift;
    }
    return out;
  }

  // Number of bits (0 for zero) / trailing zero bits (0 for zero).
  unsigned BitLength() const {
    if (hi != 0) return 128 - std::countl_zero(hi);
    return lo == 0 ? 0 : 64 - std::countl_zero(lo);
  }
  unsigned CountTrailingZeros() const {
    if (lo != 0) return std::countr_zero(lo);
    if (hi != 0) return 64 + std::countr_zero(hi);
    return 0;
  }

  static UInt128 FromBigInt(const BigInt& value) {
    GMC_DCHECK(value.sign() >= 0 && value.BitLength() <= 128);
    return UInt128(value.Bits64At(0), value.Bits64At(64));
  }
  BigInt ToBigInt() const {
    // Assembled high-to-low in 32-bit chunks; each embeds exactly in the
    // int64 constructor.
    BigInt out(static_cast<int64_t>(hi >> 32));
    out.ShiftLeftInPlace(32);
    out += BigInt(static_cast<int64_t>(hi & 0xffffffffu));
    out.ShiftLeftInPlace(32);
    out += BigInt(static_cast<int64_t>(lo >> 32));
    out.ShiftLeftInPlace(32);
    out += BigInt(static_cast<int64_t>(lo & 0xffffffffu));
    return out;
  }
};

}  // namespace gmc

#endif  // GMC_UTIL_DYADIC_FIXED_H_
