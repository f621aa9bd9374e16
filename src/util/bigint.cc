#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <cctype>

#include "util/check.h"

namespace gmc {

namespace {

using internal::LimbVec;

constexpr uint64_t kBase = uint64_t{1} << 32;
constexpr size_t kKaratsubaThreshold = 32;  // limbs

// The word-parallel loops below read limb pairs as one 64-bit word; that is
// only a straight memcpy on little-endian targets (every platform this
// library builds for), so big-endian falls back to the scalar loops.
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

uint64_t LoadPair(const uint32_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StorePair(uint32_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

// Shifts a magnitude left by `s` bits, 0 <= s < 32, appending a limb if
// needed.
LimbVec ShiftLeftSmall(const LimbVec& a, int s) {
  if (s == 0) return a;
  LimbVec out;
  out.resize(a.size() + 1);
  uint32_t carry = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    out[i] = (a[i] << s) | carry;
    carry = static_cast<uint32_t>(static_cast<uint64_t>(a[i]) >> (32 - s));
  }
  out[a.size()] = carry;
  out.TrimZeros();
  return out;
}

LimbVec ShiftRightSmall(const LimbVec& a, int s) {
  if (s == 0) {
    LimbVec out = a;
    out.TrimZeros();
    return out;
  }
  LimbVec out;
  out.resize(a.size());
  uint32_t carry = 0;
  for (size_t i = a.size(); i-- > 0;) {
    out[i] = (a[i] >> s) | carry;
    carry = a[i] << (32 - s);
  }
  out.TrimZeros();
  return out;
}

// a += b on magnitudes, in place; `b` must not alias `a`'s buffer (the
// callers special-case self-aliasing before getting here). The inner loop
// consumes two limbs per iteration through 64-bit accumulators.
void AddMagnitudeInPlace(LimbVec* a, const LimbVec& b) {
  if (b.size() > a->size()) a->resize(b.size());
  uint32_t* ad = a->data();
  const uint32_t* bd = b.data();
  const size_t bn = b.size();
  uint64_t carry = 0;
  size_t i = 0;
  if (kLittleEndian) {
    for (; i + 2 <= bn; i += 2) {
      const uint64_t av = LoadPair(ad + i);
      const uint64_t bv = LoadPair(bd + i);
      const uint64_t with_carry = av + carry;  // carry ∈ {0, 1}
      const uint64_t sum = with_carry + bv;
      carry = (with_carry < av ? 1 : 0) | (sum < bv ? 1 : 0);
      StorePair(ad + i, sum);
    }
  }
  for (; i < bn; ++i) {
    const uint64_t sum = carry + ad[i] + bd[i];
    ad[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  const size_t an = a->size();
  for (; carry && i < an; ++i) {
    const uint64_t sum = carry + ad[i];
    ad[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

// a -= b on magnitudes, in place; requires |a| >= |b| and no aliasing.
void SubMagnitudeInPlace(LimbVec* a, const LimbVec& b) {
  uint32_t* ad = a->data();
  const uint32_t* bd = b.data();
  const size_t bn = b.size();
  uint64_t borrow = 0;
  size_t i = 0;
  if (kLittleEndian) {
    for (; i + 2 <= bn; i += 2) {
      const uint64_t av = LoadPair(ad + i);
      const uint64_t bv = LoadPair(bd + i);
      const uint64_t without_borrow = av - bv;  // borrow ∈ {0, 1}
      const uint64_t diff = without_borrow - borrow;
      borrow = (av < bv ? 1 : 0) | (without_borrow < borrow ? 1 : 0);
      StorePair(ad + i, diff);
    }
  }
  for (; i < bn; ++i) {
    const uint64_t bi = static_cast<uint64_t>(bd[i]) + borrow;
    const uint64_t ai = ad[i];
    ad[i] = static_cast<uint32_t>(ai - bi);
    borrow = ai < bi ? 1 : 0;
  }
  const size_t an = a->size();
  for (; borrow && i < an; ++i) {
    if (ad[i] != 0) {
      --ad[i];
      borrow = 0;
    } else {
      ad[i] = 0xffffffffu;
    }
  }
  GMC_DCHECK(borrow == 0);
  a->TrimZeros();
}

// a = b - a on magnitudes, in place; requires |b| >= |a| and no aliasing.
void SubReverseInPlace(LimbVec* a, const LimbVec& b) {
  const size_t bn = b.size();
  a->resize(bn);  // zero-fills the high limbs a lacks
  uint32_t* ad = a->data();
  const uint32_t* bd = b.data();
  uint64_t borrow = 0;
  size_t i = 0;
  if (kLittleEndian) {
    for (; i + 2 <= bn; i += 2) {
      const uint64_t bv = LoadPair(bd + i);
      const uint64_t av = LoadPair(ad + i);
      const uint64_t without_borrow = bv - av;
      const uint64_t diff = without_borrow - borrow;
      borrow = (bv < av ? 1 : 0) | (without_borrow < borrow ? 1 : 0);
      StorePair(ad + i, diff);
    }
  }
  for (; i < bn; ++i) {
    const uint64_t ai = static_cast<uint64_t>(ad[i]) + borrow;
    const uint64_t bi = bd[i];
    ad[i] = static_cast<uint32_t>(bi - ai);
    borrow = bi < ai ? 1 : 0;
  }
  GMC_DCHECK(borrow == 0);
  a->TrimZeros();
}

// Out-of-place magnitude add (Karatsuba internals).
LimbVec AddMagnitude(const LimbVec& a, const LimbVec& b) {
  LimbVec out = a.size() >= b.size() ? a : b;
  AddMagnitudeInPlace(&out, a.size() >= b.size() ? b : a);
  return out;
}

// a *= m on magnitudes, in place (single-limb multiplier, the sweep-mantissa
// common case); m != 0.
void MulSmallInPlace(LimbVec* a, uint32_t m) {
  uint32_t* ad = a->data();
  const size_t an = a->size();
  uint64_t carry = 0;
  for (size_t i = 0; i < an; ++i) {
    const uint64_t cur = static_cast<uint64_t>(ad[i]) * m + carry;
    ad[i] = static_cast<uint32_t>(cur);
    carry = cur >> 32;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

uint64_t TrailingZeroBitsOf(const LimbVec& limbs) {
  uint64_t count = 0;
  for (size_t i = 0; i < limbs.size(); ++i) {
    if (limbs[i] == 0) {
      count += 32;
    } else {
      count += static_cast<uint64_t>(std::countr_zero(limbs[i]));
      break;
    }
  }
  return count;
}

}  // namespace

BigInt::BigInt(int64_t value) {
  if (value == 0) return;
  sign_ = value > 0 ? 1 : -1;
  // Careful with INT64_MIN: negate in unsigned space.
  uint64_t magnitude =
      value > 0 ? static_cast<uint64_t>(value)
                : ~static_cast<uint64_t>(value) + 1;  // two's complement abs
  limbs_.push_back(static_cast<uint32_t>(magnitude & 0xffffffffu));
  if (magnitude >> 32) limbs_.push_back(static_cast<uint32_t>(magnitude >> 32));
}

void BigInt::Normalize() {
  limbs_.TrimZeros();
  if (limbs_.empty()) sign_ = 0;
}

int BigInt::CompareMagnitude(const LimbVec& a, const LimbVec& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::LimbVec BigInt::MulSchoolbook(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  LimbVec out;
  out.resize(a.size() + b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a[i];
    uint32_t* row = out.data() + i;
    const uint32_t* bd = b.data();
    const size_t bn = b.size();
    for (size_t j = 0; j < bn; ++j) {
      const uint64_t cur = row[j] + ai * bd[j] + carry;
      row[j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = bn;
    while (carry) {
      const uint64_t cur = row[k] + carry;
      row[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  out.TrimZeros();
  return out;
}

BigInt::LimbVec BigInt::MulKaratsuba(const LimbVec& a, const LimbVec& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold) {
    return MulSchoolbook(a, b);
  }
  const size_t half = std::max(a.size(), b.size()) / 2;
  auto lower = [half](const LimbVec& x) {
    LimbVec out;
    const size_t n = std::min(half, x.size());
    out.resize(n);
    std::memcpy(out.data(), x.data(), n * sizeof(uint32_t));
    out.TrimZeros();
    return out;
  };
  auto upper = [half](const LimbVec& x) {
    LimbVec out;
    if (x.size() <= half) return out;
    const size_t n = x.size() - half;
    out.resize(n);
    std::memcpy(out.data(), x.data() + half, n * sizeof(uint32_t));
    out.TrimZeros();
    return out;
  };
  LimbVec a0 = lower(a), a1 = upper(a);
  LimbVec b0 = lower(b), b1 = upper(b);
  LimbVec z0 = MulKaratsuba(a0, b0);
  LimbVec z2 = MulKaratsuba(a1, b1);
  LimbVec sum_a = AddMagnitude(a0, a1);
  LimbVec sum_b = AddMagnitude(b0, b1);
  LimbVec z1 = MulKaratsuba(sum_a, sum_b);
  SubMagnitudeInPlace(&z1, AddMagnitude(z0, z2));
  // result = z2 << (2*half limbs) + z1 << (half limbs) + z0. The product of
  // an m-limb and an n-limb magnitude has at most m + n limbs, so this buffer
  // bounds all carry propagation.
  LimbVec out;
  out.resize(a.size() + b.size());
  auto accumulate = [&out](const LimbVec& x, size_t offset) {
    uint64_t carry = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      const uint64_t cur =
          static_cast<uint64_t>(out[offset + i]) + x[i] + carry;
      out[offset + i] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = offset + x.size();
    while (carry) {
      GMC_DCHECK(k < out.size());
      const uint64_t cur = static_cast<uint64_t>(out[k]) + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  out.TrimZeros();
  return out;
}

BigInt::LimbVec BigInt::MulMagnitude(const LimbVec& a, const LimbVec& b) {
  if (a.size() >= kKaratsubaThreshold && b.size() >= kKaratsubaThreshold) {
    return MulKaratsuba(a, b);
  }
  return MulSchoolbook(a, b);
}

// Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
void BigInt::DivModMagnitude(const LimbVec& u_in, const LimbVec& v_in,
                             LimbVec* quotient, LimbVec* remainder) {
  GMC_CHECK_MSG(!v_in.empty(), "division by zero");
  if (CompareMagnitude(u_in, v_in) < 0) {
    quotient->clear();
    *remainder = u_in;
    remainder->TrimZeros();
    return;
  }
  if (v_in.size() == 1) {
    // Single-limb fast path.
    const uint64_t d = v_in[0];
    LimbVec q;
    q.resize(u_in.size());
    uint64_t rem = 0;
    for (size_t i = u_in.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | u_in[i];
      q[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.TrimZeros();
    *quotient = std::move(q);
    remainder->clear();
    if (rem) remainder->push_back(static_cast<uint32_t>(rem));
    return;
  }
  // Normalize so that the top limb of v has its high bit set.
  int shift = 0;
  {
    uint32_t top = v_in.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  LimbVec u = ShiftLeftSmall(u_in, shift);
  LimbVec v = ShiftLeftSmall(v_in, shift);
  const size_t n = v.size();
  const size_t m = u.size() - n;  // u.size() >= n because |u| >= |v|
  u.resize(m + n + 1);
  LimbVec q;
  q.resize(m + 1);
  const uint64_t v1 = v[n - 1];
  const uint64_t v2 = v[n - 2];
  for (size_t j = m + 1; j-- > 0;) {
    const uint64_t numerator =
        (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / v1;
    uint64_t rhat = numerator % v1;
    while (qhat >= kBase ||
           qhat * v2 > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v1;
      if (rhat >= kBase) break;
    }
    // Multiply and subtract: u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(product & 0xffffffffu) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t diff = static_cast<int64_t>(u[j + n]) -
                   static_cast<int64_t>(carry) - borrow;
    if (diff < 0) {
      // qhat was one too large: add v back.
      diff += static_cast<int64_t>(kBase);
      u[j + n] = static_cast<uint32_t>(diff);
      --qhat;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<uint32_t>(sum & 0xffffffffu);
        carry2 = sum >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + carry2);
    } else {
      u[j + n] = static_cast<uint32_t>(diff);
    }
    q[j] = static_cast<uint32_t>(qhat);
  }
  q.TrimZeros();
  *quotient = std::move(q);
  u.resize(n);
  *remainder = ShiftRightSmall(u, shift);
  remainder->TrimZeros();
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  out.sign_ = -out.sign_;
  return out;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  if (out.sign_ < 0) out.sign_ = 1;
  return out;
}

bool BigInt::IsPowerOfTwo() const {
  if (sign_ == 0) return false;
  for (size_t i = 0; i + 1 < limbs_.size(); ++i) {
    if (limbs_[i] != 0) return false;
  }
  uint32_t top = limbs_.back();
  return (top & (top - 1)) == 0;
}

void BigInt::AddSigned(const BigInt& other, int other_sign) {
  const int osign = other.sign_ * other_sign;
  if (osign == 0) return;
  if (sign_ == 0) {
    limbs_ = other.limbs_;
    sign_ = osign;
    return;
  }
  if (this == &other) {
    // a += a doubles; a -= a zeroes. (AddMagnitudeInPlace may reallocate,
    // so the aliased buffer cannot be used as the second operand.)
    if (osign == sign_) {
      ShiftLeftInPlace(1);
    } else {
      limbs_.clear();
      sign_ = 0;
    }
    return;
  }
  if (sign_ == osign) {
    AddMagnitudeInPlace(&limbs_, other.limbs_);
    return;
  }
  const int cmp = CompareMagnitude(limbs_, other.limbs_);
  if (cmp == 0) {
    limbs_.clear();
    sign_ = 0;
  } else if (cmp > 0) {
    SubMagnitudeInPlace(&limbs_, other.limbs_);
  } else {
    SubReverseInPlace(&limbs_, other.limbs_);
    sign_ = osign;
  }
}

BigInt& BigInt::operator+=(const BigInt& other) {
  AddSigned(other, 1);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  AddSigned(other, -1);
  return *this;
}

BigInt& BigInt::operator*=(const BigInt& other) {
  if (sign_ == 0) return *this;
  if (other.sign_ == 0) {
    limbs_.clear();
    sign_ = 0;
    return *this;
  }
  if (other.limbs_.size() == 1) {
    MulSmallInPlace(&limbs_, other.limbs_[0]);  // safe even when aliased
    sign_ *= other.sign_;
    return *this;
  }
  sign_ *= other.sign_;
  limbs_ = MulMagnitude(limbs_, other.limbs_);
  return *this;
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (sign_ == 0) return other;
  BigInt out = *this;
  out.AddSigned(other, 1);
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
  BigInt out = *this;
  out.AddSigned(other, -1);
  return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt out = *this;
  out *= other;
  return out;
}

void BigInt::DivMod(const BigInt& numerator, const BigInt& denominator,
                    BigInt* quotient, BigInt* remainder) {
  GMC_CHECK_MSG(!denominator.IsZero(), "division by zero");
  BigInt q, r;
  DivModMagnitude(numerator.limbs_, denominator.limbs_, &q.limbs_, &r.limbs_);
  q.sign_ = q.limbs_.empty() ? 0 : numerator.sign_ * denominator.sign_;
  r.sign_ = r.limbs_.empty() ? 0 : numerator.sign_;
  if (quotient != nullptr) *quotient = std::move(q);
  if (remainder != nullptr) *remainder = std::move(r);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q;
  DivMod(*this, other, &q, nullptr);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt r;
  DivMod(*this, other, nullptr, &r);
  return r;
}

void BigInt::ShiftLeftInPlace(uint64_t bits) {
  if (IsZero() || bits == 0) return;
  const size_t limb_shift = static_cast<size_t>(bits / 32);
  const int small = static_cast<int>(bits % 32);
  const size_t old_size = limbs_.size();
  limbs_.resize(old_size + limb_shift + (small != 0 ? 1 : 0));
  uint32_t* d = limbs_.data();
  if (small != 0) {
    uint32_t carry = 0;
    // Walk high-to-low so each source limb is read before its slot range is
    // overwritten.
    d[old_size + limb_shift] = static_cast<uint32_t>(
        static_cast<uint64_t>(d[old_size - 1]) >> (32 - small));
    for (size_t i = old_size; i-- > 0;) {
      carry = i > 0 ? static_cast<uint32_t>(
                          static_cast<uint64_t>(d[i - 1]) >> (32 - small))
                    : 0;
      d[i + limb_shift] = (d[i] << small) | carry;
    }
  } else if (limb_shift != 0) {
    std::memmove(d + limb_shift, d, old_size * sizeof(uint32_t));
  }
  std::memset(d, 0, limb_shift * sizeof(uint32_t));
  Normalize();
}

void BigInt::ShiftRightInPlace(uint64_t bits) {
  if (IsZero() || bits == 0) return;
  const size_t limb_shift = static_cast<size_t>(bits / 32);
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    sign_ = 0;
    return;
  }
  const int small = static_cast<int>(bits % 32);
  uint32_t* d = limbs_.data();
  const size_t new_size = limbs_.size() - limb_shift;
  if (small != 0) {
    for (size_t i = 0; i < new_size; ++i) {
      const uint32_t low = d[i + limb_shift] >> small;
      const uint32_t high =
          i + limb_shift + 1 < limbs_.size()
              ? d[i + limb_shift + 1] << (32 - small)
              : 0;
      d[i] = low | high;
    }
  } else {
    std::memmove(d, d + limb_shift, new_size * sizeof(uint32_t));
  }
  limbs_.resize(new_size);
  Normalize();
}

BigInt BigInt::ShiftLeft(uint64_t bits) const {
  BigInt out = *this;
  out.ShiftLeftInPlace(bits);
  return out;
}

BigInt BigInt::ShiftRight(uint64_t bits) const {
  BigInt out = *this;
  out.ShiftRightInPlace(bits);
  return out;
}

uint64_t BigInt::TrailingZeroBits() const {
  return TrailingZeroBitsOf(limbs_);
}

BigInt BigInt::Gcd(const BigInt& a_in, const BigInt& b_in) {
  if (a_in.IsZero()) return b_in.Abs();
  if (b_in.IsZero()) return a_in.Abs();
  // The reduced-fraction arithmetic of Rational calls Gcd constantly with a
  // unit operand; Stein's subtract-and-shift loop degenerates to O(bits)
  // iterations there, so answer directly.
  if (a_in.limbs_.size() == 1 && a_in.limbs_[0] == 1) return BigInt(1);
  if (b_in.limbs_.size() == 1 && b_in.limbs_[0] == 1) return BigInt(1);
  // Both magnitudes fit in 64 bits (the common case by far): run the whole
  // binary gcd in registers.
  if (a_in.limbs_.size() <= 2 && b_in.limbs_.size() <= 2) {
    auto to_u64 = [](const BigInt& x) {
      uint64_t v = x.limbs_[0];
      if (x.limbs_.size() == 2) v |= static_cast<uint64_t>(x.limbs_[1]) << 32;
      return v;
    };
    uint64_t a = to_u64(a_in);
    uint64_t b = to_u64(b_in);
    const int za = std::countr_zero(a);
    const int zb = std::countr_zero(b);
    const int common = std::min(za, zb);
    a >>= za;
    do {
      b >>= std::countr_zero(b);
      if (a > b) std::swap(a, b);
      b -= a;
    } while (b != 0);
    BigInt out;
    out.sign_ = 1;
    out.limbs_.push_back(static_cast<uint32_t>(a & 0xffffffffu));
    if (a >> 32) out.limbs_.push_back(static_cast<uint32_t>(a >> 32));
    out.ShiftLeftInPlace(common);
    return out;
  }
  BigInt a = a_in.Abs();
  BigInt b = b_in.Abs();
  // Binary (Stein) GCD: strips common factors of two, then subtract-and-shift.
  const uint64_t za = TrailingZeroBitsOf(a.limbs_);
  const uint64_t zb = TrailingZeroBitsOf(b.limbs_);
  const uint64_t common_twos = std::min(za, zb);
  a.ShiftRightInPlace(za);
  b.ShiftRightInPlace(zb);
  while (true) {
    const int cmp = CompareMagnitude(a.limbs_, b.limbs_);
    if (cmp == 0) break;
    if (cmp < 0) std::swap(a, b);
    SubMagnitudeInPlace(&a.limbs_, b.limbs_);
    a.ShiftRightInPlace(TrailingZeroBitsOf(a.limbs_));
  }
  a.ShiftLeftInPlace(common_twos);
  return a;
}

BigInt BigInt::Pow(uint64_t exponent) const {
  BigInt result(1);
  BigInt base = *this;
  while (exponent > 0) {
    if (exponent & 1) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

uint64_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 32ull +
         (32 - static_cast<uint64_t>(std::countl_zero(limbs_.back())));
}

uint64_t BigInt::Bits64At(uint64_t offset) const {
  const uint64_t first = offset / 32;
  const unsigned shift = static_cast<unsigned>(offset % 32);
  auto limb = [this](uint64_t i) -> uint64_t {
    return i < limbs_.size() ? limbs_[i] : 0;
  };
  // Three 32-bit limbs cover any 64-bit window at an unaligned offset.
  uint64_t word = limb(first) | (limb(first + 1) << 32);
  if (shift != 0) {
    word = (word >> shift) | (limb(first + 2) << (64 - shift));
  }
  return word;
}

BigInt BigInt::ISqrt() const {
  GMC_CHECK_MSG(sign_ >= 0, "ISqrt of negative number");
  if (IsZero()) return BigInt(0);
  // Newton's method with a power-of-two seed above the true root.
  BigInt x = BigInt(1).ShiftLeft(BitLength() / 2 + 1);
  while (true) {
    BigInt next = (x + *this / x).ShiftRight(1);
    if (next >= x) break;
    x = next;
  }
  return x;
}

bool BigInt::IsPerfectSquare() const {
  if (sign_ < 0) return false;
  BigInt root = ISqrt();
  return root * root == *this;
}

bool BigInt::operator==(const BigInt& other) const {
  return sign_ == other.sign_ && limbs_ == other.limbs_;
}

bool BigInt::operator<(const BigInt& other) const {
  if (sign_ != other.sign_) return sign_ < other.sign_;
  int cmp = CompareMagnitude(limbs_, other.limbs_);
  return sign_ >= 0 ? cmp < 0 : cmp > 0;
}

BigInt BigInt::FromDecimal(const std::string& text) {
  GMC_CHECK_MSG(!text.empty(), "empty decimal string");
  size_t pos = 0;
  int sign = 1;
  if (text[0] == '-') {
    sign = -1;
    pos = 1;
  } else if (text[0] == '+') {
    pos = 1;
  }
  GMC_CHECK_MSG(pos < text.size(), "decimal string has no digits");
  BigInt out;
  size_t i = pos;
  while (i < text.size()) {
    size_t take = std::min<size_t>(9, text.size() - i);
    uint64_t chunk = 0;
    for (size_t k = 0; k < take; ++k) {
      GMC_CHECK_MSG(std::isdigit(static_cast<unsigned char>(text[i + k])),
                    "non-digit in decimal string");
      chunk = chunk * 10 + static_cast<uint64_t>(text[i + k] - '0');
    }
    out = out * BigInt(10).Pow(take) + BigInt(static_cast<int64_t>(chunk));
    i += take;
  }
  if (sign < 0) out = -out;
  return out;
}

std::string BigInt::ToString() const {
  if (IsZero()) return "0";
  LimbVec mag = limbs_;
  std::string digits;
  // Repeatedly divide by 1e9 and emit 9-digit groups.
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / 1000000000ull);
      rem = cur % 1000000000ull;
    }
    mag.TrimZeros();
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (sign_ < 0) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::ToDouble() const {
  double out = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return sign_ < 0 ? -out : out;
}

int64_t BigInt::ToInt64() const {
  GMC_CHECK_MSG(limbs_.size() <= 2, "BigInt out of int64 range");
  uint64_t magnitude = 0;
  if (limbs_.size() >= 1) magnitude = limbs_[0];
  if (limbs_.size() == 2) magnitude |= static_cast<uint64_t>(limbs_[1]) << 32;
  if (sign_ >= 0) {
    GMC_CHECK_MSG(magnitude <= static_cast<uint64_t>(INT64_MAX),
                  "BigInt out of int64 range");
    return static_cast<int64_t>(magnitude);
  }
  GMC_CHECK_MSG(magnitude <= static_cast<uint64_t>(INT64_MAX) + 1,
                "BigInt out of int64 range");
  return -static_cast<int64_t>(magnitude - 1) - 1;
}

}  // namespace gmc
