/**
 * @file
 * Scalar modular arithmetic for word-sized RNS limbs.
 *
 * The paper (Section IV-A) builds all FHE compute out of modular adders,
 * subtractors and multipliers, using Barrett reduction fused with the
 * integer multiply. This header provides the software equivalents:
 *
 *  - addMod/subMod via the conditional-subtract idiom (the paper's
 *    "conditional operator" reduction for add/sub),
 *  - BarrettReducer: 128-bit Barrett reduction with a precomputed
 *    floor(2^128 / q) ratio (the paper's fused multiply+Barrett unit),
 *  - Shoup multiplication for multiplications by precomputed constants
 *    (NTT twiddle factors),
 *  - powMod/invMod helpers.
 *
 * All moduli are required to be < 2^62 so that lazy sums never overflow.
 */

#ifndef HEAP_MATH_MODARITH_H
#define HEAP_MATH_MODARITH_H

#include <cstdint>

#include "common/check.h"

namespace heap::math {

using uint128 = unsigned __int128;

/** Maximum supported modulus bit width. */
inline constexpr int kMaxModulusBits = 62;

/** Returns (a + b) mod q. @pre a, b < q < 2^63. */
inline uint64_t
addMod(uint64_t a, uint64_t b, uint64_t q)
{
    const uint64_t s = a + b;
    return s >= q ? s - q : s;
}

/** Returns (a - b) mod q. @pre a, b < q. */
inline uint64_t
subMod(uint64_t a, uint64_t b, uint64_t q)
{
    return a >= b ? a - b : a + q - b;
}

/** Returns (-a) mod q. @pre a < q. */
inline uint64_t
negMod(uint64_t a, uint64_t q)
{
    return a == 0 ? 0 : q - a;
}

/** Returns the high 64 bits of a 64x64 multiply. */
inline uint64_t
mulHi64(uint64_t a, uint64_t b)
{
    return static_cast<uint64_t>((static_cast<uint128>(a) * b) >> 64);
}

/** Returns (a * b) mod q via 128-bit division (reference path). */
inline uint64_t
mulModNaive(uint64_t a, uint64_t b, uint64_t q)
{
    return static_cast<uint64_t>(static_cast<uint128>(a) * b % q);
}

/**
 * Barrett reducer for a fixed modulus q < 2^62.
 *
 * Precomputes ratio = floor(2^128 / q) as two 64-bit words; reduce()
 * then brings any 128-bit value into [0, q) with two multiplies and at
 * most one correction, mirroring the paper's DSP-friendly fused
 * multiplier + Barrett pipeline.
 */
class BarrettReducer {
  public:
    BarrettReducer() = default;

    /** Builds the reducer. @pre 2 <= q < 2^62. */
    explicit BarrettReducer(uint64_t q)
        : q_(q)
    {
        HEAP_CHECK(q >= 2 && (q >> kMaxModulusBits) == 0,
                   "modulus out of range: " << q);
        // floor(2^128 / q) = d1 * 2^64 + floor(r1 * 2^64 / q), where
        // 2^64 = d1 * q + r1.
        const uint128 b = static_cast<uint128>(1) << 64;
        const uint64_t d1 = static_cast<uint64_t>(b / q);
        const uint64_t r1 = static_cast<uint64_t>(b % q);
        ratioHi_ = d1;
        ratioLo_ = static_cast<uint64_t>((static_cast<uint128>(r1) << 64)
                                         / q);
    }

    /** The modulus. */
    uint64_t modulus() const { return q_; }

    /** Reduces a full 128-bit value into [0, q). */
    uint64_t
    reduce(uint128 x) const
    {
        const uint64_t xLo = static_cast<uint64_t>(x);
        const uint64_t xHi = static_cast<uint64_t>(x >> 64);
        // Estimate floor(x * ratio / 2^128).
        const uint64_t t1 = mulHi64(xLo, ratioLo_);
        const uint128 t2 = static_cast<uint128>(xLo) * ratioHi_;
        const uint128 t3 = static_cast<uint128>(xHi) * ratioLo_;
        const uint128 mid = t2 + t3 + t1;
        const uint64_t est = xHi * ratioHi_
                             + static_cast<uint64_t>(mid >> 64);
        uint64_t r = xLo - est * q_;
        // Barrett estimate may be off by at most 2 multiples of q.
        if (r >= q_) {
            r -= q_;
        }
        if (r >= q_) {
            r -= q_;
        }
        return r;
    }

    /** Returns (a * b) mod q. @pre a, b < 2^64 with a*b < q*2^64. */
    uint64_t
    mulMod(uint64_t a, uint64_t b) const
    {
        return reduce(static_cast<uint128>(a) * b);
    }

  private:
    uint64_t q_ = 0;
    uint64_t ratioHi_ = 0;
    uint64_t ratioLo_ = 0;
};

/** Precomputes the Shoup companion word floor(w * 2^64 / q). @pre w < q. */
inline uint64_t
shoupPrecompute(uint64_t w, uint64_t q)
{
    return static_cast<uint64_t>((static_cast<uint128>(w) << 64) / q);
}

/**
 * Modulus bound for the 52-bit (AVX-512 IFMA) Shoup path: Harvey's
 * lazy bound with beta = 2^52 needs q < beta/4, and every lazy NTT
 * intermediate (< 4q) must fit the 52-bit multiplier operands.
 */
inline constexpr int kIfmaMaxModulusBits = 50;

/**
 * Modulus bound and term budget of the IFMA gadget MAC
 * (kernels_avx512ifma.cc). Each lazy sum keeps lo += low52(x * k) and
 * hi += high52(x * k) in two 64-bit lanes, exact while both factors
 * fit the 52-bit multiplier operands. A term adds < 2^52 to lo, so on
 * top of a reduced seed (< q <= 2^52) lo takes 4095 terms before it
 * could wrap; the value then stays below q * 2^64, the Barrett domain.
 * The scalar budget floor((2^64 - 1) / q) would wrap lo near q = 2^52.
 */
inline constexpr int kIfmaMacModulusBits = 52;
inline constexpr uint64_t kIfmaMacBudget = 4095;

/**
 * Precomputes the 52-bit Shoup companion floor(w * 2^52 / q) used by
 * the IFMA kernels (52x52-bit fused multipliers). @pre w < q < 2^50.
 */
inline uint64_t
shoupPrecompute52(uint64_t w, uint64_t q)
{
    return static_cast<uint64_t>((static_cast<uint128>(w) << 52) / q);
}

/**
 * Multiplies a by the fixed constant w using its Shoup companion.
 * @pre w < q, wShoup = shoupPrecompute(w, q), a < 2q (lazy inputs OK).
 * @return a * w mod q, in [0, q).
 */
inline uint64_t
mulModShoup(uint64_t a, uint64_t w, uint64_t wShoup, uint64_t q)
{
    const uint64_t hi = mulHi64(a, wShoup);
    uint64_t r = a * w - hi * q;
    return r >= q ? r - q : r;
}

/**
 * Lazy Shoup multiplication (Harvey): returns a value congruent to
 * a * w mod q in [0, 2q) without the final conditional subtract.
 * @pre w < q < 2^62, wShoup = shoupPrecompute(w, q); a may be any
 * 64-bit value (lazily-reduced NTT intermediates included).
 */
inline uint64_t
mulModShoupLazy(uint64_t a, uint64_t w, uint64_t wShoup, uint64_t q)
{
    return a * w - mulHi64(a, wShoup) * q;
}

/** Returns base^exp mod q (binary exponentiation). */
inline uint64_t
powMod(uint64_t base, uint64_t exp, uint64_t q)
{
    uint64_t result = 1 % q;
    uint64_t b = base % q;
    while (exp > 0) {
        if (exp & 1) {
            result = mulModNaive(result, b, q);
        }
        b = mulModNaive(b, b, q);
        exp >>= 1;
    }
    return result;
}

/**
 * Returns a^{-1} mod q via the extended Euclidean algorithm.
 * @pre gcd(a, q) == 1.
 */
inline uint64_t
invMod(uint64_t a, uint64_t q)
{
    HEAP_CHECK(a % q != 0, "invMod of zero");
    int64_t t = 0, newT = 1;
    int64_t r = static_cast<int64_t>(q);
    int64_t newR = static_cast<int64_t>(a % q);
    while (newR != 0) {
        const int64_t quot = r / newR;
        const int64_t tmpT = t - quot * newT;
        t = newT;
        newT = tmpT;
        const int64_t tmpR = r - quot * newR;
        r = newR;
        newR = tmpR;
    }
    HEAP_CHECK(r == 1, "invMod: arguments not coprime");
    if (t < 0) {
        t += static_cast<int64_t>(q);
    }
    return static_cast<uint64_t>(t);
}

/**
 * Maps a residue in [0, q) to its centered representative in
 * [-q/2, q/2) as a signed 64-bit integer.
 */
inline int64_t
toCentered(uint64_t a, uint64_t q)
{
    return a >= (q + 1) / 2 ? static_cast<int64_t>(a) -
                                  static_cast<int64_t>(q)
                            : static_cast<int64_t>(a);
}

/** Maps a signed integer to its residue in [0, q). */
inline uint64_t
fromCentered(int64_t a, uint64_t q)
{
    int64_t r = a % static_cast<int64_t>(q);
    if (r < 0) {
        r += static_cast<int64_t>(q);
    }
    return static_cast<uint64_t>(r);
}

} // namespace heap::math

#endif // HEAP_MATH_MODARITH_H
