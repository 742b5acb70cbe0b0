/**
 * @file
 * AVX2 variants of the flat math kernels (see kernels.h for the
 * reduction-discipline contract). Compiled with -mavx2 and only ever
 * called after runtime detection (math/simd.cc), so no other TU needs
 * the flag.
 *
 * AVX2 has no 64x64 multiply, so the 64-bit high/low products behind
 * Shoup multiplication are synthesized from _mm256_mul_epu32 partials
 * — the same widening-multiplier decomposition the paper's DSP
 * packing performs in hardware (Section IV-A). The wins come from
 * 4-wide butterflies, branchless lazy reductions, and 4-wide
 * add/sub/compare; the Barrett 128-bit pointwise reduction stays
 * scalar (the emulation would cost more than the scalar mul chain).
 */

#if defined(HEAP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "math/kernels.h"

namespace heap::math {
namespace {

const __m256i kSign = _mm256_set1_epi64x(
    static_cast<int64_t>(0x8000000000000000ULL));
const __m256i kLo32 = _mm256_set1_epi64x(0xffffffffLL);

/** High 64 bits of the 64x64 product, per lane. */
inline __m256i
mulHi64v(__m256i x, __m256i y)
{
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i yh = _mm256_srli_epi64(y, 32);
    const __m256i ll = _mm256_mul_epu32(x, y);
    const __m256i lh = _mm256_mul_epu32(x, yh);
    const __m256i hl = _mm256_mul_epu32(xh, y);
    const __m256i hh = _mm256_mul_epu32(xh, yh);
    const __m256i cross = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, kLo32)),
        _mm256_and_si256(hl, kLo32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(cross, 32)));
}

/** Low 64 bits of the 64x64 product, per lane. */
inline __m256i
mulLo64v(__m256i x, __m256i y)
{
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i yh = _mm256_srli_epi64(y, 32);
    const __m256i ll = _mm256_mul_epu32(x, y);
    const __m256i lh = _mm256_mul_epu32(x, yh);
    const __m256i hl = _mm256_mul_epu32(xh, y);
    return _mm256_add_epi64(
        ll, _mm256_slli_epi64(_mm256_add_epi64(lh, hl), 32));
}

/** Lazy Shoup product a*w in [0, 2q); a arbitrary, w < q. */
inline __m256i
shoupLazyV(__m256i a, __m256i w, __m256i ws, __m256i q)
{
    const __m256i hi = mulHi64v(a, ws);
    return _mm256_sub_epi64(mulLo64v(a, w), mulLo64v(hi, q));
}

/** x >= lim ? x - lim : x, for unsigned lanes. lim1s = (lim-1)^sign. */
inline __m256i
condSubV(__m256i x, __m256i lim, __m256i lim1s)
{
    const __m256i ge = _mm256_cmpgt_epi64(_mm256_xor_si256(x, kSign),
                                          lim1s);
    return _mm256_sub_epi64(x, _mm256_and_si256(lim, ge));
}

inline __m256i
signedLim(__m256i lim)
{
    return _mm256_xor_si256(
        _mm256_sub_epi64(lim, _mm256_set1_epi64x(1)), kSign);
}

void
nttForwardAvx2(uint64_t* a, const NttTablesView& t)
{
    const size_t n = t.n;
    if (n < 16) {
        detail::nttForwardScalarLazy(a, t);
        return;
    }
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i twoQv =
        _mm256_set1_epi64x(static_cast<int64_t>(twoQ));
    const __m256i q1s = signedLim(qv);
    const __m256i twoQ1s = signedLim(twoQv);

    // Twist: a[i] *= psi^i, lazily (< 2q).
    for (size_t i = 0; i < n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(t.psi + i));
        const __m256i ws = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(t.psiShoup + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                            shoupLazyV(x, w, ws, qv));
    }
    // Vector DIF stages (len >= 4).
    for (size_t len = n / 2; len >= 4; len >>= 1) {
        const uint64_t* tw = t.tw + len;
        const uint64_t* tws = t.twShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; j += 4) {
                const __m256i u = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(x + j));
                const __m256i v = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(y + j));
                const __m256i sum = condSubV(_mm256_add_epi64(u, v),
                                             twoQv, twoQ1s);
                const __m256i diff = _mm256_add_epi64(
                    _mm256_sub_epi64(u, v), twoQv);
                const __m256i w = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(tw + j));
                const __m256i ws = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(tws + j));
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j),
                                    sum);
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j),
                                    shoupLazyV(diff, w, ws, qv));
            }
        }
    }
    // Last two stages (len 2, 1): strided scalar butterflies.
    for (size_t len = 2; len >= 1; len >>= 1) {
        const uint64_t* tw = t.tw + len;
        const uint64_t* tws = t.twShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; ++j) {
                const uint64_t u = x[j];
                const uint64_t v = y[j];
                uint64_t sum = u + v;
                if (sum >= twoQ) {
                    sum -= twoQ;
                }
                x[j] = sum;
                y[j] = mulModShoupLazy(u - v + twoQ, tw[j], tws[j], q);
            }
        }
    }
    // Final normalization to [0, q).
    for (size_t i = 0; i < n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                            condSubV(x, qv, q1s));
    }
}

void
nttInverseAvx2(uint64_t* a, const NttTablesView& t)
{
    const size_t n = t.n;
    if (n < 16) {
        detail::nttInverseScalarLazy(a, t);
        return;
    }
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i twoQv =
        _mm256_set1_epi64x(static_cast<int64_t>(twoQ));
    const __m256i q1s = signedLim(qv);
    const __m256i twoQ1s = signedLim(twoQv);

    // First two stages (len 1, 2): scalar butterflies, 4q invariant.
    for (size_t len = 1; len <= 2; len <<= 1) {
        const uint64_t* tw = t.itw + len;
        const uint64_t* tws = t.itwShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; ++j) {
                uint64_t u = x[j];
                if (u >= twoQ) {
                    u -= twoQ;
                }
                const uint64_t v =
                    mulModShoupLazy(y[j], tw[j], tws[j], q);
                x[j] = u + v;
                y[j] = u - v + twoQ;
            }
        }
    }
    // Vector DIT stages (len >= 4).
    for (size_t len = 4; len <= n / 2; len <<= 1) {
        const uint64_t* tw = t.itw + len;
        const uint64_t* tws = t.itwShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; j += 4) {
                const __m256i u0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(x + j));
                const __m256i u = condSubV(u0, twoQv, twoQ1s);
                const __m256i w = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(tw + j));
                const __m256i ws = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(tws + j));
                const __m256i v = shoupLazyV(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(y + j)),
                    w, ws, qv);
                _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + j),
                                    _mm256_add_epi64(u, v));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(y + j),
                    _mm256_add_epi64(_mm256_sub_epi64(u, v), twoQv));
            }
        }
    }
    // Untwist + scale, then normalize to [0, q).
    for (size_t i = 0; i < n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(t.ipsiScaled + i));
        const __m256i ws = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(t.ipsiScaledShoup + i));
        const __m256i r = shoupLazyV(x, w, ws, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + i),
                            condSubV(r, qv, q1s));
    }
}

void
addModAvx2(uint64_t* dst, const uint64_t* a, const uint64_t* b,
           size_t n, uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i q1s = signedLim(qv);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i y = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + i));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            condSubV(_mm256_add_epi64(x, y), qv, q1s));
    }
    for (; i < n; ++i) {
        dst[i] = addMod(a[i], b[i], q);
    }
}

void
subModAvx2(uint64_t* dst, const uint64_t* a, const uint64_t* b,
           size_t n, uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i q1s = signedLim(qv);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i y = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + i));
        // a - b + q in (0, 2q), then one conditional subtract.
        const __m256i r =
            _mm256_add_epi64(_mm256_sub_epi64(x, y), qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            condSubV(r, qv, q1s));
    }
    for (; i < n; ++i) {
        dst[i] = subMod(a[i], b[i], q);
    }
}

void
negModAvx2(uint64_t* dst, const uint64_t* a, size_t n, uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i r = _mm256_sub_epi64(qv, x);
        const __m256i isZero = _mm256_cmpeq_epi64(x, zero);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_andnot_si256(isZero, r));
    }
    for (; i < n; ++i) {
        dst[i] = negMod(a[i], q);
    }
}

void
mulScalarShoupAvx2(uint64_t* dst, const uint64_t* a, uint64_t w,
                   uint64_t ws, size_t n, uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i q1s = signedLim(qv);
    const __m256i wv = _mm256_set1_epi64x(static_cast<int64_t>(w));
    const __m256i wsv = _mm256_set1_epi64x(static_cast<int64_t>(ws));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i r = shoupLazyV(x, wv, wsv, qv);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            condSubV(r, qv, q1s));
    }
    for (; i < n; ++i) {
        dst[i] = mulModShoup(a[i], w, ws, q);
    }
}

void
mulScalarShoupAccumAvx2(uint64_t* dst, const uint64_t* a, uint64_t w,
                        uint64_t ws, size_t n, uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i q1s = signedLim(qv);
    const __m256i wv = _mm256_set1_epi64x(static_cast<int64_t>(w));
    const __m256i wsv = _mm256_set1_epi64x(static_cast<int64_t>(ws));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i d = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(dst + i));
        const __m256i r =
            condSubV(shoupLazyV(x, wv, wsv, qv), qv, q1s);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            condSubV(_mm256_add_epi64(d, r), qv, q1s));
    }
    for (; i < n; ++i) {
        dst[i] = addMod(dst[i], mulModShoup(a[i], w, ws, q), q);
    }
}

void
liftSignedAvx2(uint64_t* dst, const int64_t* a, size_t n, uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<int64_t>(q));
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + i));
        const __m256i isNeg = _mm256_cmpgt_epi64(zero, v);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_add_epi64(v, _mm256_and_si256(qv, isNeg)));
    }
    for (; i < n; ++i) {
        const int64_t v = a[i];
        dst[i] = static_cast<uint64_t>(v)
                 + (q & static_cast<uint64_t>(v >> 63));
    }
}

} // namespace

namespace detail {

void
installAvx2Kernels(KernelOps& ops)
{
    ops.nttForward = &nttForwardAvx2;
    ops.nttInverse = &nttInverseAvx2;
    ops.addMod = &addModAvx2;
    ops.subMod = &subModAvx2;
    ops.negMod = &negModAvx2;
    ops.mulScalarShoup = &mulScalarShoupAvx2;
    ops.mulScalarShoupAccum = &mulScalarShoupAccumAvx2;
    ops.liftSigned = &liftSignedAvx2;
    ops.liftNttRows =
        &detail::liftNttRowsPerRow<&liftSignedAvx2, &nttForwardAvx2>;
    // mulMod / mulModAccum stay scalar: the 128-bit Barrett reduction
    // has no profitable AVX2 formulation (no 64-bit vector multiply).
}

} // namespace detail
} // namespace heap::math

#endif // HEAP_HAVE_AVX2 && x86
