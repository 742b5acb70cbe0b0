/**
 * @file
 * AVX-512 variants of the flat math kernels (see kernels.h for the
 * reduction-discipline contract). Compiled with -mavx512f -mavx512dq
 * -mavx512vl and only called after runtime detection (math/simd.cc).
 *
 * AVX-512DQ supplies a native 64-bit low multiply
 * (_mm512_mullo_epi64), so the lazy Shoup product needs only one
 * emulated high-half multiply; unsigned compares come for free as
 * mask registers. This is the widest software mirror of the paper's
 * DSP-packed modular multiplier array (Section IV-A): 8 butterflies
 * per instruction, branch-free lazy reduction. The elementwise kernels
 * and the digit split are this file's copy of the portable loops
 * (math/kernels_portable.h).
 */

#if defined(HEAP_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "math/kernels.h"

namespace heap::math {
namespace {

#include "math/kernels_portable.h"

// GCC 12's unmasked vpsrlq/vpmuludq intrinsics merge into
// _mm512_undefined_epi32(), which -Wmaybe-uninitialized flags once
// inlined; their all-lanes zero-masked forms compile to the same
// unmasked instructions.
constexpr __mmask8 kAllLanes = 0xFF;

inline __m512i
shiftHi32(__m512i x)
{
    return _mm512_maskz_srli_epi64(kAllLanes, x, 32);
}

inline __m512i
mulLo32(__m512i x, __m512i y)
{
    return _mm512_maskz_mul_epu32(kAllLanes, x, y);
}

/** High 64 bits of the 64x64 product, per lane. */
inline __m512i
mulHi64v(__m512i x, __m512i y)
{
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    const __m512i xh = shiftHi32(x);
    const __m512i yh = shiftHi32(y);
    const __m512i ll = mulLo32(x, y);
    const __m512i lh = mulLo32(x, yh);
    const __m512i hl = mulLo32(xh, y);
    const __m512i hh = mulLo32(xh, yh);
    const __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(shiftHi32(ll), _mm512_and_si512(lh, lo32)),
        _mm512_and_si512(hl, lo32));
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, shiftHi32(lh)),
        _mm512_add_epi64(shiftHi32(hl), shiftHi32(cross)));
}

/** Lazy Shoup product a*w in [0, 2q); a arbitrary, w < q. */
inline __m512i
shoupLazyV(__m512i a, __m512i w, __m512i ws, __m512i q)
{
    const __m512i hi = mulHi64v(a, ws);
    return _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                            _mm512_mullo_epi64(hi, q));
}

/** x >= lim ? x - lim : x, unsigned lanes (mask subtract). */
inline __m512i
condSubV(__m512i x, __m512i lim)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(x, lim);
    return _mm512_mask_sub_epi64(x, ge, x, lim);
}

#if defined(HEAP_HAVE_AVX512IFMA)
inline bool
cpuHasIfma()
{
    static const bool has = __builtin_cpu_supports("avx512ifma");
    return has;
}
#endif

void
nttForwardAvx512(uint64_t* a, const NttTablesView& t)
{
#if defined(HEAP_HAVE_AVX512IFMA)
    // Small moduli ride the 52-bit fused-multiply butterflies when the
    // hardware has them; the tables expose 52-bit companions only for
    // q < 2^kIfmaMaxModulusBits.
    if (t.psi52 != nullptr && cpuHasIfma()) {
        detail::nttForwardAvx512Ifma(a, t);
        return;
    }
#endif
    const size_t n = t.n;
    if (n < 32) {
        detail::nttForwardScalarLazy(a, t);
        return;
    }
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<int64_t>(q));
    const __m512i twoQv =
        _mm512_set1_epi64(static_cast<int64_t>(twoQ));

    // Twist: a[i] *= psi^i, lazily (< 2q).
    for (size_t i = 0; i < n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i w = _mm512_loadu_si512(t.psi + i);
        const __m512i ws = _mm512_loadu_si512(t.psiShoup + i);
        _mm512_storeu_si512(a + i, shoupLazyV(x, w, ws, qv));
    }
    // Vector DIF stages (len >= 8).
    for (size_t len = n / 2; len >= 8; len >>= 1) {
        const uint64_t* tw = t.tw + len;
        const uint64_t* tws = t.twShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; j += 8) {
                const __m512i u = _mm512_loadu_si512(x + j);
                const __m512i v = _mm512_loadu_si512(y + j);
                const __m512i sum =
                    condSubV(_mm512_add_epi64(u, v), twoQv);
                const __m512i diff = _mm512_add_epi64(
                    _mm512_sub_epi64(u, v), twoQv);
                const __m512i w = _mm512_loadu_si512(tw + j);
                const __m512i ws = _mm512_loadu_si512(tws + j);
                _mm512_storeu_si512(x + j, sum);
                _mm512_storeu_si512(y + j,
                                    shoupLazyV(diff, w, ws, qv));
            }
        }
    }
    // Last three stages (len 4, 2, 1): strided scalar butterflies.
    for (size_t len = 4; len >= 1; len >>= 1) {
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
    for (size_t i = 0; i < n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        _mm512_storeu_si512(a + i, condSubV(x, qv));
    }
}

void
nttInverseAvx512(uint64_t* a, const NttTablesView& t)
{
#if defined(HEAP_HAVE_AVX512IFMA)
    if (t.psi52 != nullptr && cpuHasIfma()) {
        detail::nttInverseAvx512Ifma(a, t);
        return;
    }
#endif
    const size_t n = t.n;
    if (n < 32) {
        detail::nttInverseScalarLazy(a, t);
        return;
    }
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<int64_t>(q));
    const __m512i twoQv =
        _mm512_set1_epi64(static_cast<int64_t>(twoQ));

    // First three stages (len 1, 2, 4): scalar, 4q invariant.
    for (size_t len = 1; len <= 4; len <<= 1) {
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
    // Vector DIT stages (len >= 8).
    for (size_t len = 8; len <= n / 2; len <<= 1) {
        const uint64_t* tw = t.itw + len;
        const uint64_t* tws = t.itwShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; j += 8) {
                const __m512i u =
                    condSubV(_mm512_loadu_si512(x + j), twoQv);
                const __m512i w = _mm512_loadu_si512(tw + j);
                const __m512i ws = _mm512_loadu_si512(tws + j);
                const __m512i v = shoupLazyV(
                    _mm512_loadu_si512(y + j), w, ws, qv);
                _mm512_storeu_si512(x + j, _mm512_add_epi64(u, v));
                _mm512_storeu_si512(
                    y + j,
                    _mm512_add_epi64(_mm512_sub_epi64(u, v), twoQv));
            }
        }
    }
    // Untwist + scale, then normalize to [0, q).
    for (size_t i = 0; i < n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i w = _mm512_loadu_si512(t.ipsiScaled + i);
        const __m512i ws = _mm512_loadu_si512(t.ipsiScaledShoup + i);
        _mm512_storeu_si512(a + i,
                            condSubV(shoupLazyV(x, w, ws, qv), qv));
    }
}

void
mulScalarShoupAvx512(uint64_t* dst, const uint64_t* a, uint64_t w,
                     uint64_t ws, size_t n, uint64_t q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<int64_t>(q));
    const __m512i wv = _mm512_set1_epi64(static_cast<int64_t>(w));
    const __m512i wsv = _mm512_set1_epi64(static_cast<int64_t>(ws));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        _mm512_storeu_si512(dst + i,
                            condSubV(shoupLazyV(x, wv, wsv, qv), qv));
    }
    for (; i < n; ++i) {
        dst[i] = mulModShoup(a[i], w, ws, q);
    }
}

void
mulScalarShoupAccumAvx512(uint64_t* dst, const uint64_t* a, uint64_t w,
                          uint64_t ws, size_t n, uint64_t q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<int64_t>(q));
    const __m512i wv = _mm512_set1_epi64(static_cast<int64_t>(w));
    const __m512i wsv = _mm512_set1_epi64(static_cast<int64_t>(ws));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i d = _mm512_loadu_si512(dst + i);
        const __m512i r = condSubV(shoupLazyV(x, wv, wsv, qv), qv);
        _mm512_storeu_si512(dst + i,
                            condSubV(_mm512_add_epi64(d, r), qv));
    }
    for (; i < n; ++i) {
        dst[i] = addMod(dst[i], mulModShoup(a[i], w, ws, q), q);
    }
}

void
liftNttRowsAvx512(uint64_t* rows, const int64_t* digits, size_t count,
                  const NttTablesView& t)
{
#if defined(HEAP_HAVE_AVX512IFMA)
    // Row lanes need whole 8 x 8 blocks and lanes that fit in L1;
    // elsewhere each row takes the per-row NTT (IFMA or not).
    if (t.psi52 != nullptr && cpuHasIfma() && t.n % 8 == 0
        && t.n <= detail::kIfmaRowLanesMaxN) {
        detail::liftNttRowsAvx512Ifma(rows, digits, count, t);
        return;
    }
#endif
    detail::liftNttRowsPerRow<&liftSignedLoop, &nttForwardAvx512>(
        rows, digits, count, t);
}

} // namespace

namespace detail {

void
installAvx512Kernels(KernelOps& ops)
{
    // mulMod/mulModAccum stay scalar: the 128-bit Barrett chain maps
    // to 1-cycle mulx scalar code but needs 4 emulated 64-bit high
    // multiplies per vector — measured slower than scalar here. The
    // MAC needs no reduction per product, so IFMA (52x52-bit products
    // split into two lanes) takes it when the CPU has the units.
    installPortableKernels(ops);
    ops.nttForward = &nttForwardAvx512;
    ops.nttInverse = &nttInverseAvx512;
    ops.mulScalarShoup = &mulScalarShoupAvx512;
    ops.mulScalarShoupAccum = &mulScalarShoupAccumAvx512;
    ops.liftNttRows = &liftNttRowsAvx512;
#if defined(HEAP_HAVE_AVX512IFMA)
    if (cpuHasIfma()) {
        ops.macLazy = &detail::macLazyAvx512Ifma;
        ops.macReduce = &detail::macReduceAvx512Ifma;
    }
#endif
}

} // namespace detail
} // namespace heap::math

#endif // HEAP_HAVE_AVX512 && x86
