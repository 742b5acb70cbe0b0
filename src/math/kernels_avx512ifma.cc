/**
 * @file
 * AVX-512 IFMA bodies of the NTT and of the gadget product's
 * multiply-accumulate.
 *
 * The NTT bodies are negacyclic butterflies built on the
 * 52x52-bit fused multiply-add units (vpmadd52luq/vpmadd52huq),
 * following the same Harvey lazy-reduction discipline as the scalar
 * kernels but with beta = 2^52 instead of 2^64:
 *
 *   shoupLazy52(a, w) = low52(a*w) - low52(floor(a*w52 / 2^52) * q)
 *                     mod 2^52, with w52 = floor(w * 2^52 / q),
 *
 * which lands in [0, 2q) for any a < 2^52 provided q < 2^50
 * (kIfmaMaxModulusBits). That is one vpmadd52huq plus two vpmadd52luq
 * per 8 lanes — the closest software analogue of the paper's
 * DSP-packed 52-bit multiplier columns (Section IV-A).
 *
 * Intermediates here may take different lazy representatives than the
 * 64-bit scalar/DQ paths, but every path normalizes to canonical
 * [0, q) in its final pass, so whole-transform outputs remain
 * byte-identical (asserted by tests/simd_equivalence_test.cc).
 *
 * Only reachable when the tables carry 52-bit companions
 * (NttTablesView::psi52 != nullptr) and the CPU reports avx512ifma;
 * kernels_avx512.cc performs both checks before branching here.
 *
 * The MAC bodies keep each lazy sum as two 64-bit lanes per
 * coefficient, lo at words [2cn, 2cn + n) and hi at [2cn + n,
 * 2cn + 2n): vpmadd52luq adds the low 52 bits of each product to lo,
 * vpmadd52huq the high bits to hi, so the sum is lo + hi * 2^52 —
 * exact with no reduction for q < 2^kIfmaMacModulusBits, for
 * kIfmaMacBudget terms on top of a reduced seed (modarith.h). Wider
 * moduli, and n that whole vectors do not cover, take the scalar
 * 128-bit body. The AVX-512 table installs these after its avx512ifma
 * cpuid check.
 */

#if defined(HEAP_HAVE_AVX512IFMA) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

#include "math/kernels.h"

namespace heap::math {
namespace {

constexpr uint64_t kMask52 = (static_cast<uint64_t>(1) << 52) - 1;

/** Lazy 52-bit Shoup product a*w in [0, 2q); a < 2^52, w < q < 2^50. */
inline __m512i
shoupLazy52V(__m512i a, __m512i w, __m512i w52, __m512i q,
             __m512i zero, __m512i mask52)
{
    const __m512i hi = _mm512_madd52hi_epu64(zero, a, w52);
    const __m512i lo = _mm512_madd52lo_epu64(zero, a, w);
    const __m512i lo2 = _mm512_madd52lo_epu64(zero, hi, q);
    // True result < 2q < 2^51, so the mod-2^52 difference is exact.
    return _mm512_and_si512(_mm512_sub_epi64(lo, lo2), mask52);
}

/** x >= lim ? x - lim : x, unsigned lanes. */
inline __m512i
condSubV(__m512i x, __m512i lim)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(x, lim);
    return _mm512_mask_sub_epi64(x, ge, x, lim);
}

/**
 * One forward butterfly stage with len in {1, 2, 4}, entirely inside a
 * 512-bit register: lanes are permuted so every lane sees its pair's
 * (u, v), both butterfly outputs are computed across all lanes, and
 * vMask selects the product lanes. Inputs < 2q, outputs < 2q.
 */
inline __m512i
fwdStageSmallV(__m512i z, __m512i uIdx, __m512i vIdx, __mmask8 vMask,
               __m512i w, __m512i w52, __m512i q, __m512i twoQ,
               __m512i zero, __m512i mask52)
{
    const __m512i u = _mm512_permutexvar_epi64(uIdx, z);
    const __m512i v = _mm512_permutexvar_epi64(vIdx, z);
    const __m512i sum = condSubV(_mm512_add_epi64(u, v), twoQ);
    const __m512i diff =
        _mm512_add_epi64(_mm512_sub_epi64(u, v), twoQ);
    const __m512i prod = shoupLazy52V(diff, w, w52, q, zero, mask52);
    return _mm512_mask_blend_epi64(vMask, sum, prod);
}

/**
 * One inverse butterfly stage with len in {1, 2, 4}, in-register like
 * fwdStageSmallV. Inputs < 4q, outputs < 4q (Harvey's bound).
 */
inline __m512i
invStageSmallV(__m512i z, __m512i uIdx, __m512i vIdx, __mmask8 vMask,
               __m512i w, __m512i w52, __m512i q, __m512i twoQ,
               __m512i zero, __m512i mask52)
{
    const __m512i u =
        condSubV(_mm512_permutexvar_epi64(uIdx, z), twoQ);
    const __m512i v = shoupLazy52V(_mm512_permutexvar_epi64(vIdx, z),
                                   w, w52, q, zero, mask52);
    const __m512i x = _mm512_add_epi64(u, v);
    const __m512i y =
        _mm512_add_epi64(_mm512_sub_epi64(u, v), twoQ);
    return _mm512_mask_blend_epi64(vMask, x, y);
}

/** Sum c += row * keys[c] as lo/hi lanes; Sums is a constant so one
 *  row load feeds every sum. @pre n % 8 == 0. */
template <size_t Sums>
void
macRowsIfma(uint64_t* acc, const uint64_t* row,
            const uint64_t* const* keys, size_t n)
{
    for (size_t t = 0; t < n; t += 8) {
        const __m512i x = _mm512_loadu_si512(row + t);
        for (size_t c = 0; c < Sums; ++c) {
            uint64_t* lo = acc + 2 * c * n + t;
            uint64_t* hi = lo + n;
            const __m512i k = _mm512_loadu_si512(keys[c] + t);
            _mm512_storeu_si512(
                lo, _mm512_madd52lo_epu64(_mm512_loadu_si512(lo), x, k));
            _mm512_storeu_si512(
                hi, _mm512_madd52hi_epu64(_mm512_loadu_si512(hi), x, k));
        }
    }
}

/** The exact value of lane pair (lo, hi), below q * 2^64. */
inline uint64_t
reduceLanes(uint64_t lo, uint64_t hi, const BarrettReducer& red)
{
    return red.reduce(static_cast<uint128>(lo)
                      + (static_cast<uint128>(hi) << 52));
}

/** Whether the lanes are exact for q and whole vectors cover n. */
inline bool
fitsIfmaMac(uint64_t q, size_t n)
{
    return (q >> kIfmaMacModulusBits) == 0 && n % 8 == 0;
}

} // namespace

namespace detail {

void
macLazyAvx512Ifma(uint64_t* acc, uint64_t& terms, const uint64_t* row,
                  const uint64_t* const* keys, size_t sums, size_t n,
                  const BarrettReducer& red)
{
    if (!fitsIfmaMac(red.modulus(), n)) {
        macLazyScalar(acc, terms, row, keys, sums, n, red);
        return;
    }
    if (terms == 0) {
        std::fill_n(acc, 2 * sums * n, uint64_t{0});
    } else if (terms == kIfmaMacBudget) {
        for (size_t c = 0; c < sums; ++c) {
            uint64_t* lo = acc + 2 * c * n;
            uint64_t* hi = lo + n;
            for (size_t t = 0; t < n; ++t) {
                lo[t] = reduceLanes(lo[t], hi[t], red);
                hi[t] = 0;
            }
        }
        terms = 0;
    }
    ++terms;
    switch (sums) {
    case 2:
        macRowsIfma<2>(acc, row, keys, n);
        break;
    case 4:
        macRowsIfma<4>(acc, row, keys, n);
        break;
    default:
        for (size_t c = 0; c < sums; ++c) {
            macRowsIfma<1>(acc + 2 * c * n, row, keys + c, n);
        }
    }
}

void
macReduceAvx512Ifma(uint64_t* const* dst, const uint64_t* acc,
                    size_t sums, size_t n, const BarrettReducer& red)
{
    if (!fitsIfmaMac(red.modulus(), n)) {
        macReduceScalar(dst, acc, sums, n, red);
        return;
    }
    for (size_t c = 0; c < sums; ++c) {
        const uint64_t* lo = acc + 2 * c * n;
        const uint64_t* hi = lo + n;
        for (size_t t = 0; t < n; ++t) {
            dst[c][t] = reduceLanes(lo[t], hi[t], red);
        }
    }
}

void
nttForwardAvx512Ifma(uint64_t* a, const NttTablesView& t)
{
    const size_t n = t.n;
    if (n < 32) {
        nttForwardScalarLazy(a, t);
        return;
    }
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<int64_t>(q));
    const __m512i twoQv =
        _mm512_set1_epi64(static_cast<int64_t>(twoQ));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i mask52 =
        _mm512_set1_epi64(static_cast<int64_t>(kMask52));

    // Twist: a[i] *= psi^i, lazily (< 2q).
    for (size_t i = 0; i < n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i w = _mm512_loadu_si512(t.psi + i);
        const __m512i w52 = _mm512_loadu_si512(t.psi52 + i);
        _mm512_storeu_si512(
            a + i, shoupLazy52V(x, w, w52, qv, zero, mask52));
    }
    // Vector DIF stages (len >= 8); inputs < 2q, diff < 4q < 2^52.
    for (size_t len = n / 2; len >= 8; len >>= 1) {
        const uint64_t* tw = t.tw + len;
        const uint64_t* tw52 = t.tw52 + len;
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
                const __m512i w52 = _mm512_loadu_si512(tw52 + j);
                _mm512_storeu_si512(x + j, sum);
                _mm512_storeu_si512(
                    y + j,
                    shoupLazy52V(diff, w, w52, qv, zero, mask52));
            }
        }
    }
    // Last three stages (len 4, 2, 1) live entirely inside one
    // register; the final normalization to [0, q) is fused in.
    const __m512i dup4 = _mm512_setr_epi64(0, 1, 2, 3, 0, 1, 2, 3);
    const __m512i dup2 = _mm512_setr_epi64(0, 1, 0, 1, 0, 1, 0, 1);
    const __m512i vIdx4 = _mm512_setr_epi64(4, 5, 6, 7, 4, 5, 6, 7);
    const __m512i uIdx2 = _mm512_setr_epi64(0, 1, 0, 1, 4, 5, 4, 5);
    const __m512i vIdx2 = _mm512_setr_epi64(2, 3, 2, 3, 6, 7, 6, 7);
    const __m512i uIdx1 = _mm512_setr_epi64(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i vIdx1 = _mm512_setr_epi64(1, 1, 3, 3, 5, 5, 7, 7);
    const __m512i w4 =
        _mm512_permutexvar_epi64(dup4, _mm512_loadu_si512(t.tw + 4));
    const __m512i w4x = _mm512_permutexvar_epi64(
        dup4, _mm512_loadu_si512(t.tw52 + 4));
    const __m512i w2 =
        _mm512_permutexvar_epi64(dup2, _mm512_loadu_si512(t.tw + 2));
    const __m512i w2x = _mm512_permutexvar_epi64(
        dup2, _mm512_loadu_si512(t.tw52 + 2));
    const __m512i w1 =
        _mm512_set1_epi64(static_cast<int64_t>(t.tw[1]));
    const __m512i w1x =
        _mm512_set1_epi64(static_cast<int64_t>(t.tw52[1]));
    for (size_t i = 0; i < n; i += 8) {
        __m512i z = _mm512_loadu_si512(a + i);
        z = fwdStageSmallV(z, dup4, vIdx4, 0xF0, w4, w4x, qv, twoQv,
                           zero, mask52);
        z = fwdStageSmallV(z, uIdx2, vIdx2, 0xCC, w2, w2x, qv, twoQv,
                           zero, mask52);
        z = fwdStageSmallV(z, uIdx1, vIdx1, 0xAA, w1, w1x, qv, twoQv,
                           zero, mask52);
        _mm512_storeu_si512(a + i, condSubV(z, qv));
    }
}

void
nttInverseAvx512Ifma(uint64_t* a, const NttTablesView& t)
{
    const size_t n = t.n;
    if (n < 32) {
        nttInverseScalarLazy(a, t);
        return;
    }
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<int64_t>(q));
    const __m512i twoQv =
        _mm512_set1_epi64(static_cast<int64_t>(twoQ));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i mask52 =
        _mm512_set1_epi64(static_cast<int64_t>(kMask52));

    // First three stages (len 1, 2, 4) in-register; 4q invariant.
    const __m512i dup4 = _mm512_setr_epi64(0, 1, 2, 3, 0, 1, 2, 3);
    const __m512i dup2 = _mm512_setr_epi64(0, 1, 0, 1, 0, 1, 0, 1);
    const __m512i vIdx4 = _mm512_setr_epi64(4, 5, 6, 7, 4, 5, 6, 7);
    const __m512i uIdx2 = _mm512_setr_epi64(0, 1, 0, 1, 4, 5, 4, 5);
    const __m512i vIdx2 = _mm512_setr_epi64(2, 3, 2, 3, 6, 7, 6, 7);
    const __m512i uIdx1 = _mm512_setr_epi64(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i vIdx1 = _mm512_setr_epi64(1, 1, 3, 3, 5, 5, 7, 7);
    const __m512i w4 =
        _mm512_permutexvar_epi64(dup4, _mm512_loadu_si512(t.itw + 4));
    const __m512i w4x = _mm512_permutexvar_epi64(
        dup4, _mm512_loadu_si512(t.itw52 + 4));
    const __m512i w2 =
        _mm512_permutexvar_epi64(dup2, _mm512_loadu_si512(t.itw + 2));
    const __m512i w2x = _mm512_permutexvar_epi64(
        dup2, _mm512_loadu_si512(t.itw52 + 2));
    const __m512i w1 =
        _mm512_set1_epi64(static_cast<int64_t>(t.itw[1]));
    const __m512i w1x =
        _mm512_set1_epi64(static_cast<int64_t>(t.itw52[1]));
    for (size_t i = 0; i < n; i += 8) {
        __m512i z = _mm512_loadu_si512(a + i);
        z = invStageSmallV(z, uIdx1, vIdx1, 0xAA, w1, w1x, qv, twoQv,
                           zero, mask52);
        z = invStageSmallV(z, uIdx2, vIdx2, 0xCC, w2, w2x, qv, twoQv,
                           zero, mask52);
        z = invStageSmallV(z, dup4, vIdx4, 0xF0, w4, w4x, qv, twoQv,
                           zero, mask52);
        _mm512_storeu_si512(a + i, z);
    }
    // Vector DIT stages (len >= 8); y inputs < 4q < 2^52.
    for (size_t len = 8; len <= n / 2; len <<= 1) {
        const uint64_t* tw = t.itw + len;
        const uint64_t* tw52 = t.itw52 + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; j += 8) {
                const __m512i u =
                    condSubV(_mm512_loadu_si512(x + j), twoQv);
                const __m512i w = _mm512_loadu_si512(tw + j);
                const __m512i w52 = _mm512_loadu_si512(tw52 + j);
                const __m512i v =
                    shoupLazy52V(_mm512_loadu_si512(y + j), w, w52,
                                 qv, zero, mask52);
                _mm512_storeu_si512(x + j, _mm512_add_epi64(u, v));
                _mm512_storeu_si512(
                    y + j,
                    _mm512_add_epi64(_mm512_sub_epi64(u, v), twoQv));
            }
        }
    }
    // Untwist + scale (inputs < 4q < 2^52), then normalize to [0, q).
    for (size_t i = 0; i < n; i += 8) {
        const __m512i x = _mm512_loadu_si512(a + i);
        const __m512i w = _mm512_loadu_si512(t.ipsiScaled + i);
        const __m512i w52 = _mm512_loadu_si512(t.ipsiScaled52 + i);
        _mm512_storeu_si512(
            a + i,
            condSubV(shoupLazy52V(x, w, w52, qv, zero, mask52), qv));
    }
}

} // namespace detail
} // namespace heap::math

#endif // HEAP_HAVE_AVX512IFMA && x86
