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
 *
 * The row-lane transform (liftNttRowsAvx512Ifma) runs the forward NTT
 * of 8 digit rows at once, row k in lane k: every butterfly is
 * vertical, between two vectors that share one broadcast twiddle, so
 * no stage permutes inside a register.
 */

#if defined(HEAP_HAVE_AVX512IFMA) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <algorithm>

#include "math/kernels.h"

namespace heap::math {
namespace {

constexpr uint64_t kMask52 = (static_cast<uint64_t>(1) << 52) - 1;

/** v in every lane. */
inline __m512i
splat(uint64_t v)
{
    return _mm512_set1_epi64(static_cast<int64_t>(v));
}

// GCC 12's unmasked permute, shift and unpack intrinsics merge into
// _mm512_undefined_epi32(), which -Wmaybe-uninitialized flags once
// inlined; their all-lanes zero-masked forms compile to the same
// unmasked instructions.
constexpr __mmask8 kAllLanes = 0xFF;

inline __m512i
permute(__m512i idx, __m512i z)
{
    return _mm512_maskz_permutexvar_epi64(kAllLanes, idx, z);
}

inline __m512i
shiftHi52(__m512i x)
{
    return _mm512_maskz_srli_epi64(kAllLanes, x, 52);
}

/**
 * Lazy 52-bit Shoup product a*w in [0, 2q); a < 2^52, w < q < 2^50,
 * negQ = 2^52 - q. The quotient estimate's product is added as
 * hi * (2^52 - q), which is -hi * q mod 2^52, so the third multiply
 * accumulates onto the first and no subtract is needed.
 */
inline __m512i
shoupLazy52V(__m512i a, __m512i w, __m512i w52, __m512i negQ,
             __m512i zero, __m512i mask52)
{
    const __m512i hi = _mm512_madd52hi_epu64(zero, a, w52);
    const __m512i lo = _mm512_madd52lo_epu64(zero, a, w);
    // True result < 2q < 2^51, so the value mod 2^52 is exact.
    return _mm512_and_si512(_mm512_madd52lo_epu64(lo, hi, negQ), mask52);
}

/** 2^52 - q in every lane: shoupLazy52V's form of q. */
inline __m512i
negQ52(uint64_t q)
{
    return splat((uint64_t{1} << 52) - q);
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
               __m512i w, __m512i w52, __m512i negQ, __m512i twoQ,
               __m512i zero, __m512i mask52)
{
    const __m512i u = permute(uIdx, z);
    const __m512i v = permute(vIdx, z);
    const __m512i sum = condSubV(_mm512_add_epi64(u, v), twoQ);
    const __m512i diff =
        _mm512_add_epi64(_mm512_sub_epi64(u, v), twoQ);
    const __m512i prod = shoupLazy52V(diff, w, w52, negQ, zero, mask52);
    return _mm512_mask_blend_epi64(vMask, sum, prod);
}

/**
 * One inverse butterfly stage with len in {1, 2, 4}, in-register like
 * fwdStageSmallV. Inputs < 4q, outputs < 4q (Harvey's bound).
 */
inline __m512i
invStageSmallV(__m512i z, __m512i uIdx, __m512i vIdx, __mmask8 vMask,
               __m512i w, __m512i w52, __m512i negQ, __m512i twoQ,
               __m512i zero, __m512i mask52)
{
    const __m512i u =
        condSubV(permute(uIdx, z), twoQ);
    const __m512i v = shoupLazy52V(permute(vIdx, z),
                                   w, w52, negQ, zero, mask52);
    const __m512i x = _mm512_add_epi64(u, v);
    const __m512i y =
        _mm512_add_epi64(_mm512_sub_epi64(u, v), twoQ);
    return _mm512_mask_blend_epi64(vMask, x, y);
}

/**
 * Sum c += rows[r] * keys[r * stride + c] as lo/hi lanes, r < count.
 * Per 8 coefficients the 2 * Sums lanes stay in registers across all
 * the rows, so a row costs one load per key and no acc traffic.
 * @pre n % 8 == 0.
 */
template <size_t Sums>
void
macRowsIfma(uint64_t* acc, const uint64_t* rows,
            const uint64_t* const* keys, size_t stride, size_t count,
            size_t n)
{
    for (size_t t = 0; t < n; t += 8) {
        __m512i lo[Sums];
        __m512i hi[Sums];
        for (size_t c = 0; c < Sums; ++c) {
            lo[c] = _mm512_loadu_si512(acc + 2 * c * n + t);
            hi[c] = _mm512_loadu_si512(acc + 2 * c * n + n + t);
        }
        for (size_t r = 0; r < count; ++r) {
            const __m512i x = _mm512_loadu_si512(rows + r * n + t);
            const uint64_t* const* key = keys + r * stride;
            for (size_t c = 0; c < Sums; ++c) {
                const __m512i k = _mm512_loadu_si512(key[c] + t);
                lo[c] = _mm512_madd52lo_epu64(lo[c], x, k);
                hi[c] = _mm512_madd52hi_epu64(hi[c], x, k);
            }
        }
        for (size_t c = 0; c < Sums; ++c) {
            _mm512_storeu_si512(acc + 2 * c * n + t, lo[c]);
            _mm512_storeu_si512(acc + 2 * c * n + n + t, hi[c]);
        }
    }
}

/**
 * Reduces MAC lane pairs (lo, hi), value lo + hi * 2^52 < q * 2^64,
 * to [0, q). Split as L + M * 2^52 + H * 2^104 (L, M < 2^52 and
 * H < 2^12, since hi + lo / 2^52 < 2^64), the value is congruent to
 * L * 1 + M * (2^52 mod q) + H * (2^104 mod q): three lazy 52-bit
 * Shoup products, each < 2q, summed and normalized. Needs q <
 * 2^kIfmaMaxModulusBits like the NTT bodies; the MAC's wider moduli
 * reduce with the scalar Barrett (reduceLanes).
 */
class LaneReducer {
  public:
    explicit LaneReducer(const BarrettReducer& red)
    {
        const uint64_t q = red.modulus();
        const uint64_t r52 = (uint64_t{1} << 52) % q;
        const uint64_t r104 = red.mulMod(r52, r52);
        q_ = splat(q);
        negQ_ = negQ52(q);
        twoQ_ = splat(2 * q);
        one_ = splat(1);
        one52_ = splat(shoupPrecompute52(1, q));
        r52_ = splat(r52);
        r52s_ = splat(shoupPrecompute52(r52, q));
        r104_ = splat(r104);
        r104s_ = splat(shoupPrecompute52(r104, q));
    }

    __m512i
    reduce(__m512i lo, __m512i hi) const
    {
        const __m512i zero = _mm512_setzero_si512();
        const __m512i mask52 = splat(kMask52);
        const __m512i top = _mm512_add_epi64(hi, shiftHi52(lo));
        __m512i s = _mm512_add_epi64(
            shoupLazy52V(_mm512_and_si512(lo, mask52), one_, one52_, negQ_,
                         zero, mask52),
            shoupLazy52V(_mm512_and_si512(top, mask52), r52_, r52s_, negQ_,
                         zero, mask52));
        s = _mm512_add_epi64(condSubV(s, twoQ_),
                             shoupLazy52V(shiftHi52(top), r104_, r104s_,
                                          negQ_, zero, mask52));
        return condSubV(condSubV(s, twoQ_), q_);
    }

  private:
    __m512i q_, negQ_, twoQ_, one_, one52_, r52_, r52s_, r104_, r104s_;
};

/** The exact value of lane pair (lo, hi), below q * 2^64. */
inline uint64_t
reduceLanes(uint64_t lo, uint64_t hi, const BarrettReducer& red)
{
    return red.reduce(static_cast<uint128>(lo)
                      + (static_cast<uint128>(hi) << 52));
}

/**
 * dst[c][t] = lane pair (lo, hi) of sum c at t, mod q; dst[c] may be
 * the sum's own lo lane (the in-place fold of macLazy).
 */
void
reduceSums(uint64_t* const* dst, const uint64_t* acc, size_t sums,
           size_t n, const BarrettReducer& red)
{
    if ((red.modulus() >> kIfmaMaxModulusBits) != 0) {
        for (size_t c = 0; c < sums; ++c) {
            const uint64_t* lo = acc + 2 * c * n;
            for (size_t t = 0; t < n; ++t) {
                dst[c][t] = reduceLanes(lo[t], lo[n + t], red);
            }
        }
        return;
    }
    const LaneReducer lanes(red);
    for (size_t c = 0; c < sums; ++c) {
        const uint64_t* lo = acc + 2 * c * n;
        for (size_t t = 0; t < n; t += 8) {
            _mm512_storeu_si512(
                dst[c] + t,
                lanes.reduce(_mm512_loadu_si512(lo + t),
                             _mm512_loadu_si512(lo + n + t)));
        }
    }
}

/** Whether the lanes are exact for q and whole vectors cover n. */
inline bool
fitsIfmaMac(uint64_t q, size_t n)
{
    return (q >> kIfmaMacModulusBits) == 0 && n % 8 == 0;
}

/**
 * Transposes the 8 x 8 matrix of 64-bit words r[row] lane [col] in
 * place: three rounds of two-source shuffles (pairs of words, of
 * 128-bit halves, of 256-bit halves), 24 shuffles in all.
 */
inline void
transpose8x8(__m512i r[8])
{
    __m512i s[8];
    for (size_t k = 0; k < 8; k += 2) {
        s[k] = _mm512_maskz_unpacklo_epi64(kAllLanes, r[k], r[k + 1]);
        s[k + 1] = _mm512_maskz_unpackhi_epi64(kAllLanes, r[k], r[k + 1]);
    }
    // s[k] for k = 0, 1 (mod 4) meets s[k + 2]: columns 0|4 and 2|6
    // (k even) or 1|5 and 3|7 (k odd) of four rows.
    const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    __m512i v[8];
    for (const size_t k : {0, 1, 4, 5}) {
        v[k] = _mm512_permutex2var_epi64(s[k], even, s[k + 2]);
        v[k + 2] = _mm512_permutex2var_epi64(s[k], odd, s[k + 2]);
    }
    for (size_t k = 0; k < 4; ++k) {
        r[k] = _mm512_maskz_shuffle_i64x2(kAllLanes, v[k], v[k + 4],
                                          0x44);
        r[k + 4] = _mm512_maskz_shuffle_i64x2(kAllLanes, v[k],
                                              v[k + 4], 0xEE);
    }
}

} // namespace

namespace detail {

void
macLazyAvx512Ifma(uint64_t* acc, uint64_t& terms, const uint64_t* rows,
                  const uint64_t* const* keys, size_t count, size_t sums,
                  size_t n, const BarrettReducer& red)
{
    if (!fitsIfmaMac(red.modulus(), n)) {
        macLazyScalar(acc, terms, rows, keys, count, sums, n, red);
        return;
    }
    if (terms == 0) {
        std::fill_n(acc, 2 * sums * n, uint64_t{0});
    }
    while (count != 0) {
        if (terms == kIfmaMacBudget) {
            // Fold each sum into its lo lane, a reduced seed.
            for (size_t c = 0; c < sums; ++c) {
                uint64_t* lo = acc + 2 * c * n;
                reduceSums(&lo, lo, 1, n, red);
                std::fill_n(lo + n, n, uint64_t{0});
            }
            terms = 0;
        }
        const size_t m = std::min<size_t>(count, kIfmaMacBudget - terms);
        switch (sums) {
        case 2:
            macRowsIfma<2>(acc, rows, keys, sums, m, n);
            break;
        case 4:
            macRowsIfma<4>(acc, rows, keys, sums, m, n);
            break;
        default:
            for (size_t c = 0; c < sums; ++c) {
                macRowsIfma<1>(acc + 2 * c * n, rows, keys + c, sums, m, n);
            }
        }
        terms += m;
        count -= m;
        rows += m * n;
        keys += m * sums;
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
    reduceSums(dst, acc, sums, n, red);
}

void
liftNttRowsAvx512Ifma(uint64_t* rows, const int64_t* digits,
                      size_t count, const NttTablesView& t)
{
    const size_t n = t.n;
    const uint64_t q = t.q;
    const __m512i qv = splat(q);
    const __m512i negQv = negQ52(q);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i mask52 = splat(kMask52);
    // lane[i] holds coefficient i of the group's rows, row k in lane k.
    __m512i lane[kIfmaRowLanesMaxN];
    for (size_t g = 0; g < count; g += 8) {
        const size_t m = std::min<size_t>(8, count - g);
        const int64_t* src = digits + g * n;
        uint64_t* dst = rows + g * n;
        // Transpose in, lift to [0, q) and twist (lazily, < 2q). A
        // short group repeats its last row in the spare lanes.
        for (size_t i = 0; i < n; i += 8) {
            __m512i r[8];
            for (size_t k = 0; k < 8; ++k) {
                r[k] = _mm512_loadu_si512(src + std::min(k, m - 1) * n + i);
            }
            transpose8x8(r);
            for (size_t k = 0; k < 8; ++k) {
                const __mmask8 neg = _mm512_cmplt_epi64_mask(r[k], zero);
                const __m512i v = _mm512_mask_add_epi64(r[k], neg, r[k], qv);
                lane[i + k] = shoupLazy52V(v, splat(t.psi[i + k]),
                                           splat(t.psi52[i + k]), negQv,
                                           zero, mask52);
            }
        }
        // DIF stages as vertical butterflies: one broadcast twiddle
        // serves every butterfly of its column, 8 rows each. Stage
        // inputs are < bound * q. The sum u + v is reduced (by
        // bound * q) only when leaving it would let the next stage's
        // u - v + 2 * bound * q reach 2^52, the multiplier width; for
        // small q no stage reduces it. The product half is < 2q.
        uint64_t bound = 2;
        for (size_t len = n / 2; len >= 1; len >>= 1) {
            const __m512i boundQ = splat(bound * q);
            const bool reduceSum = (4 * bound * q) >> 52 != 0;
            for (size_t j = 0; j < len; ++j) {
                const __m512i w = splat(t.tw[len + j]);
                const __m512i w52 = splat(t.tw52[len + j]);
                for (size_t x = j; x < n; x += 2 * len) {
                    const __m512i u = lane[x];
                    const __m512i v = lane[x + len];
                    const __m512i sum = _mm512_add_epi64(u, v);
                    lane[x] = reduceSum ? condSubV(sum, boundQ) : sum;
                    lane[x + len] = shoupLazy52V(
                        _mm512_add_epi64(_mm512_sub_epi64(u, v), boundQ),
                        w, w52, negQv, zero, mask52);
                }
            }
            bound = reduceSum ? bound : 2 * bound;
        }
        // Normalize to [0, q) (a Shoup product by 1 first when the
        // sums grew past 2q) and transpose back into the rows.
        const __m512i one52 = splat(shoupPrecompute52(1, q));
        const __m512i one = splat(1);
        for (size_t i = 0; i < n; i += 8) {
            __m512i r[8];
            for (size_t k = 0; k < 8; ++k) {
                const __m512i v =
                    bound > 2 ? shoupLazy52V(lane[i + k], one, one52, negQv,
                                             zero, mask52)
                              : lane[i + k];
                r[k] = condSubV(v, qv);
            }
            transpose8x8(r);
            for (size_t k = 0; k < m; ++k) {
                _mm512_storeu_si512(dst + k * n + i, r[k]);
            }
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
    const __m512i negQv = negQ52(q);
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
            a + i, shoupLazy52V(x, w, w52, negQv, zero, mask52));
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
                    shoupLazy52V(diff, w, w52, negQv, zero, mask52));
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
        permute(dup4, _mm512_loadu_si512(t.tw + 4));
    const __m512i w4x = permute(
        dup4, _mm512_loadu_si512(t.tw52 + 4));
    const __m512i w2 =
        permute(dup2, _mm512_loadu_si512(t.tw + 2));
    const __m512i w2x = permute(
        dup2, _mm512_loadu_si512(t.tw52 + 2));
    const __m512i w1 =
        _mm512_set1_epi64(static_cast<int64_t>(t.tw[1]));
    const __m512i w1x =
        _mm512_set1_epi64(static_cast<int64_t>(t.tw52[1]));
    for (size_t i = 0; i < n; i += 8) {
        __m512i z = _mm512_loadu_si512(a + i);
        z = fwdStageSmallV(z, dup4, vIdx4, 0xF0, w4, w4x, negQv, twoQv,
                           zero, mask52);
        z = fwdStageSmallV(z, uIdx2, vIdx2, 0xCC, w2, w2x, negQv, twoQv,
                           zero, mask52);
        z = fwdStageSmallV(z, uIdx1, vIdx1, 0xAA, w1, w1x, negQv, twoQv,
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
    const __m512i negQv = negQ52(q);
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
        permute(dup4, _mm512_loadu_si512(t.itw + 4));
    const __m512i w4x = permute(
        dup4, _mm512_loadu_si512(t.itw52 + 4));
    const __m512i w2 =
        permute(dup2, _mm512_loadu_si512(t.itw + 2));
    const __m512i w2x = permute(
        dup2, _mm512_loadu_si512(t.itw52 + 2));
    const __m512i w1 =
        _mm512_set1_epi64(static_cast<int64_t>(t.itw[1]));
    const __m512i w1x =
        _mm512_set1_epi64(static_cast<int64_t>(t.itw52[1]));
    for (size_t i = 0; i < n; i += 8) {
        __m512i z = _mm512_loadu_si512(a + i);
        z = invStageSmallV(z, uIdx1, vIdx1, 0xAA, w1, w1x, negQv, twoQv,
                           zero, mask52);
        z = invStageSmallV(z, uIdx2, vIdx2, 0xCC, w2, w2x, negQv, twoQv,
                           zero, mask52);
        z = invStageSmallV(z, dup4, vIdx4, 0xF0, w4, w4x, negQv, twoQv,
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
                                 negQv, zero, mask52);
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
            condSubV(shoupLazy52V(x, w, w52, negQv, zero, mask52), qv));
    }
}

} // namespace detail
} // namespace heap::math

#endif // HEAP_HAVE_AVX512IFMA && x86
