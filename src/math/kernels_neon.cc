/**
 * @file
 * NEON variants of the flat math kernels (see kernels.h for the
 * reduction-discipline contract). Compiled only on aarch64, where
 * NEON is architecturally guaranteed — no extra compile flags needed.
 *
 * NEON also lacks a 64x64 vector multiply, so only the 2-wide
 * add/sub/neg/lift kernels are vectorized here; the Shoup and NTT
 * paths reuse the scalar lazy-reduction bodies, which the aarch64
 * backend already schedules well (umulh is a single instruction).
 * Output is byte-identical to the scalar table by construction.
 */

#if defined(HEAP_HAVE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include "math/kernels.h"

namespace heap::math {
namespace {

void
addModNeon(uint64_t* dst, const uint64_t* a, const uint64_t* b,
           size_t n, uint64_t q)
{
    const uint64x2_t qv = vdupq_n_u64(q);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t s = vaddq_u64(vld1q_u64(a + i),
                                       vld1q_u64(b + i));
        const uint64x2_t ge = vcgeq_u64(s, qv);
        vst1q_u64(dst + i, vsubq_u64(s, vandq_u64(qv, ge)));
    }
    for (; i < n; ++i) {
        dst[i] = addMod(a[i], b[i], q);
    }
}

void
subModNeon(uint64_t* dst, const uint64_t* a, const uint64_t* b,
           size_t n, uint64_t q)
{
    const uint64x2_t qv = vdupq_n_u64(q);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t d = vaddq_u64(
            vsubq_u64(vld1q_u64(a + i), vld1q_u64(b + i)), qv);
        const uint64x2_t ge = vcgeq_u64(d, qv);
        vst1q_u64(dst + i, vsubq_u64(d, vandq_u64(qv, ge)));
    }
    for (; i < n; ++i) {
        dst[i] = subMod(a[i], b[i], q);
    }
}

void
negModNeon(uint64_t* dst, const uint64_t* a, size_t n, uint64_t q)
{
    const uint64x2_t qv = vdupq_n_u64(q);
    const uint64x2_t zero = vdupq_n_u64(0);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t x = vld1q_u64(a + i);
        const uint64x2_t nz = vtstq_u64(x, x); // all-ones iff x != 0
        vst1q_u64(dst + i, vandq_u64(vsubq_u64(qv, x), nz));
        (void)zero;
    }
    for (; i < n; ++i) {
        dst[i] = negMod(a[i], q);
    }
}

void
liftSignedNeon(uint64_t* dst, const int64_t* a, size_t n, uint64_t q)
{
    const int64x2_t qv = vdupq_n_s64(static_cast<int64_t>(q));
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const int64x2_t v = vld1q_s64(a + i);
        // v < 0 ? v + q : v, branchlessly via the sign mask.
        const int64x2_t neg = vshrq_n_s64(v, 63);
        const int64x2_t r = vaddq_s64(
            v, vandq_s64(qv, neg));
        vst1q_s64(reinterpret_cast<int64_t*>(dst + i), r);
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
installNeonKernels(KernelOps& ops)
{
    ops.addMod = &addModNeon;
    ops.subMod = &subModNeon;
    ops.negMod = &negModNeon;
    ops.liftSigned = &liftSignedNeon;
    ops.liftNttRows =
        &detail::liftNttRowsPerRow<&liftSignedNeon,
                                   &detail::nttForwardScalarLazy>;
    // NTT / Shoup / Barrett kernels stay scalar: no 64-bit vector
    // multiply on NEON; scalar umulh already saturates the pipeline.
}

} // namespace detail
} // namespace heap::math

#endif // HEAP_HAVE_NEON && __aarch64__
