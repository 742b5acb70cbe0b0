#include "math/kernels.h"

#include <memory>

namespace heap::math {

// ---------------------------------------------------------------------
// Portable scalar kernels. The NTT kernels use lazy reduction: the
// forward (Gentleman-Sande) pass keeps values < 2q, the inverse
// (Cooley-Tukey) pass keeps values < 4q (Harvey's bound), and both
// normalize to [0, q) exactly once in the final twist pass. With
// q < 2^62 (modarith.h) no intermediate can overflow 64 bits.
// ---------------------------------------------------------------------

void
detail::nttForwardScalarLazy(uint64_t* a, const NttTablesView& t)
{
    const size_t n = t.n;
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    // Negacyclic twist: a[i] *= psi^i, lazily (< 2q).
    for (size_t i = 0; i < n; ++i) {
        a[i] = mulModShoupLazy(a[i], t.psi[i], t.psiShoup[i], q);
    }
    // DIF stages; invariant: stage inputs < 2q.
    for (size_t len = n / 2; len >= 1; len >>= 1) {
        const uint64_t* w = t.tw + len;
        const uint64_t* ws = t.twShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; ++j) {
                const uint64_t u = x[j];
                const uint64_t v = y[j];
                uint64_t sum = u + v; // < 4q
                if (sum >= twoQ) {
                    sum -= twoQ;
                }
                x[j] = sum; // < 2q
                // u - v + 2q in (0, 4q); lazy Shoup brings it < 2q.
                y[j] = mulModShoupLazy(u - v + twoQ, w[j], ws[j], q);
            }
        }
    }
    // Single final normalization to [0, q).
    for (size_t i = 0; i < n; ++i) {
        const uint64_t x = a[i];
        a[i] = x >= q ? x - q : x;
    }
}

void
detail::nttInverseScalarLazy(uint64_t* a, const NttTablesView& t)
{
    const size_t n = t.n;
    const uint64_t q = t.q;
    const uint64_t twoQ = 2 * q;
    // DIT stages; invariant (Harvey): stage inputs < 4q.
    for (size_t len = 1; len <= n / 2; len <<= 1) {
        const uint64_t* w = t.itw + len;
        const uint64_t* ws = t.itwShoup + len;
        for (size_t start = 0; start < n; start += 2 * len) {
            uint64_t* x = a + start;
            uint64_t* y = a + start + len;
            for (size_t j = 0; j < len; ++j) {
                uint64_t u = x[j];
                if (u >= twoQ) {
                    u -= twoQ; // < 2q
                }
                const uint64_t v =
                    mulModShoupLazy(y[j], w[j], ws[j], q); // < 2q
                x[j] = u + v;            // < 4q
                y[j] = u - v + twoQ;     // < 4q
            }
        }
    }
    // Untwist + scale by n^{-1}; lazy product < 2q, then normalize.
    for (size_t i = 0; i < n; ++i) {
        const uint64_t x = mulModShoupLazy(a[i], t.ipsiScaled[i],
                                           t.ipsiScaledShoup[i], q);
        a[i] = x >= q ? x - q : x;
    }
}

namespace {

/** Sum c += row * keys[c], 128 bits per coefficient; Sums is a
 *  constant so the c loop unrolls to one mulq/add/adc per sum. */
template <size_t Sums>
void
macRowScalar(uint128* sum, const uint64_t* row,
             const uint64_t* const* keys, size_t n)
{
    for (size_t t = 0; t < n; ++t) {
        const uint128 x = row[t];
        for (size_t c = 0; c < Sums; ++c) {
            sum[c * n + t] += x * keys[c][t];
        }
    }
}

} // namespace

// The scalar sums are uint128, sum c at words [2cn, 2cn + 2n). A
// product is below q^2 and a reduced sum below q, so m products on top
// of a reduced sum stay below q * 2^64, the reducer's domain, while
// m * q < 2^64: the budget is floor((2^64 - 1) / q), tested without a
// divide.
void
detail::macLazyScalar(uint64_t* acc, uint64_t& terms, const uint64_t* rows,
                      const uint64_t* const* keys, size_t count,
                      size_t sums, size_t n, const BarrettReducer& red)
{
    auto* sum = reinterpret_cast<uint128*>(acc);
    if (terms == 0) {
        std::uninitialized_fill_n(sum, sums * n, uint128{0});
    }
    for (size_t r = 0; r < count; ++r, rows += n, keys += sums) {
        if ((static_cast<uint128>(terms + 1) * red.modulus()) >> 64) {
            for (size_t i = 0; i < sums * n; ++i) {
                sum[i] = red.reduce(sum[i]);
            }
            terms = 0;
        }
        ++terms;
        switch (sums) {
        case 2:
            macRowScalar<2>(sum, rows, keys, n);
            break;
        case 4:
            macRowScalar<4>(sum, rows, keys, n);
            break;
        default:
            for (size_t c = 0; c < sums; ++c) {
                macRowScalar<1>(sum + c * n, rows, keys + c, n);
            }
        }
    }
}

void
detail::macReduceScalar(uint64_t* const* dst, const uint64_t* acc,
                        size_t sums, size_t n, const BarrettReducer& red)
{
    const auto* sum = reinterpret_cast<const uint128*>(acc);
    for (size_t c = 0; c < sums; ++c) {
        for (size_t t = 0; t < n; ++t) {
            dst[c][t] = red.reduce(sum[c * n + t]);
        }
    }
}

namespace {

void
mulModScalar(uint64_t* dst, const uint64_t* a, const uint64_t* b,
             size_t n, const BarrettReducer& red)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = red.mulMod(a[i], b[i]);
    }
}

void
mulModAccumScalar(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                  size_t n, const BarrettReducer& red)
{
    const uint64_t q = red.modulus();
    for (size_t i = 0; i < n; ++i) {
        dst[i] = addMod(dst[i], red.mulMod(a[i], b[i]), q);
    }
}

void
addModScalar(uint64_t* dst, const uint64_t* a, const uint64_t* b,
             size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = addMod(a[i], b[i], q);
    }
}

void
subModScalar(uint64_t* dst, const uint64_t* a, const uint64_t* b,
             size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = subMod(a[i], b[i], q);
    }
}

void
negModScalar(uint64_t* dst, const uint64_t* a, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = negMod(a[i], q);
    }
}

void
mulScalarShoupScalar(uint64_t* dst, const uint64_t* a, uint64_t w,
                     uint64_t ws, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = mulModShoup(a[i], w, ws, q);
    }
}

void
mulScalarShoupAccumScalar(uint64_t* dst, const uint64_t* a, uint64_t w,
                          uint64_t ws, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = addMod(dst[i], mulModShoup(a[i], w, ws, q), q);
    }
}

void
liftSignedScalar(uint64_t* dst, const int64_t* a, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        const int64_t v = a[i];
        // Branchless fromCentered for |v| < q: add q iff v < 0.
        dst[i] = static_cast<uint64_t>(v)
                 + (q & static_cast<uint64_t>(v >> 63));
    }
}

KernelOps
makeScalarOps()
{
    KernelOps ops;
    ops.level = SimdLevel::Scalar;
    ops.nttForward = &detail::nttForwardScalarLazy;
    ops.nttInverse = &detail::nttInverseScalarLazy;
    ops.mulMod = &mulModScalar;
    ops.mulModAccum = &mulModAccumScalar;
    ops.addMod = &addModScalar;
    ops.subMod = &subModScalar;
    ops.negMod = &negModScalar;
    ops.mulScalarShoup = &mulScalarShoupScalar;
    ops.mulScalarShoupAccum = &mulScalarShoupAccumScalar;
    ops.liftSigned = &liftSignedScalar;
    ops.liftNttRows =
        &detail::liftNttRowsPerRow<&liftSignedScalar,
                                   &detail::nttForwardScalarLazy>;
    ops.macLazy = &detail::macLazyScalar;
    ops.macReduce = &detail::macReduceScalar;
    return ops;
}

KernelOps
makeOpsForLevel(SimdLevel level)
{
    KernelOps ops = makeScalarOps();
    switch (level) {
    case SimdLevel::Avx512:
#if defined(HEAP_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
        if (__builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512dq")
            && __builtin_cpu_supports("avx512vl")) {
            detail::installAvx512Kernels(ops);
            ops.level = SimdLevel::Avx512;
            break;
        }
#endif
        // Host can't run AVX-512: degrade to the AVX2 table.
        [[fallthrough]];
    case SimdLevel::Avx2:
#if defined(HEAP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
        if (__builtin_cpu_supports("avx2")) {
            detail::installAvx2Kernels(ops);
            ops.level = SimdLevel::Avx2;
        }
#endif
        break;
    case SimdLevel::Neon:
#if defined(HEAP_HAVE_NEON) && defined(__aarch64__)
        detail::installNeonKernels(ops);
        ops.level = SimdLevel::Neon;
#endif
        break;
    case SimdLevel::Scalar:
        break;
    }
    return ops;
}

} // namespace

const KernelOps&
scalarKernels()
{
    static const KernelOps ops = makeScalarOps();
    return ops;
}

const KernelOps&
kernelsForLevel(SimdLevel level)
{
    static const KernelOps avx2 = makeOpsForLevel(SimdLevel::Avx2);
    static const KernelOps avx512 = makeOpsForLevel(SimdLevel::Avx512);
    static const KernelOps neon = makeOpsForLevel(SimdLevel::Neon);
    switch (level) {
    case SimdLevel::Avx2:
        return avx2;
    case SimdLevel::Avx512:
        return avx512;
    case SimdLevel::Neon:
        return neon;
    case SimdLevel::Scalar:
        break;
    }
    return scalarKernels();
}

const KernelOps&
kernels()
{
    static const KernelOps& ops = kernelsForLevel(activeSimdLevel());
    return ops;
}

} // namespace heap::math
