/**
 * @file
 * Flat, batch-oriented modular kernels with runtime SIMD dispatch.
 *
 * These are the software mirror of the paper's fused modular
 * multiply + Barrett units feeding the radix-2 NTT datapath (Sections
 * IV-A, IV-D): every kernel is a branch-light loop over a contiguous
 * array — one RnsPoly limb of the limb-major layout — with all
 * per-modulus constants hoisted out of the loop.
 *
 * One body per loop, compiled per ISA (DESIGN.md "Flat kernels"): the
 * elementwise kernels (add, sub, neg, lift) and the gadget digit split
 * are written once, in math/kernels_portable.h, and each table's file
 * compiles its own copy under its own -m flags. Hand-written
 * intrinsics remain only where BM_Elementwise and the NTT/gadget
 * benches (bench/micro_kernels) measure them faster than the level
 * below: the NTTs, the AVX-512 Shoup scalar pair, and the AVX-512
 * IFMA row-lane and MAC kernels.
 *
 * Reduction discipline (see DESIGN.md "Limb-major math core"):
 *  - all kernel *inputs and outputs* are fully reduced to [0, q);
 *  - *inside* the NTT kernels values are kept lazily reduced —
 *    < 2q across the forward (Gentleman-Sande) stages and < 4q across
 *    the inverse (Cooley-Tukey) stages, exploiting the q < 2^62
 *    headroom guaranteed by modarith.h — and normalized exactly once
 *    in the final twist pass;
 *  - the gadget product's digit transform (liftNttRows) takes a group
 *    of digit rows per call, so a variant may transform rows side by
 *    side: the AVX-512 IFMA body puts 8 rows in the 8 lanes of each
 *    vector (DESIGN.md "Row-lane gadget core");
 *  - the gadget-product multiply-accumulate (macLazy/macReduce) keeps
 *    unreduced sums between calls, in a layout each variant owns, and
 *    reduces them exactly: its canonical outputs do not depend on the
 *    variant or on where its budget forced a mid-loop reduction;
 *  - every variant (scalar / AVX2 / AVX-512, whose table takes the
 *    IFMA NTT and MAC bodies when the CPU has avx512ifma / NEON)
 *    produces byte-identical output, MAC and digits included;
 *    tests/simd_equivalence_test.cc enforces this.
 *
 * Use kernels() for the process-wide dispatched table (selected once
 * via math/simd.h) or kernelsForLevel() to pin a specific variant
 * (benchmarks and equivalence tests).
 */

#ifndef HEAP_MATH_KERNELS_H
#define HEAP_MATH_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "math/modarith.h"
#include "math/simd.h"

namespace heap::math {

/**
 * Borrowed view of one modulus' NTT tables (owned by NttTables):
 * stage-flattened twiddles with Shoup companions plus the negacyclic
 * twist vectors. All pointers reference arrays of length n except
 * where noted.
 */
struct NttTablesView {
    size_t n = 0;
    uint64_t q = 0;
    const uint64_t* tw = nullptr;      ///< tw[len + j], forward twiddles
    const uint64_t* twShoup = nullptr;
    const uint64_t* itw = nullptr;     ///< inverse twiddles
    const uint64_t* itwShoup = nullptr;
    const uint64_t* psi = nullptr;     ///< psi^i twist
    const uint64_t* psiShoup = nullptr;
    const uint64_t* ipsiScaled = nullptr; ///< psi^{-i} * n^{-1}
    const uint64_t* ipsiScaledShoup = nullptr;
    // 52-bit Shoup companions (shoupPrecompute52) for the AVX-512 IFMA
    // path; only populated when q < 2^kIfmaMaxModulusBits, nullptr
    // otherwise. The twiddle values themselves are shared with the
    // 64-bit path above.
    const uint64_t* tw52 = nullptr;
    const uint64_t* itw52 = nullptr;
    const uint64_t* psi52 = nullptr;
    const uint64_t* ipsiScaled52 = nullptr;
};

/**
 * Dispatch table of flat kernels. All array arguments may alias only
 * as dst == a (in-place); n is the element count. Unless stated, all
 * inputs are in [0, q) and outputs are returned in [0, q).
 */
struct KernelOps {
    SimdLevel level = SimdLevel::Scalar;

    /** In-place forward negacyclic NTT, natural -> bit-reversed. */
    void (*nttForward)(uint64_t* a, const NttTablesView& t);
    /** In-place inverse negacyclic NTT, bit-reversed -> natural. */
    void (*nttInverse)(uint64_t* a, const NttTablesView& t);

    /** dst[i] = a[i] * b[i] mod q (full Barrett reduction). */
    void (*mulMod)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   size_t n, const BarrettReducer& red);
    /** dst[i] = (dst[i] + a[i] * b[i]) mod q. */
    void (*mulModAccum)(uint64_t* dst, const uint64_t* a,
                        const uint64_t* b, size_t n,
                        const BarrettReducer& red);
    /** dst[i] = (a[i] + b[i]) mod q. */
    void (*addMod)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   size_t n, uint64_t q);
    /** dst[i] = (a[i] - b[i]) mod q. */
    void (*subMod)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   size_t n, uint64_t q);
    /** dst[i] = (-a[i]) mod q. */
    void (*negMod)(uint64_t* dst, const uint64_t* a, size_t n,
                   uint64_t q);
    /** dst[i] = a[i] * w mod q via the Shoup companion ws. @pre w < q. */
    void (*mulScalarShoup)(uint64_t* dst, const uint64_t* a, uint64_t w,
                           uint64_t ws, size_t n, uint64_t q);
    /** dst[i] = (dst[i] + a[i] * w) mod q. @pre w < q. */
    void (*mulScalarShoupAccum)(uint64_t* dst, const uint64_t* a,
                                uint64_t w, uint64_t ws, size_t n,
                                uint64_t q);
    /**
     * Lifts signed digits into [0, q): dst[i] = a[i] mod q.
     * @pre |a[i]| < q (gadget digits, |digit| <= B/2 < q).
     */
    void (*liftSigned)(uint64_t* dst, const int64_t* a, size_t n,
                       uint64_t q);
    /**
     * The gadget digit split of one limb (rlwe/gadget.cc): writes
     * `digits` rows of base-B digits of src, B = 2^baseBits, row j at
     * dst[j * n, +n), so that sum_j row_j[t] * B^j = src[t] (mod q).
     * Unsigned digits are in [0, B); balanced ones, taken from the
     * centered representative of src[t], are in [-B/2, B/2], a tie at
     * +-B/2 resolved as a truncating v % B resolves it, and the top row
     * keeps the final quotient.
     * @pre src[t] < q; 1 <= baseBits <= 32; digits * baseBits covers
     *      q's bits; dst does not overlap src.
     */
    void (*splitDigits)(int64_t* dst, const uint64_t* src, size_t n,
                        uint64_t q, int baseBits, int digits,
                        bool balanced);
    /**
     * The gadget product's digit transform (rlwe/gadget.cc): lifts
     * `count` signed digit rows, row r at digits[r * t.n, +t.n), into
     * [0, q) and forward-NTTs each into rows[r * t.n, +t.n), the
     * row-major layout macLazy reads. Equal word for word to
     * liftSigned then nttForward on every row; the AVX-512 IFMA body
     * transforms 8 rows at once, one per 64-bit lane (DESIGN.md,
     * "Row-lane gadget core").
     * @pre |digits[i]| < t.q; rows and digits do not overlap.
     */
    void (*liftNttRows)(uint64_t* rows, const int64_t* digits,
                        size_t count, const NttTablesView& t);
    /**
     * The gadget product's multiply-accumulate (rlwe/gadget.cc): adds
     * rows[r * n + t] * keys[r * sums + c][t] into lazy sum c, for
     * r < count, c < sums and t < n. The sums live in acc, 2 * sums * n
     * words laid out by the variant (per q: a variant hands moduli it
     * cannot take to the scalar body), so only macLazy and macReduce
     * read them. `terms` counts the rows added since the sums were last
     * reduced: 0 starts empty sums, and whenever it reaches the
     * variant's budget for q the sums are reduced in place before the
     * next row is added.
     * @pre rows[i] < q and keys[j][t] < q.
     */
    void (*macLazy)(uint64_t* acc, uint64_t& terms, const uint64_t* rows,
                    const uint64_t* const* keys, size_t count,
                    size_t sums, size_t n, const BarrettReducer& red);
    /** dst[c][t] = lazy sum c at t mod q, for the sums of macLazy. */
    void (*macReduce)(uint64_t* const* dst, const uint64_t* acc,
                      size_t sums, size_t n, const BarrettReducer& red);
};

/** The process-wide table, selected once per activeSimdLevel(). */
const KernelOps& kernels();

/**
 * The table for a specific level; falls back to Scalar when the
 * requested variant is not compiled in or not runnable on this host.
 */
const KernelOps& kernelsForLevel(SimdLevel level);

/** Portable scalar table (always available; the dispatch fallback). */
const KernelOps& scalarKernels();

namespace detail {

/** Portable lazy-reduction NTT bodies (small-size fallback for the
 *  SIMD variants; byte-identical to the dispatched output). */
void nttForwardScalarLazy(uint64_t* a, const NttTablesView& t);
void nttInverseScalarLazy(uint64_t* a, const NttTablesView& t);

/** Portable 128-bit MAC bodies (the fallback of the SIMD variants
 *  for moduli they cannot take; see KernelOps::macLazy). */
void macLazyScalar(uint64_t* acc, uint64_t& terms, const uint64_t* rows,
                   const uint64_t* const* keys, size_t count, size_t sums,
                   size_t n, const BarrettReducer& red);
void macReduceScalar(uint64_t* const* dst, const uint64_t* acc,
                     size_t sums, size_t n, const BarrettReducer& red);

/** KernelOps::liftNttRows as one Lift and one Ntt call per row: the
 *  body of every variant without a row-lane transform. */
template <void (*Lift)(uint64_t*, const int64_t*, size_t, uint64_t),
          void (*Ntt)(uint64_t*, const NttTablesView&)>
void
liftNttRowsPerRow(uint64_t* rows, const int64_t* digits, size_t count,
                  const NttTablesView& t)
{
    for (size_t r = 0; r < count; ++r) {
        Lift(rows + r * t.n, digits + r * t.n, t.n, t.q);
        Ntt(rows + r * t.n, t);
    }
}

} // namespace detail

#if defined(HEAP_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
namespace detail {
/** Fills `ops` with the AVX2 variants (defined in kernels_avx2.cc). */
void installAvx2Kernels(KernelOps& ops);
} // namespace detail
#endif

#if defined(HEAP_HAVE_AVX512) && (defined(__x86_64__) || defined(__i386__))
namespace detail {
/** Fills `ops` with the AVX-512 variants (kernels_avx512.cc). */
void installAvx512Kernels(KernelOps& ops);
} // namespace detail
#endif

#if defined(HEAP_HAVE_AVX512IFMA) && (defined(__x86_64__) || defined(__i386__))
namespace detail {
/**
 * AVX-512 IFMA NTT bodies (kernels_avx512ifma.cc): 52x52-bit fused
 * multiply butterflies, usable only when the tables carry 52-bit
 * Shoup companions (q < 2^kIfmaMaxModulusBits). The AVX-512 kernels
 * branch into these per call after an avx512ifma cpuid check.
 */
void nttForwardAvx512Ifma(uint64_t* a, const NttTablesView& t);
void nttInverseAvx512Ifma(uint64_t* a, const NttTablesView& t);
/**
 * Largest n the row-lane transform takes: its 8 lanes of n words
 * (32 KB at this n) live on the stack and must stay in L1. Measured
 * per row against per-row IFMA NTTs (bench/micro_kernels,
 * BM_LiftNttRows vs BM_LiftNttPerRow), lanes win up to n = 512 and
 * lose at n = 1024, where the lanes spill out of L1.
 */
inline constexpr size_t kIfmaRowLanesMaxN = 512;
/**
 * Row-lane liftNttRows for the IFMA tables (same preconditions as
 * nttForwardAvx512Ifma, plus 8 <= n <= kIfmaRowLanesMaxN): each group
 * of <= 8 rows is transposed so lane k holds row k, lifted, run
 * through vertical butterflies that share one broadcast twiddle, and
 * transposed back.
 */
void liftNttRowsAvx512Ifma(uint64_t* rows, const int64_t* digits,
                           size_t count, const NttTablesView& t);
/**
 * IFMA MAC bodies: each sum is a lo and a hi 64-bit lane per
 * coefficient, lo += low52(x * k) and hi += high52(x * k), so the
 * value is lo + hi * 2^52 (exact for q < 2^kIfmaMacModulusBits; other
 * moduli and n % 8 != 0 run the scalar body). The AVX-512 table
 * installs them after the same avx512ifma cpuid check.
 */
void macLazyAvx512Ifma(uint64_t* acc, uint64_t& terms,
                       const uint64_t* rows, const uint64_t* const* keys,
                       size_t count, size_t sums, size_t n,
                       const BarrettReducer& red);
void macReduceAvx512Ifma(uint64_t* const* dst, const uint64_t* acc,
                         size_t sums, size_t n,
                         const BarrettReducer& red);
} // namespace detail
#endif

#if defined(HEAP_HAVE_NEON) && defined(__aarch64__)
namespace detail {
/** Fills `ops` with the NEON variants (defined in kernels_neon.cc). */
void installNeonKernels(KernelOps& ops);
} // namespace detail
#endif

} // namespace heap::math

#endif // HEAP_MATH_KERNELS_H
