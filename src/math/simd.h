/**
 * @file
 * Runtime SIMD dispatch for the math kernels.
 *
 * The flat kernels in math/kernels.h come in up to four variants:
 * a portable scalar implementation, AVX2 and AVX-512 implementations
 * (x86-64; the AVX-512 table takes IFMA NTT and MAC bodies when the
 * CPU has avx512ifma), and a NEON implementation (aarch64). The
 * variant is chosen exactly once per process, mirroring how the paper
 * fixes the datapath width at synthesis time (Section IV-A): there is
 * no per-call branching in the hot loops, only a single
 * function-pointer table selected at startup.
 *
 * The environment variable HEAP_FORCE_SCALAR=1 forces the portable
 * scalar fallback regardless of hardware support — used by the `simd`
 * ctest label to validate the fallback path on SIMD-capable hosts.
 * All variants are byte-identical by construction and asserted so in
 * tests/simd_equivalence_test.cc.
 */

#ifndef HEAP_MATH_SIMD_H
#define HEAP_MATH_SIMD_H

namespace heap::math {

/** Instruction-set level a kernel variant is implemented against. */
enum class SimdLevel {
    Scalar, ///< portable lazy-reduction scalar kernels
    Avx2,   ///< x86-64 AVX2 (256-bit) kernels
    Avx512, ///< x86-64 AVX-512F/DQ/VL (512-bit, native 64-bit mullo)
    Neon,   ///< aarch64 NEON (128-bit) kernels
};

/** Human-readable name ("scalar", "avx2", "avx512", "neon"). */
const char* simdLevelName(SimdLevel level);

/**
 * The level selected for this process: the widest supported variant
 * compiled into the library, unless HEAP_FORCE_SCALAR=1 is set in the
 * environment. Computed once and cached.
 */
SimdLevel activeSimdLevel();

namespace detail {

/** Re-runs detection (re-reading the environment). Test-only. */
SimdLevel detectSimdLevel();

} // namespace detail

} // namespace heap::math

#endif // HEAP_MATH_SIMD_H
