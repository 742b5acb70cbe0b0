/**
 * @file
 * The one body of each elementwise kernel and of the gadget digit
 * split: plain loops, written once. kernels.cc, kernels_avx2.cc and
 * kernels_avx512.cc each include this file inside an unnamed
 * namespace, so every file compiles its own copy under its own -m
 * flags and installs that copy in its KernelOps table; the compiler
 * vectorizes the loops for the file's ISA. Hand-written intrinsics
 * stay only where they measure faster than these loops
 * (BM_Elementwise in bench/micro_kernels; DESIGN.md, "Flat kernels").
 *
 * Internal linkage keeps the copies apart. A function with external
 * linkage, inline ones included, may be emitted by several files and
 * the linker keeps one body, which could put AVX-512 code in the
 * scalar table. So the loops spell out their arithmetic instead of
 * calling modarith.h's inline helpers, and simd_fallback_test checks
 * that every level's pointers differ from the scalar table's.
 *
 * @pre included inside an unnamed namespace in heap::math, after
 *      math/kernels.h; not a public header.
 */

#ifndef HEAP_MATH_KERNELS_PORTABLE_H
#define HEAP_MATH_KERNELS_PORTABLE_H

/** KernelOps::addMod. */
void
addModLoop(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n,
           uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        const uint64_t s = a[i] + b[i];
        dst[i] = s >= q ? s - q : s;
    }
}

/** KernelOps::subMod: of d = a - b (wrapping below 0) and d + q,
 *  the smaller is the one in [0, q). Written as a min, it compiles
 *  branch-free at every level; a conditional subtract compiled to a
 *  branch in the scalar copy, which random operands mispredict. */
void
subModLoop(uint64_t* dst, const uint64_t* a, const uint64_t* b, size_t n,
           uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        const uint64_t d = a[i] - b[i];
        const uint64_t r = d + q;
        dst[i] = r < d ? r : d;
    }
}

/** KernelOps::negMod. */
void
negModLoop(uint64_t* dst, const uint64_t* a, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        dst[i] = a[i] == 0 ? 0 : q - a[i];
    }
}

/** KernelOps::liftSigned: adds q where the sign bit is set. */
void
liftSignedLoop(uint64_t* dst, const int64_t* a, size_t n, uint64_t q)
{
    for (size_t i = 0; i < n; ++i) {
        const int64_t v = a[i];
        dst[i] = static_cast<uint64_t>(v)
                 + (q & static_cast<uint64_t>(v >> 63));
    }
}

/**
 * KernelOps::splitDigits. Unsigned digits are the base-B words of the
 * residue. Balanced digits in [-B/2, B/2] come from the centered
 * representative v by carry propagation, without a divide: the digit
 * is r = v mod B (the low bits) less B when r > B/2, or when r = B/2
 * and v < 0 (the tie rule of a truncating v % B), and the top row
 * absorbs the final quotient. Each pass runs across all n
 * coefficients, the top row carrying v, so every pass vectorizes.
 */
void
splitDigitsLoop(int64_t* dst, const uint64_t* src, size_t n, uint64_t q,
                int baseBits, int digits, bool balanced)
{
    const uint64_t mask = (uint64_t{1} << baseBits) - 1;
    if (!balanced) {
        for (int j = 0; j < digits; ++j) {
            int64_t* row = dst + static_cast<size_t>(j) * n;
            const int shift = j * baseBits;
            for (size_t t = 0; t < n; ++t) {
                row[t] = shift < 64
                             ? static_cast<int64_t>((src[t] >> shift) & mask)
                             : 0;
            }
        }
        return;
    }
    const uint64_t half = uint64_t{1} << (baseBits - 1);
    const int64_t base = int64_t{1} << baseBits;
    int64_t* top = dst + static_cast<size_t>(digits - 1) * n;
    const uint64_t upper = (q + 1) / 2;
    for (size_t t = 0; t < n; ++t) {
        top[t] = static_cast<int64_t>(src[t])
                 - (src[t] >= upper ? static_cast<int64_t>(q) : 0);
    }
    for (int j = 0; j + 1 < digits; ++j) {
        int64_t* row = dst + static_cast<size_t>(j) * n;
        for (size_t t = 0; t < n; ++t) {
            const int64_t v = top[t];
            const uint64_t r = static_cast<uint64_t>(v) & mask;
            const bool up = r > half || (r == half && v < 0);
            const int64_t digit = static_cast<int64_t>(r) - (up ? base : 0);
            row[t] = digit;
            top[t] = (v - digit) >> baseBits;
        }
    }
}

/** Installs this file's copies of the loops above in `ops`. */
void
installPortableKernels(KernelOps& ops)
{
    ops.addMod = &addModLoop;
    ops.subMod = &subModLoop;
    ops.negMod = &negModLoop;
    ops.liftSigned = &liftSignedLoop;
    ops.splitDigits = &splitDigitsLoop;
}

#endif // HEAP_MATH_KERNELS_PORTABLE_H
