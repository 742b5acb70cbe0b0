/**
 * @file
 * Single-limb polynomial operations over Z_q[X]/(X^N + 1).
 *
 * Polynomials are plain coefficient vectors (length N, entries in
 * [0, q)); the functions here are the permutations shared by the RNS
 * layer, the TFHE blind-rotation unit (negacyclic monomial rotations,
 * Section IV-A "Permute Unit") and the CKKS automorphism (Rotate).
 * Elementwise arithmetic is the kernel table's (math/kernels.h).
 */

#ifndef HEAP_MATH_POLY_H
#define HEAP_MATH_POLY_H

#include <cstdint>
#include <span>
#include <vector>

namespace heap::math {

/**
 * Negacyclic monomial multiplication: out = a * X^k mod (X^N + 1).
 * This is the TFHE rotation unit. k is taken mod 2N; X^N = -1.
 */
void polyMonomialMul(std::span<const uint64_t> a, uint64_t k,
                     std::span<uint64_t> out, uint64_t q);

/**
 * Galois automorphism: out(X) = a(X^t) mod (X^N + 1).
 * Coefficient i moves to position (i*t mod 2N), negated when the
 * destination index lands in [N, 2N). @pre t odd.
 */
void polyAutomorphism(std::span<const uint64_t> a, uint64_t t,
                      std::span<uint64_t> out, uint64_t q);

} // namespace heap::math

#endif // HEAP_MATH_POLY_H
