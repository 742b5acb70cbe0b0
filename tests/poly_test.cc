/**
 * @file
 * Tests for single-limb polynomial operations: negacyclic monomial
 * multiplication (the TFHE rotation unit) and the Galois automorphism
 * (the CKKS automorph unit). The elementwise kernels are tested per
 * SIMD level in simd_equivalence_test.cc.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/modarith.h"
#include "math/ntt.h"
#include "math/poly.h"
#include "math/primes.h"

namespace heap::math {
namespace {

constexpr size_t kN = 64;

struct PolyFixture : ::testing::Test {
    uint64_t q = generateNttPrimes(30, kN, 1)[0];
    Rng rng{123};

    std::vector<uint64_t>
    random()
    {
        std::vector<uint64_t> p(kN);
        for (auto& v : p) {
            v = rng.uniform(q);
        }
        return p;
    }
};

TEST_F(PolyFixture, MonomialMulMatchesSchoolbook)
{
    const auto a = random();
    for (uint64_t k : std::initializer_list<uint64_t>{
             0, 1, 5, kN - 1, kN, kN + 3, 2 * kN - 1}) {
        std::vector<uint64_t> viaRot(kN);
        polyMonomialMul(a, k, viaRot, q);
        // Reference: multiply by the monomial X^k with the schoolbook
        // negacyclic convolution (X^{k mod 2N}, sign via X^N = -1).
        std::vector<uint64_t> mono(kN, 0);
        const uint64_t kk = k % (2 * kN);
        if (kk < kN) {
            mono[kk] = 1;
        } else {
            mono[kk - kN] = q - 1;
        }
        const auto expected = negacyclicConvolveSchoolbook(a, mono, q);
        EXPECT_EQ(viaRot, expected) << "k=" << k;
    }
}

TEST_F(PolyFixture, MonomialMulFullPeriod)
{
    // Rotating by 2N must be the identity; by N, negation.
    const auto a = random();
    std::vector<uint64_t> byN(kN), by2N(kN), neg(kN);
    polyMonomialMul(a, kN, byN, q);
    polyMonomialMul(a, 2 * kN, by2N, q);
    for (size_t i = 0; i < kN; ++i) {
        neg[i] = negMod(a[i], q);
    }
    EXPECT_EQ(byN, neg);
    EXPECT_EQ(by2N, a);
}

TEST_F(PolyFixture, AutomorphismEvaluationProperty)
{
    // (sigma_t a)(X) = a(X^t): check via evaluation at a 2N-th root of
    // unity in Z_q. a(psi^t) must equal (sigma_t a)(psi).
    const auto a = random();
    const uint64_t psi = minimalPrimitiveRoot2N(q, kN);
    auto evalAt = [&](const std::vector<uint64_t>& p, uint64_t x) {
        uint64_t acc = 0, xp = 1;
        for (size_t i = 0; i < kN; ++i) {
            acc = addMod(acc, mulModNaive(p[i], xp, q), q);
            xp = mulModNaive(xp, x, q);
        }
        return acc;
    };
    for (uint64_t t : std::initializer_list<uint64_t>{3, 5, 2 * kN - 1}) {
        std::vector<uint64_t> sa(kN);
        polyAutomorphism(a, t, sa, q);
        EXPECT_EQ(evalAt(sa, psi), evalAt(a, powMod(psi, t, q)))
            << "t=" << t;
    }
}

TEST_F(PolyFixture, AutomorphismComposition)
{
    // sigma_5(sigma_5(a)) = sigma_25(a).
    const auto a = random();
    std::vector<uint64_t> s5(kN), s55(kN), s25(kN);
    polyAutomorphism(a, 5, s5, q);
    polyAutomorphism(s5, 5, s55, q);
    polyAutomorphism(a, 25 % (2 * kN), s25, q);
    EXPECT_EQ(s55, s25);
}

TEST_F(PolyFixture, AutomorphismRejectsEvenExponent)
{
    const auto a = random();
    std::vector<uint64_t> out(kN);
    EXPECT_THROW(polyAutomorphism(a, 4, out, q), UserError);
}

} // namespace
} // namespace heap::math
