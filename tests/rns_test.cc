/**
 * @file
 * RNS layer tests: basis construction, domain conversions, ring
 * arithmetic across limbs, rescaling (division by the dropped prime),
 * embedding of short signed coefficient lists, and centered CRT
 * recomposition.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "math/primes.h"
#include "math/rns.h"
#include "math/sampling.h"

namespace heap::math {
namespace {

constexpr size_t kN = 64;

std::shared_ptr<const RnsBasis>
makeBasis(size_t limbs = 3, int bits = 30)
{
    return std::make_shared<RnsBasis>(
        kN, generateNttPrimes(bits, kN, limbs));
}

TEST(RnsBasis, RejectsBadModuli)
{
    EXPECT_THROW(RnsBasis(kN, {15u}), UserError);           // composite
    EXPECT_THROW(RnsBasis(kN, {1000003u}), UserError);      // not 1 mod 2n
    const auto p = generateNttPrimes(30, kN, 1)[0];
    EXPECT_THROW(RnsBasis(kN, {p, p}), UserError);          // duplicate
    EXPECT_THROW(RnsBasis(kN, {}), UserError);              // empty
}

TEST(RnsBasis, InvModulusIsInverse)
{
    const auto basis = makeBasis(4);
    for (size_t i = 0; i < 4; ++i) {
        for (size_t j = 0; j < 4; ++j) {
            if (i == j) {
                continue;
            }
            const uint64_t qi = basis->modulus(i);
            const uint64_t prod = mulModNaive(
                basis->modulus(j) % qi, basis->invModulus(j, i), qi);
            EXPECT_EQ(prod, 1u);
        }
    }
}

TEST(RnsBasis, LogQAccumulates)
{
    const auto basis = makeBasis(3, 30);
    EXPECT_NEAR(basis->logQ(3), 90.0, 1.0);
    EXPECT_NEAR(basis->logQ(1), 30.0, 0.5);
}

TEST(RnsPoly, EvalCoeffRoundTrip)
{
    const auto basis = makeBasis();
    Rng rng(1);
    auto p = sampleUniformRns(basis, 3, Domain::Coeff, rng);
    std::vector<std::vector<uint64_t>> orig;
    for (size_t i = 0; i < 3; ++i) {
        orig.emplace_back(p.limb(i).begin(), p.limb(i).end());
    }
    p.toEval();
    EXPECT_EQ(p.domain(), Domain::Eval);
    p.toCoeff();
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(std::equal(p.limb(i).begin(), p.limb(i).end(),
                               orig[i].begin()));
    }
}

// Zero is zero in both domains, so toEval/toCoeff of the zero
// polynomial only flip the domain tag; a polynomial whose one nonzero
// word is the last still takes the transform.
TEST(RnsPoly, ZeroTransformsOnlyFlipTheDomain)
{
    const auto basis = makeBasis();
    RnsPoly zero(basis, 3, Domain::Coeff);
    EXPECT_TRUE(zero.isZero());
    zero.toEval();
    EXPECT_EQ(zero.domain(), Domain::Eval);
    EXPECT_TRUE(zero.isZero());
    zero.toCoeff();
    EXPECT_EQ(zero.domain(), Domain::Coeff);
    EXPECT_TRUE(zero.isZero());

    RnsPoly last(basis, 3, Domain::Coeff);
    last.limb(2)[kN - 1] = 1;
    EXPECT_FALSE(last.isZero());
    last.toEval();
    std::vector<uint64_t> oracle(kN, 0);
    oracle[kN - 1] = 1;
    basis->ntt(2).forwardScalar(oracle);
    EXPECT_TRUE(std::equal(oracle.begin(), oracle.end(),
                           last.limb(2).begin()));
    EXPECT_EQ(std::count(last.flat().begin(), last.flat().begin() + 2 * kN,
                         0u),
              static_cast<std::ptrdiff_t>(2 * kN));
    last.toCoeff();
    EXPECT_EQ(last.limb(2)[kN - 1], 1u);
    EXPECT_EQ(std::count(last.flat().begin(), last.flat().end(), 0u),
              static_cast<std::ptrdiff_t>(3 * kN - 1));
}

TEST(RnsPoly, AddSubRoundTrip)
{
    const auto basis = makeBasis();
    Rng rng(2);
    auto a = sampleUniformRns(basis, 3, Domain::Coeff, rng);
    const auto b = sampleUniformRns(basis, 3, Domain::Coeff, rng);
    auto saved = a;
    a.addInPlace(b);
    a.subInPlace(b);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(std::equal(a.limb(i).begin(), a.limb(i).end(),
                               saved.limb(i).begin()));
    }
}

TEST(RnsPoly, MulMatchesPerLimbConvolution)
{
    const auto basis = makeBasis(2);
    Rng rng(3);
    auto a = sampleUniformRns(basis, 2, Domain::Coeff, rng);
    auto b = sampleUniformRns(basis, 2, Domain::Coeff, rng);
    std::vector<std::vector<uint64_t>> expected;
    for (size_t i = 0; i < 2; ++i) {
        expected.push_back(negacyclicConvolveSchoolbook(
            a.limb(i), b.limb(i), basis->modulus(i)));
    }
    a.toEval();
    b.toEval();
    a.mulPointwiseInPlace(b);
    a.toCoeff();
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(std::equal(a.limb(i).begin(), a.limb(i).end(),
                               expected[i].begin()))
            << "limb " << i;
    }
}

TEST(RnsPoly, DomainMismatchThrows)
{
    const auto basis = makeBasis(2);
    Rng rng(4);
    auto a = sampleUniformRns(basis, 2, Domain::Coeff, rng);
    auto b = sampleUniformRns(basis, 2, Domain::Coeff, rng);
    EXPECT_THROW(a.mulPointwiseInPlace(b), UserError);
    b.toEval();
    EXPECT_THROW(a.addInPlace(b), UserError);
}

TEST(RnsPoly, RescaleDividesByDroppedPrime)
{
    // Embed a value divisible by q_last and check the quotient appears.
    const auto basis = makeBasis(3);
    const int64_t qLast = static_cast<int64_t>(basis->modulus(2));
    std::vector<int64_t> coeffs(kN, 0);
    coeffs[0] = 7 * qLast;
    coeffs[1] = -3 * qLast;
    coeffs[5] = qLast;
    auto p = rnsFromSigned(basis, 3, coeffs);
    p.rescaleLastLimb();
    ASSERT_EQ(p.limbCount(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        const uint64_t q = basis->modulus(i);
        EXPECT_EQ(p.limb(i)[0], fromCentered(7, q));
        EXPECT_EQ(p.limb(i)[1], fromCentered(-3, q));
        EXPECT_EQ(p.limb(i)[5], fromCentered(1, q));
        EXPECT_EQ(p.limb(i)[2], 0u);
    }
}

TEST(RnsPoly, FromSignedZeroPadsShortInput)
{
    const auto basis = makeBasis(2);
    const std::vector<int64_t> low{5, -9, 0, 123456789};
    std::vector<int64_t> padded(kN, 0);
    std::copy(low.begin(), low.end(), padded.begin());
    const auto shortPoly = rnsFromSigned(basis, 2, low);
    const auto fullPoly = rnsFromSigned(basis, 2, padded);
    EXPECT_EQ(shortPoly.domain(), Domain::Coeff);
    EXPECT_TRUE(std::ranges::equal(shortPoly.flat(), fullPoly.flat()));
    EXPECT_TRUE(std::ranges::all_of(
        rnsFromSigned(basis, 2, std::vector<int64_t>{}).flat(),
        [](uint64_t w) { return w == 0; }));
    padded.push_back(1);
    EXPECT_THROW(rnsFromSigned(basis, 2, padded), UserError);
}

TEST(RnsPoly, RescaleRoundsNonMultiples)
{
    // Rescaling value v yields round-ish(v / q_last): error at most 1
    // from the centered-remainder correction.
    const auto basis = makeBasis(2);
    const int64_t qLast = static_cast<int64_t>(basis->modulus(1));
    std::vector<int64_t> coeffs(kN, 0);
    coeffs[0] = 1000 * qLast + 17;
    coeffs[1] = 1000 * qLast + qLast / 2 + 5;
    auto p = rnsFromSigned(basis, 2, coeffs);
    p.rescaleLastLimb();
    const uint64_t q0 = basis->modulus(0);
    EXPECT_EQ(toCentered(p.limb(0)[0], q0), 1000);
    EXPECT_EQ(toCentered(p.limb(0)[1], q0), 1001);
}

TEST(RnsPoly, RescaleInEvalDomainMatchesCoeffDomain)
{
    const auto basis = makeBasis(3);
    Rng rng(5);
    auto a = sampleUniformRns(basis, 3, Domain::Coeff, rng);
    auto b = a;
    a.rescaleLastLimb();
    b.toEval();
    b.rescaleLastLimb();
    b.toCoeff();
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(std::equal(a.limb(i).begin(), a.limb(i).end(),
                               b.limb(i).begin()))
            << "limb " << i;
    }
}

TEST(RnsPoly, DropLimbsKeepsResidues)
{
    const auto basis = makeBasis(3);
    Rng rng(6);
    auto a = sampleUniformRns(basis, 3, Domain::Coeff, rng);
    const std::vector<uint64_t> limb0(a.limb(0).begin(), a.limb(0).end());
    a.dropLimbs(2);
    EXPECT_EQ(a.limbCount(), 1u);
    EXPECT_TRUE(std::equal(a.limb(0).begin(), a.limb(0).end(),
                           limb0.begin()));
    EXPECT_THROW(a.dropLimbs(1), UserError);
}

TEST(Crt, CenteredInt64RoundTrip)
{
    const auto basis = makeBasis(3);
    const auto& moduli = basis->moduli();
    for (int64_t v : {0LL, 1LL, -1LL, 123456789LL, -987654321LL,
                      (1LL << 55), -(1LL << 55)}) {
        std::vector<uint64_t> residues;
        for (const uint64_t q : moduli) {
            residues.push_back(fromCentered(v, q));
        }
        EXPECT_EQ(crtToCenteredInt64(residues, moduli), v) << "v=" << v;
        EXPECT_NEAR(static_cast<double>(
                        crtToCenteredDouble(residues, moduli)),
                    static_cast<double>(v), std::abs(v) * 1e-15 + 1e-9);
    }
}

TEST(Crt, RejectsOverflow)
{
    const auto basis = makeBasis(3);
    const auto& moduli = basis->moduli();
    // Q/2 - 1 is far above 2^62 for three 30-bit primes... it is 2^89;
    // a large non-centered-small value must throw.
    std::vector<uint64_t> residues = {1, 2, 3};
    EXPECT_THROW(crtToCenteredInt64(residues, moduli), UserError);
}

TEST(RnsPoly, RestrictedToCopiesPrefix)
{
    const auto basis = makeBasis(3);
    Rng rng(7);
    const auto a = sampleUniformRns(basis, 3, Domain::Coeff, rng);
    const auto r = a.restrictedTo(2);
    EXPECT_EQ(r.limbCount(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(std::equal(r.limb(i).begin(), r.limb(i).end(),
                               a.limb(i).begin()));
    }
}

} // namespace
} // namespace heap::math
