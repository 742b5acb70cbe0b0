/**
 * @file
 * Tests for the RLWE layer: encrypt/decrypt round trips, homomorphic
 * addition, limb restriction, modulus lifting, gadget decomposition
 * correctness, key switching, and RGSW external products.
 */

#include <cmath>
#include <iterator>

#include <gtest/gtest.h>

#include "math/primes.h"
#include "rlwe/gadget.h"
#include "rlwe/rlwe.h"

namespace heap::rlwe {
namespace {

constexpr size_t kN = 128;

struct RlweFixture : ::testing::Test {
    std::shared_ptr<const math::RnsBasis> basis =
        std::make_shared<math::RnsBasis>(
            kN, math::generateNttPrimes(30, kN, 3));
    Rng rng{2024};
    SecretKey sk = SecretKey::sampleTernary(basis, rng);
    GadgetParams gadget{.baseBits = 10, .digitsPerLimb = 3};

    std::vector<int64_t>
    randomMessage(int64_t bound)
    {
        std::vector<int64_t> m(kN);
        for (auto& v : m) {
            v = static_cast<int64_t>(rng.uniform(
                    static_cast<uint64_t>(2 * bound))) - bound;
        }
        return m;
    }

    double
    maxAbsError(const std::vector<int64_t>& got,
                const std::vector<int64_t>& want)
    {
        double m = 0;
        for (size_t i = 0; i < got.size(); ++i) {
            m = std::max(m, std::abs(static_cast<double>(got[i])
                                     - static_cast<double>(want[i])));
        }
        return m;
    }
};

TEST_F(RlweFixture, EncryptDecryptRoundTrip)
{
    const auto m = randomMessage(1 << 20);
    const auto msg = math::rnsFromSigned(basis, 2, m);
    const auto ct = encrypt(sk, msg, rng);
    const auto dec = decryptSigned(ct, sk);
    // Fresh noise is a few stddevs of 3.2.
    EXPECT_LE(maxAbsError(dec, m), 32.0);
}

TEST_F(RlweFixture, TrivialEncryptIsExact)
{
    const auto m = randomMessage(1 << 20);
    const auto msg = math::rnsFromSigned(basis, 3, m);
    const auto ct = trivialEncrypt(msg);
    EXPECT_EQ(decryptSigned(ct, sk), m);
}

TEST_F(RlweFixture, HomomorphicAddSub)
{
    const auto m1 = randomMessage(1 << 18);
    const auto m2 = randomMessage(1 << 18);
    auto ct1 = encrypt(sk, math::rnsFromSigned(basis, 3, m1), rng);
    const auto ct2 = encrypt(sk, math::rnsFromSigned(basis, 3, m2), rng);
    ct1.addInPlace(ct2);
    std::vector<int64_t> sum(kN);
    for (size_t i = 0; i < kN; ++i) {
        sum[i] = m1[i] + m2[i];
    }
    EXPECT_LE(maxAbsError(decryptSigned(ct1, sk), sum), 64.0);
    ct1.subInPlace(ct2);
    EXPECT_LE(maxAbsError(decryptSigned(ct1, sk), m1), 96.0);
}

TEST_F(RlweFixture, MonomialMulShiftsPhase)
{
    std::vector<int64_t> m(kN, 0);
    m[0] = 1000;
    m[3] = -500;
    auto ct = encrypt(sk, math::rnsFromSigned(basis, 2, m), rng);
    ct.toCoeff();
    const auto rot = ct.monomialMul(kN - 1); // X^{N-1}
    const auto dec = decryptSigned(rot, sk);
    // m * X^{N-1}: coeff0 -> N-1; coeff3 -> wraps to 2 with sign flip.
    EXPECT_NEAR(static_cast<double>(dec[kN - 1]), 1000.0, 40.0);
    EXPECT_NEAR(static_cast<double>(dec[2]), 500.0, 40.0);
}

TEST_F(RlweFixture, LiftPreservesSmallPhases)
{
    // A single-limb ciphertext with small message+noise lifts to a
    // multi-limb ciphertext whose phase gains only a q*I term, which
    // vanishes when message magnitudes are << q... here we use a
    // trivial ciphertext so the lift is exact.
    std::vector<int64_t> m(kN, 0);
    m[0] = 12345;
    m[1] = -777;
    auto msg = math::rnsFromSigned(basis, 1, m);
    auto ct = trivialEncrypt(std::move(msg));
    const auto lifted = liftToLimbs(ct, 3);
    EXPECT_EQ(lifted.limbCount(), 3u);
    const auto dec = decryptSigned(lifted, sk);
    EXPECT_EQ(dec[0], 12345);
    // -777 lifts to q0 - 777 as an integer (lift is of residues).
    EXPECT_EQ(dec[1], static_cast<int64_t>(basis->modulus(0)) - 777);
}

TEST_F(RlweFixture, GadgetDecomposeRecomposes)
{
    Rng r2(7);
    const auto x = math::sampleUniformRns(basis, 3, math::Domain::Coeff,
                                          r2);
    GadgetParams plain = gadget;
    plain.balanced = false; // this test checks the unsigned digits
    const auto digits = gadgetDecompose(x, plain);
    ASSERT_EQ(digits.size(), 3u * 3u);
    // Per limb: sum_j digit_j * B^j == original limb value.
    for (size_t i = 0; i < 3; ++i) {
        for (size_t t = 0; t < kN; ++t) {
            uint64_t v = 0;
            for (int j = 2; j >= 0; --j) {
                v = (v << gadget.baseBits)
                    + digits[i * 3 + static_cast<size_t>(j)][t];
            }
            ASSERT_EQ(v, x.limb(i)[t]) << "limb " << i << " t " << t;
        }
    }
}

TEST_F(RlweFixture, BalancedGadgetDecomposeRecomposes)
{
    Rng r2(8);
    const auto x = math::sampleUniformRns(basis, 3, math::Domain::Coeff,
                                          r2);
    GadgetParams bal = gadget;
    bal.balanced = true;
    const auto digits = gadgetDecompose(x, bal);
    const int64_t base = 1LL << bal.baseBits;
    for (size_t i = 0; i < 3; ++i) {
        const uint64_t qi = basis->modulus(i);
        for (size_t t = 0; t < kN; ++t) {
            int64_t v = 0;
            int64_t radix = 1;
            for (int j = 0; j < 3; ++j) {
                const int64_t dig =
                    digits[i * 3 + static_cast<size_t>(j)][t];
                // All but the top digit are balanced.
                if (j < 2) {
                    ASSERT_LE(std::abs(dig), base / 2);
                }
                v += dig * radix;
                radix *= base;
            }
            ASSERT_EQ(math::fromCentered(v, qi), x.limb(i)[t])
                << "limb " << i << " t " << t;
        }
    }
}

// The balanced digits are pinned word for word, not just recomposed:
// a reference built on truncating v % B fixes the tie rule (a
// remainder of B/2 stays up for v >= 0 and goes to -B/2 for v < 0),
// on random residues and on centered values that tie at every digit.
TEST_F(RlweFixture, BalancedDigitsMatchTruncatingReference)
{
    Rng r2(9);
    auto x = math::sampleUniformRns(basis, 3, math::Domain::Coeff, r2);
    GadgetParams bal = gadget;
    bal.balanced = true;
    const int64_t base = 1LL << bal.baseBits;
    const int64_t half = base / 2;
    const int64_t ties[] = {half,      -half,      half * base + half,
                            -half * base - half,   half * base - half,
                            1,         -1,         base - 1, 1 - base};
    for (size_t i = 0; i < 3; ++i) {
        for (size_t t = 0; t < std::size(ties); ++t) {
            x.limb(i)[t] = math::fromCentered(ties[t], basis->modulus(i));
        }
    }
    const auto digits = gadgetDecompose(x, bal);
    const int d = bal.digitsPerLimb;
    for (size_t i = 0; i < 3; ++i) {
        for (size_t t = 0; t < kN; ++t) {
            int64_t v = math::toCentered(x.limb(i)[t], basis->modulus(i));
            for (int j = 0; j < d; ++j) {
                int64_t r = v;
                if (j + 1 < d) {
                    r = v % base;
                    if (r > half) {
                        r -= base;
                    } else if (r < -half) {
                        r += base;
                    }
                    v = (v - r) >> bal.baseBits;
                }
                ASSERT_EQ(digits[i * d + static_cast<size_t>(j)][t], r)
                    << "limb " << i << " t " << t << " digit " << j;
            }
        }
    }
}

TEST_F(RlweFixture, BalancedGadgetHalvesKeySwitchNoise)
{
    SecretKey sk2 = SecretKey::sampleTernary(basis, rng);
    const auto m = randomMessage(1 << 20);
    const auto ct = encrypt(sk2, math::rnsFromSigned(basis, 3, m), rng);
    math::RnsPoly sk2Coeff =
        math::rnsFromSigned(basis, basis->size(), sk2.coeffs());

    auto measure = [&](bool balanced) {
        GadgetParams g = gadget;
        g.balanced = balanced;
        Rng kr(99); // same key randomness for both modes
        const auto ksk = makeKeySwitchKey(sk, sk2Coeff, g, kr);
        const auto dec = decryptSigned(switchKey(ct, ksk), sk);
        double sum = 0;
        for (size_t i = 0; i < kN; ++i) {
            const double e = static_cast<double>(dec[i] - m[i]);
            sum += e * e;
        }
        return std::sqrt(sum / kN);
    };
    const double unsignedNoise = measure(false);
    const double balancedNoise = measure(true);
    // Balanced digits have half the magnitude and zero mean: expect
    // roughly a 2x noise reduction.
    EXPECT_LT(balancedNoise, 0.75 * unsignedNoise);
}

TEST_F(RlweFixture, GadgetParamsValidation)
{
    GadgetParams tooFew{.baseBits = 10, .digitsPerLimb = 2};
    EXPECT_THROW(tooFew.validateFor(*basis), UserError); // 20 < 30 bits
    GadgetParams ok{.baseBits = 15, .digitsPerLimb = 2};
    EXPECT_NO_THROW(ok.validateFor(*basis));
    GadgetParams bad{.baseBits = 0, .digitsPerLimb = 2};
    EXPECT_THROW(bad.validateFor(*basis), UserError);
}

TEST_F(RlweFixture, KeySwitchPreservesMessage)
{
    // Encrypt under sk2, switch to sk, decrypt under sk.
    SecretKey sk2 = SecretKey::sampleTernary(basis, rng);
    const auto m = randomMessage(1 << 20);
    const auto ct = encrypt(sk2, math::rnsFromSigned(basis, 3, m), rng);

    math::RnsPoly sk2Coeff =
        math::rnsFromSigned(basis, basis->size(), sk2.coeffs());
    const auto ksk = makeKeySwitchKey(sk, sk2Coeff, gadget, rng);
    const auto switched = switchKey(ct, ksk);
    const auto dec = decryptSigned(switched, sk);
    // Key-switch noise ~ B * sigma * sqrt(N * l * d).
    EXPECT_LE(maxAbsError(dec, m), 1e6);
    // Under the wrong key the phase is essentially uniform mod Q.
    const auto junk = decryptCentered(ct, sk);
    long double worst = 0;
    for (size_t i = 0; i < kN; ++i) {
        worst = std::max(worst, std::abs(junk[i]
                                         - static_cast<long double>(m[i])));
    }
    EXPECT_GT(static_cast<double>(worst), 1e8)
        << "ct must not decrypt under the wrong key";
}

TEST_F(RlweFixture, KeySwitchWorksAtLowerLevel)
{
    SecretKey sk2 = SecretKey::sampleTernary(basis, rng);
    const auto m = randomMessage(1 << 20);
    // Two limbs only: the full-basis key must restrict correctly.
    const auto ct = encrypt(sk2, math::rnsFromSigned(basis, 2, m), rng);
    math::RnsPoly sk2Coeff =
        math::rnsFromSigned(basis, basis->size(), sk2.coeffs());
    const auto ksk = makeKeySwitchKey(sk, sk2Coeff, gadget, rng);
    const auto switched = switchKey(ct, ksk);
    EXPECT_EQ(switched.limbCount(), 2u);
    EXPECT_LE(maxAbsError(decryptSigned(switched, sk), m), 1e6);
}

TEST_F(RlweFixture, ExternalProductByConstant)
{
    const auto m = randomMessage(1 << 18);
    const auto ct = encrypt(sk, math::rnsFromSigned(basis, 3, m), rng);
    const auto C = rgswEncryptConstant(sk, 3, gadget, rng);
    const auto prod = externalProduct(ct, C);
    std::vector<int64_t> want(kN);
    for (size_t i = 0; i < kN; ++i) {
        want[i] = 3 * m[i];
    }
    EXPECT_LE(maxAbsError(decryptSigned(prod, sk), want), 1e6);
}

TEST_F(RlweFixture, ExternalProductByMonomial)
{
    std::vector<int64_t> m(kN, 0);
    m[0] = 100000;
    const auto ct = encrypt(sk, math::rnsFromSigned(basis, 3, m), rng);
    // mu = X (shift by one coefficient).
    std::vector<int64_t> muc(kN, 0);
    muc[1] = 1;
    const auto mu = math::rnsFromSigned(basis, basis->size(), muc);
    const auto C = rgswEncrypt(sk, mu, gadget, rng);
    const auto prod = externalProduct(ct, C);
    const auto dec = decryptSigned(prod, sk);
    EXPECT_NEAR(static_cast<double>(dec[1]), 100000.0, 1e6);
    EXPECT_NEAR(static_cast<double>(dec[0]), 0.0, 1e6);
}

TEST_F(RlweFixture, ExternalProductChain)
{
    // Repeated external products keep noise additive-ish: multiply an
    // encryption of 1<<20 by RGSW(1) five times and verify survival.
    std::vector<int64_t> m(kN, 0);
    m[0] = 1 << 20;
    auto ct = encrypt(sk, math::rnsFromSigned(basis, 3, m), rng);
    const auto one = rgswEncryptConstant(sk, 1, gadget, rng);
    for (int i = 0; i < 5; ++i) {
        ct = externalProduct(ct, one);
    }
    const auto dec = decryptSigned(ct, sk);
    EXPECT_NEAR(static_cast<double>(dec[0]), std::pow(2.0, 20), 5e6);
}

TEST_F(RlweFixture, InternalProductMultipliesMessages)
{
    // RGSW(2) (x) RGSW(3) acts on an RLWE ciphertext like RGSW(6)
    // (Section VII-A standalone-TFHE construction). The compounded
    // decomposition noise calls for a finer gadget base.
    const GadgetParams fine{.baseBits = 5, .digitsPerLimb = 6};
    const auto A = rgswEncryptConstant(sk, 2, fine, rng);
    const auto B = rgswEncryptConstant(sk, 3, fine, rng);
    const auto AB = internalProduct(A, B);

    std::vector<int64_t> m(kN, 0);
    m[0] = 1 << 18;
    const auto ct = encrypt(sk, math::rnsFromSigned(basis, 3, m), rng);
    const auto prod = externalProduct(ct, AB);
    const auto dec = decryptSigned(prod, sk);
    EXPECT_NEAR(static_cast<double>(dec[0]), 6.0 * (1 << 18), 5e6);
    EXPECT_NEAR(static_cast<double>(dec[1]), 0.0, 5e6);
}

TEST_F(RlweFixture, InternalProductByMonomialShifts)
{
    // RGSW(X) (x) RGSW(X^2) = RGSW(X^3).
    const GadgetParams fine{.baseBits = 5, .digitsPerLimb = 6};
    auto mono = [&](size_t k) {
        std::vector<int64_t> mu(kN, 0);
        mu[k] = 1;
        return rgswEncrypt(
            sk, math::rnsFromSigned(basis, basis->size(), mu), fine,
            rng);
    };
    const auto AB = internalProduct(mono(1), mono(2));
    std::vector<int64_t> m(kN, 0);
    m[0] = 1 << 18;
    const auto ct = encrypt(sk, math::rnsFromSigned(basis, 3, m), rng);
    const auto dec = decryptSigned(externalProduct(ct, AB), sk);
    EXPECT_NEAR(static_cast<double>(dec[3]), 1 << 18, 5e6);
    EXPECT_NEAR(static_cast<double>(dec[0]), 0.0, 5e6);
}

TEST_F(RlweFixture, SecretKeyRejectsWrongLength)
{
    EXPECT_THROW(SecretKey(basis, std::vector<int64_t>(kN - 1, 0)),
                 UserError);
}

} // namespace
} // namespace heap::rlwe
