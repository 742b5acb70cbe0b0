/**
 * @file
 * TFHE layer tests: LUT/test-polynomial algebra (exhaustive over all
 * rotation amounts), BlindRotate correctness sweeps, CMux selection,
 * programmable bootstrapping, homomorphic automorphisms, the
 * Chen et al. repacking, the fused CMux step's identity with two
 * plain external products, and every gadget product against a
 * textbook sum.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "math/primes.h"
#include "tfhe/blind_rotate.h"
#include "tfhe/repack.h"

namespace heap::tfhe {
namespace {

constexpr size_t kN = 64;

struct TfheFixture : ::testing::Test {
    std::shared_ptr<const math::RnsBasis> basis =
        std::make_shared<math::RnsBasis>(
            kN, math::generateNttPrimes(30, kN, 2));
    Rng rng{777};
    rlwe::SecretKey sk = rlwe::SecretKey::sampleTernary(basis, rng);
    rlwe::GadgetParams gadget{.baseBits = 8, .digitsPerLimb = 4};

    /** Builds an LWE ciphertext mod 2N with an exact, chosen phase. */
    lwe::LweCiphertext
    lweWithPhase(uint64_t phase, const lwe::LweSecretKey& key)
    {
        const uint64_t q = 2 * kN;
        lwe::LweCiphertext ct;
        ct.modulus = q;
        ct.a.resize(key.coeffs.size());
        uint64_t dot = 0;
        for (size_t j = 0; j < ct.a.size(); ++j) {
            ct.a[j] = rng.uniform(q);
            dot = math::addMod(
                dot,
                math::mulModNaive(
                    ct.a[j], math::fromCentered(key.coeffs[j], q), q),
                q);
        }
        ct.b = math::subMod(phase % q, dot, q);
        return ct;
    }
};

TEST_F(TfheFixture, TestPolyEncodesLutExhaustively)
{
    // Pure polynomial property: for every u in [0, 2N), the constant
    // coefficient of f * X^u equals the negacyclic extension of F.
    auto F = [](uint64_t u) {
        return static_cast<int64_t>(u * u % 97) - 48;
    };
    const auto f = buildTestPoly(basis, 1, F);
    const uint64_t q = basis->modulus(0);
    for (uint64_t u = 0; u < 2 * kN; ++u) {
        const auto rotated = f.monomialMul(u);
        const int64_t got =
            math::toCentered(rotated.limb(0)[0], q);
        const int64_t want = u < kN ? F(u) : -F(u - kN);
        ASSERT_EQ(got, want) << "u=" << u;
    }
}

TEST_F(TfheFixture, IdentityTestPolyIsTriangleWave)
{
    const uint64_t scale = 1000;
    const auto f = buildIdentityTestPoly(basis, 1, scale);
    const uint64_t q = basis->modulus(0);
    // Identity region: centered u with |u| < N/2.
    for (int64_t u = -static_cast<int64_t>(kN) / 2 + 1;
         u < static_cast<int64_t>(kN) / 2; ++u) {
        const uint64_t uu = static_cast<uint64_t>(
            (u + 2 * static_cast<int64_t>(kN)) % (2 * static_cast<int64_t>(kN)));
        const auto rotated = f.monomialMul(uu);
        ASSERT_EQ(math::toCentered(rotated.limb(0)[0], q),
                  static_cast<int64_t>(scale) * u)
            << "u=" << u;
    }
}

TEST_F(TfheFixture, BlindRotateSweepsAllPhases)
{
    const size_t dim = 16;
    const auto lweKey = lwe::LweSecretKey::sampleTernary(dim, rng);
    const auto brk =
        makeBlindRotateKey(sk, lweKey.coeffs, gadget, rng);
    const uint64_t scale = 1 << 20;
    const auto f = buildIdentityTestPoly(basis, 2, scale);

    for (int64_t u : {0LL, 1LL, 5LL, -1LL, -17LL,
                      static_cast<long long>(kN) / 2 - 1,
                      -(static_cast<long long>(kN) / 2 - 1)}) {
        const uint64_t uu = static_cast<uint64_t>(
            (u + 4 * static_cast<int64_t>(kN)) % (2 * static_cast<int64_t>(kN)));
        const auto lwe = lweWithPhase(uu, lweKey);
        auto acc = blindRotate(lwe, f, brk);
        const auto dec = rlwe::decryptSigned(acc, sk);
        // Accumulated EP noise ~ 2 * dim * B * sigma * sqrt(N*l*d).
        EXPECT_NEAR(static_cast<double>(dec[0]),
                    static_cast<double>(u) * scale, 1.5e6)
            << "u=" << u;
    }
}

TEST_F(TfheFixture, BatchBlindRotateMatchesPerCiphertext)
{
    // The key-major schedule of Section IV-E must be bit-identical to
    // the per-ciphertext loop: the external products commute across
    // independent accumulators.
    const size_t dim = 8;
    const auto lweKey = lwe::LweSecretKey::sampleTernary(dim, rng);
    const auto brk = makeBlindRotateKey(sk, lweKey.coeffs, gadget, rng);
    const auto f = buildIdentityTestPoly(basis, 2, 1 << 18);

    std::vector<lwe::LweCiphertext> lwes;
    for (uint64_t u : {3ULL, 77ULL, 120ULL, 0ULL}) {
        lwes.push_back(lweWithPhase(u, lweKey));
    }
    const auto batch = blindRotateBatch(lwes, f, brk);
    ASSERT_EQ(batch.size(), lwes.size());
    for (size_t c = 0; c < lwes.size(); ++c) {
        const auto single = blindRotate(lwes[c], f, brk);
        for (size_t i = 0; i < single.limbCount(); ++i) {
            ASSERT_TRUE(std::equal(single.a.limb(i).begin(),
                                   single.a.limb(i).end(),
                                   batch[c].a.limb(i).begin()))
                << "ct " << c << " limb " << i;
            ASSERT_TRUE(std::equal(single.b.limb(i).begin(),
                                   single.b.limb(i).end(),
                                   batch[c].b.limb(i).begin()));
        }
    }
}

TEST_F(TfheFixture, BlindRotateRejectsWrongModulus)
{
    const auto lweKey = lwe::LweSecretKey::sampleTernary(4, rng);
    const auto brk = makeBlindRotateKey(sk, lweKey.coeffs, gadget, rng);
    const auto f = buildIdentityTestPoly(basis, 1, 100);
    lwe::LweCiphertext bad;
    bad.modulus = 4 * kN;
    bad.a.assign(4, 0);
    EXPECT_THROW(blindRotate(bad, f, brk), UserError);
}

TEST_F(TfheFixture, BlindRotateKeyRequiresTernarySecret)
{
    std::vector<int64_t> nonTernary = {0, 2, 1, 0};
    EXPECT_THROW(makeBlindRotateKey(sk, nonTernary, gadget, rng),
                 UserError);
}

TEST_F(TfheFixture, CmuxSelects)
{
    std::vector<int64_t> m0(kN, 0), m1(kN, 0);
    m0[0] = 1 << 20;
    m1[0] = -(1 << 20);
    const auto ct0 =
        rlwe::encrypt(sk, math::rnsFromSigned(basis, 2, m0), rng);
    const auto ct1 =
        rlwe::encrypt(sk, math::rnsFromSigned(basis, 2, m1), rng);
    const auto sel0 = rlwe::rgswEncryptConstant(sk, 0, gadget, rng);
    const auto sel1 = rlwe::rgswEncryptConstant(sk, 1, gadget, rng);

    const auto out0 = cmux(sel0, ct0, ct1);
    const auto out1 = cmux(sel1, ct0, ct1);
    EXPECT_NEAR(static_cast<double>(rlwe::decryptSigned(out0, sk)[0]),
                std::pow(2.0, 20), 2e5);
    EXPECT_NEAR(static_cast<double>(rlwe::decryptSigned(out1, sk)[0]),
                -std::pow(2.0, 20), 2e5);
}

TEST_F(TfheFixture, ProgrammableBootstrapEvaluatesLut)
{
    // 3-bit message space: LUT computes x -> x^2 mod 8, encoded in the
    // top bits of a 30-bit modulus.
    const size_t dim = 16;
    const auto lweKey = lwe::LweSecretKey::sampleTernary(dim, rng);
    const auto brk = makeBlindRotateKey(sk, lweKey.coeffs, gadget, rng);

    const uint64_t q = basis->modulus(0);
    // 3-bit messages at delta = q/16 so that the 2N-bucket rounding
    // error of the modulus switch (~ sqrt(dim)/2 buckets) stays well
    // inside one message step (2N/16 = 8 buckets).
    const double delta = static_cast<double>(q) / 16.0;
    auto F = [&](uint64_t u) {
        const double msg = static_cast<double>(u) * 16.0
                           / static_cast<double>(2 * kN);
        const auto x = static_cast<int64_t>(std::llround(msg)) % 8;
        return static_cast<int64_t>(
            std::llround(static_cast<double>((x * x) % 8) * delta));
    };
    for (int64_t x : {0LL, 1LL, 2LL, 3LL, 5LL, 7LL}) {
        const auto ct = lwe::lweEncrypt(
            static_cast<int64_t>(std::llround(delta * x)), lweKey, q,
            rng);
        const auto out = programmableBootstrap(ct, F, brk, basis, 2);
        const lwe::LweSecretKey ringKey{sk.coeffs()};
        double got = static_cast<double>(lwe::lweDecrypt(out, ringKey))
                     / delta;
        if (got < -0.5) {
            got += 16.0; // phase is centered; fold back to [0, 16)
        }
        EXPECT_NEAR(got, static_cast<double>((x * x) % 8), 0.05)
            << "x=" << x;
    }
}

TEST_F(TfheFixture, EvalAutoMatchesPlaintextAutomorphism)
{
    std::vector<int64_t> m(kN);
    for (auto& v : m) {
        v = static_cast<int64_t>(rng.uniform(1 << 18)) - (1 << 17);
    }
    auto ct = rlwe::encrypt(sk, math::rnsFromSigned(basis, 2, m), rng);
    const uint64_t t = 5;
    const auto key = rlwe::makeAutomorphismKey(sk, t, gadget, rng);
    const auto out = rlwe::evalAuto(ct, t, key);

    // Plaintext reference.
    const auto ref = math::rnsFromSigned(basis, 1, m).automorphism(t);
    const auto dec = rlwe::decryptSigned(out, sk);
    const uint64_t q0 = basis->modulus(0);
    for (size_t i = 0; i < kN; ++i) {
        ASSERT_NEAR(static_cast<double>(dec[i]),
                    static_cast<double>(
                        math::toCentered(ref.limb(0)[i], q0)),
                    2e5)
            << "i=" << i;
    }
}

TEST_F(TfheFixture, PackRlwesPlacesPayloads)
{
    const size_t count = 8;
    const auto keys = makePackingKeys(sk, count, gadget, rng);
    std::vector<rlwe::Ciphertext> cts;
    std::vector<int64_t> payload;
    for (size_t j = 0; j < count; ++j) {
        std::vector<int64_t> m(kN, 0);
        m[0] = (static_cast<int64_t>(j) - 3) * (1 << 18);
        payload.push_back(m[0]);
        auto ct =
            rlwe::encrypt(sk, math::rnsFromSigned(basis, 2, m), rng);
        ct.toCoeff();
        cts.push_back(std::move(ct));
    }
    const auto packed = packRlwes(cts, keys);
    const auto dec = rlwe::decryptSigned(packed, sk);
    for (size_t j = 0; j < count; ++j) {
        EXPECT_NEAR(static_cast<double>(dec[j * (kN / count)]),
                    static_cast<double>(count) *
                        static_cast<double>(payload[j]),
                    5e6)
            << "slot " << j;
    }
}

TEST_F(TfheFixture, PackRlwesValidation)
{
    const auto keys = makePackingKeys(sk, 4, gadget, rng);
    EXPECT_THROW(packRlwes({}, keys), UserError);
    std::vector<rlwe::Ciphertext> three(3);
    EXPECT_THROW(packRlwes(three, keys), UserError);
}

TEST_F(TfheFixture, LweToRlweKeepsConstantCoefficient)
{
    const lwe::LweSecretKey ringKey{sk.coeffs()};
    const uint64_t q0 = basis->modulus(0);
    const int64_t m = 1 << 22;
    const auto lct = lwe::lweEncrypt(m, ringKey, q0, rng);
    const auto rct = lweToRlwe(lct, basis, 1);
    const auto dec = rlwe::decryptSigned(rct, sk);
    EXPECT_NEAR(static_cast<double>(dec[0]), static_cast<double>(m),
                32.0);
}

// The fused CMux step (one decomposition, one reduction per output
// coefficient for both external products) must be word-for-word the
// unfused computation, including where the 128-bit sums have to be
// reduced mid-loop.
struct FusedShape {
    const char* name;
    size_t n;
    int primeBits;
    size_t limbs;
    rlwe::GadgetParams gadget;
};

std::vector<uint64_t>
ciphertextWords(const rlwe::Ciphertext& ct)
{
    std::vector<uint64_t> words;
    for (const math::RnsPoly* p : {&ct.a, &ct.b}) {
        for (size_t l = 0; l < p->limbCount(); ++l) {
            const auto limb = p->limb(l);
            words.insert(words.end(), limb.begin(), limb.end());
        }
    }
    words.push_back(static_cast<uint64_t>(ct.domain()));
    return words;
}

/** Algorithm 1 with two plain external products per step. */
rlwe::Ciphertext
oracleBlindRotate(const lwe::LweCiphertext& lwe, const math::RnsPoly& f,
                  const BlindRotateKey& brk)
{
    const uint64_t twoN = 2 * f.n();
    rlwe::Ciphertext acc = rlwe::trivialEncrypt(f.monomialMul(lwe.b % twoN));
    for (size_t i = 0; i < brk.dimension(); ++i) {
        const uint64_t a = lwe.a[i] % twoN;
        if (a == 0) {
            continue;
        }
        rlwe::Ciphertext plus = rlwe::externalProduct(acc, brk.plus[i]);
        rlwe::Ciphertext minus = rlwe::externalProduct(acc, brk.minus[i]);
        plus.toCoeff();
        minus.toCoeff();
        // acc += plus * (X^a - 1) + minus * (X^-a - 1)
        acc.addInPlace(plus.monomialMul(a));
        acc.subInPlace(plus);
        acc.addInPlace(minus.monomialMul(twoN - a));
        acc.subInPlace(minus);
    }
    return acc;
}

/** Shapes for the lazy-reduction checks. The 62-bit one puts more
 *  products in every 128-bit sum than fit below q * 2^64, so the
 *  mid-loop reduction must fire (and the IFMA MAC hands it to the
 *  scalar body); the 51-bit one runs the IFMA MAC at its widest
 *  moduli, where each 52-bit product half is largest. On IFMA
 *  hardware the digit rows of the N=64 30-bit and N=512 49-bit shapes
 *  take the row-lane transform (the latter at its largest n, widest
 *  q, and 28 rows in groups of 8, so its last group is short); the
 *  N=1024 shape is past the row-lane bound and runs one NTT per row. */
const FusedShape kFusedShapes[] = {
    {"bootstrap N=64 4x30b 6x6", 64, 30, 4,
     {.baseBits = 6, .digitsPerLimb = 6}},
    {"N=1024 2x30b 10x3", 1024, 30, 2,
     {.baseBits = 10, .digitsPerLimb = 3}},
    {"N=512 2x49b 7x7", 512, 49, 2,
     {.baseBits = 7, .digitsPerLimb = 7}},
    {"N=64 3x62b 4x16", 64, 62, 3,
     {.baseBits = 4, .digitsPerLimb = 16}},
    {"N=64 3x51b 6x9", 64, 51, 3,
     {.baseBits = 6, .digitsPerLimb = 9}},
};

TEST(FusedCmuxStep, MatchesTwoExternalProductsWordForWord)
{
    const size_t lweDim = 6;
    for (const FusedShape& shape : kFusedShapes) {
        const auto basis = std::make_shared<math::RnsBasis>(
            shape.n, math::generateNttPrimes(shape.primeBits, shape.n,
                                             shape.limbs));
        if (shape.primeBits >= 60) {
            // Each 128-bit sum takes 2 * limbs * d = 96 products: more
            // than fit below q * 2^64, so the mid-loop reduction must
            // fire, and enough to overflow 128 bits if it did not.
            const uint64_t budget = ~uint64_t{0} / basis->modulus(0);
            ASSERT_GT(2 * shape.limbs
                          * static_cast<size_t>(shape.gadget.digitsPerLimb),
                      budget);
        }
        for (const uint64_t seed : {7ULL, 21ULL, 42ULL}) {
            SCOPED_TRACE(::testing::Message()
                         << shape.name << " seed " << seed);
            Rng rng(seed);
            const auto sk = rlwe::SecretKey::sampleTernary(basis, rng);
            const auto lweKey = lwe::LweSecretKey::sampleTernary(lweDim, rng);
            const auto brk =
                makeBlindRotateKey(sk, lweKey.coeffs, shape.gadget, rng);

            // The pair against two external products, from both
            // domains (the blind-rotate accumulator is in Coeff).
            std::vector<int64_t> m(shape.n);
            for (auto& v : m) {
                v = static_cast<int64_t>(rng.uniform(1 << 20)) - (1 << 19);
            }
            auto ct = rlwe::encrypt(
                sk, math::rnsFromSigned(basis, shape.limbs, m), rng);
            for (int pass = 0; pass < 2; ++pass) {
                const auto [got0, got1] = rlwe::externalProductPair(
                    ct, brk.plus[0], brk.minus[0]);
                EXPECT_EQ(ciphertextWords(got0),
                          ciphertextWords(
                              rlwe::externalProduct(ct, brk.plus[0])));
                EXPECT_EQ(ciphertextWords(got1),
                          ciphertextWords(
                              rlwe::externalProduct(ct, brk.minus[0])));
                ct.toCoeff();
            }

            // Whole rotations, per ciphertext and key-major.
            const auto f = buildIdentityTestPoly(basis, shape.limbs, 1000);
            std::vector<lwe::LweCiphertext> lwes(2);
            for (auto& lwe : lwes) {
                lwe.modulus = 2 * shape.n;
                lwe.b = rng.uniform(lwe.modulus);
                lwe.a.resize(lweDim);
                for (auto& a : lwe.a) {
                    a = rng.uniform(lwe.modulus);
                }
            }
            lwes[1].a[1] = 0; // a skipped step
            const auto batch = blindRotateBatch(lwes, f, brk);
            ASSERT_EQ(batch.size(), lwes.size());
            for (size_t c = 0; c < lwes.size(); ++c) {
                const auto want = ciphertextWords(
                    oracleBlindRotate(lwes[c], f, brk));
                EXPECT_EQ(ciphertextWords(blindRotate(lwes[c], f, brk)),
                          want)
                    << "ct " << c;
                EXPECT_EQ(ciphertextWords(batch[c]), want) << "ct " << c;
            }
        }
    }
}

/**
 * Textbook gadget product, independent of the library's core: each
 * digit row from gadgetDecompose is embedded with rnsFromSigned,
 * NTT'd, multiplied pointwise into the key row (one reduction per
 * product) and added (one reduction per sum).
 */
rlwe::Ciphertext
oracleGadgetApply(const math::RnsPoly& x, const rlwe::GadgetCiphertext& K)
{
    math::RnsPoly coeff = x;
    coeff.toCoeff();
    const size_t l = coeff.limbCount();
    const size_t d = static_cast<size_t>(K.params().digitsPerLimb);
    const auto digits = rlwe::gadgetDecompose(coeff, K.params());
    const auto basis = x.basisPtr();
    rlwe::Ciphertext acc(math::RnsPoly(basis, l, math::Domain::Eval),
                         math::RnsPoly(basis, l, math::Domain::Eval));
    for (size_t r = 0; r < digits.size(); ++r) {
        math::RnsPoly digit = math::rnsFromSigned(basis, l, digits[r]);
        digit.toEval();
        const rlwe::Ciphertext& row = K.row(r / d, r % d);
        math::RnsPoly termA = row.a.restrictedTo(l);
        termA.mulPointwiseInPlace(digit);
        acc.a.addInPlace(termA);
        math::RnsPoly termB = row.b.restrictedTo(l);
        termB.mulPointwiseInPlace(digit);
        acc.b.addInPlace(termB);
    }
    return acc;
}

rlwe::Ciphertext
oracleExternalProduct(const rlwe::Ciphertext& ct,
                      const rlwe::RgswCiphertext& C)
{
    rlwe::Ciphertext out = oracleGadgetApply(ct.b, C.forB);
    out.addInPlace(oracleGadgetApply(ct.a, C.forA));
    return out;
}

// Every gadget product entry point runs one lazily reduced core; the
// textbook sum above reduces after every step, so any lost or extra
// reduction in the core shows up as a differing word. The core skips
// a zero input block, which the textbook sum still adds row by row:
// each entry point also runs a trivial encryption (a = 0), a zero b,
// and the zero ciphertext.
TEST(GadgetProductOracle, EntryPointsMatchTextbookSum)
{
    const char* const kZeroHalves[] = {"no zero half", "a = 0", "b = 0",
                                       "a = b = 0"};
    for (const FusedShape& shape : kFusedShapes) {
        const auto basis = std::make_shared<math::RnsBasis>(
            shape.n, math::generateNttPrimes(shape.primeBits, shape.n,
                                             shape.limbs));
        for (const uint64_t seed : {7ULL, 21ULL, 42ULL}) {
            SCOPED_TRACE(::testing::Message()
                         << shape.name << " seed " << seed);
            Rng rng(seed);
            const auto sk = rlwe::SecretKey::sampleTernary(basis, rng);
            const auto C0 =
                rlwe::rgswEncryptConstant(sk, 1, shape.gadget, rng);
            const auto C1 =
                rlwe::rgswEncryptConstant(sk, -1, shape.gadget, rng);
            std::vector<int64_t> m(shape.n);
            for (auto& v : m) {
                v = static_cast<int64_t>(rng.uniform(1 << 20)) - (1 << 19);
            }
            const auto fresh = rlwe::encrypt(
                sk, math::rnsFromSigned(basis, shape.limbs, m), rng);
            ASSERT_EQ(fresh.domain(), math::Domain::Eval);
            for (int zeros = 0; zeros < 4; ++zeros) {
                SCOPED_TRACE(kZeroHalves[zeros]);
                auto ct = fresh;
                if ((zeros & 1) != 0) {
                    ct.a.setZero();
                }
                if ((zeros & 2) != 0) {
                    ct.b.setZero();
                }
                for (int pass = 0; pass < 2; ++pass) {
                    SCOPED_TRACE(pass == 0 ? "Eval input" : "Coeff input");
                    const auto want0 =
                        ciphertextWords(oracleExternalProduct(ct, C0));
                    const auto want1 =
                        ciphertextWords(oracleExternalProduct(ct, C1));
                    EXPECT_EQ(ciphertextWords(rlwe::externalProduct(ct, C0)),
                              want0);
                    const auto [got0, got1] =
                        rlwe::externalProductPair(ct, C0, C1);
                    EXPECT_EQ(ciphertextWords(got0), want0);
                    EXPECT_EQ(ciphertextWords(got1), want1);
                    ct.toCoeff();
                }
                // gadgetApply takes Coeff input only; check it at the full
                // basis and one limb down, where the key rows are used
                // restricted to the input's limbs.
                math::RnsPoly evalA = ct.a;
                evalA.toEval();
                EXPECT_THROW(rlwe::gadgetApply(evalA, C1.forA), UserError);
                for (const size_t limbs : {shape.limbs, shape.limbs - 1}) {
                    const math::RnsPoly x = ct.a.restrictedTo(limbs);
                    EXPECT_EQ(ciphertextWords(rlwe::gadgetApply(x, C1.forA)),
                              ciphertextWords(oracleGadgetApply(x, C1.forA)))
                        << limbs << " limbs";
                }
            }
        }
    }
}

} // namespace
} // namespace heap::tfhe
