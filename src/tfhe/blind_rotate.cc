#include "tfhe/blind_rotate.h"

#include <cmath>

#include "common/check.h"
#include "math/kernels.h"

namespace heap::tfhe {

namespace {

/**
 * Fused CMux update: acc += ep * (X^k - 1), negacyclically, without
 * materializing the rotated or differenced temporaries. X^k moves
 * ep[0, N - s) to [s, N) and wraps ep[N - s, N) to [0, s) negated,
 * with s = k mod N, and X^k = -X^s when k >= N flips both signs: each
 * limb is three contiguous kernel calls. Exact modular adds/subs, so
 * the result is byte-identical to the unfused monomialMul +
 * subInPlace + addInPlace sequence.
 */
void
accumulateRotatedDiffPoly(math::RnsPoly& acc, const math::RnsPoly& ep,
                          uint64_t k)
{
    const size_t n = acc.n();
    k %= 2 * n;
    const bool flip = k >= n;
    const size_t s = flip ? k - n : k;
    const math::KernelOps& ops = math::kernels();
    const auto shifted = flip ? ops.subMod : ops.addMod;
    const auto wrapped = flip ? ops.addMod : ops.subMod;
    for (size_t l = 0; l < acc.limbCount(); ++l) {
        const uint64_t q = acc.basis().modulus(l);
        uint64_t* out = acc.limb(l).data();
        const uint64_t* src = ep.limb(l).data();
        ops.subMod(out, out, src, n, q);
        shifted(out + s, out + s, src, n - s, q);
        wrapped(out, out, src + n - s, s, q);
    }
}

void
accumulateRotatedDiff(rlwe::Ciphertext& acc, const rlwe::Ciphertext& ep,
                      uint64_t k)
{
    accumulateRotatedDiffPoly(acc.a, ep.a, k);
    accumulateRotatedDiffPoly(acc.b, ep.b, k);
}

/**
 * ACC <- (0, f * X^b), after checking that `lwe` and f fit the key:
 * the accumulator before the first CMux step.
 */
rlwe::Ciphertext
initialAccumulator(const lwe::LweCiphertext& lwe,
                   const math::RnsPoly& testPoly, const BlindRotateKey& brk)
{
    HEAP_CHECK(testPoly.domain() == math::Domain::Coeff,
               "test polynomial must be in Coeff domain");
    const uint64_t twoN = 2 * testPoly.n();
    HEAP_CHECK(lwe.modulus == twoN,
               "blindRotate expects an LWE ciphertext modulo 2N = "
                   << twoN << ", got " << lwe.modulus);
    HEAP_CHECK(lwe.dimension() == brk.dimension(),
               "LWE dimension does not match blind-rotate key");
    return rlwe::trivialEncrypt(testPoly.monomialMul(lwe.b % twoN));
}

/**
 * Ternary CMux step i for mask element a:
 *   acc += (X^a - 1) * (acc (x) brk+_i) + (X^-a - 1) * (acc (x) brk-_i).
 * Both external products read the old accumulator, so they share one
 * decomposition (rlwe::externalProductPair).
 */
void
rotateStep(rlwe::Ciphertext& acc, uint64_t a, const BlindRotateKey& brk,
           size_t i)
{
    const uint64_t twoN = 2 * acc.b.n();
    a %= twoN;
    if (a == 0) {
        // (X^0 - 1) annihilates both terms exactly.
        return;
    }
    auto [epPlus, epMinus] =
        rlwe::externalProductPair(acc, brk.plus[i], brk.minus[i]);
    epPlus.toCoeff();
    epMinus.toCoeff();
    accumulateRotatedDiff(acc, epPlus, a);
    accumulateRotatedDiff(acc, epMinus, twoN - a);
}

} // namespace

BlindRotateKey
makeBlindRotateKey(const rlwe::SecretKey& sk,
                   std::span<const int64_t> lweSecret,
                   const rlwe::GadgetParams& gadget, Rng& rng,
                   const rlwe::NoiseParams& noise)
{
    BlindRotateKey brk;
    brk.gadget = gadget;
    brk.keyErrStdDev = noise.errorStdDev;
    brk.plus.reserve(lweSecret.size());
    brk.minus.reserve(lweSecret.size());
    for (const int64_t s : lweSecret) {
        HEAP_CHECK(s >= -1 && s <= 1,
                   "blind-rotate keys require a ternary LWE secret");
        brk.plus.push_back(
            rlwe::rgswEncryptConstant(sk, s == 1 ? 1 : 0, gadget, rng,
                                      noise));
        brk.minus.push_back(
            rlwe::rgswEncryptConstant(sk, s == -1 ? 1 : 0, gadget, rng,
                                      noise));
    }
    return brk;
}

math::RnsPoly
buildTestPoly(std::shared_ptr<const math::RnsBasis> basis, size_t limbs,
              const std::function<int64_t(uint64_t)>& F)
{
    const size_t n = basis->n();
    // constantCoeff(f * X^u) is f_0 at u = 0, -f_{N-u} for u in (0, N],
    // and f_{2N-u} for u in (N, 2N). Inverting for u in [0, N):
    //   f_0 = F(0),  f_j = -F(N - j)  for j in (0, N).
    std::vector<int64_t> coeffs(n);
    coeffs[0] = F(0);
    for (size_t j = 1; j < n; ++j) {
        coeffs[j] = -F(static_cast<uint64_t>(n - j));
    }
    return math::rnsFromSigned(std::move(basis), limbs, coeffs);
}

math::RnsPoly
buildIdentityTestPoly(std::shared_ptr<const math::RnsBasis> basis,
                      size_t limbs, uint64_t scale)
{
    const auto n = static_cast<int64_t>(basis->n());
    const auto s = static_cast<int64_t>(scale);
    return buildTestPoly(std::move(basis), limbs, [n, s](uint64_t u) {
        const auto v = static_cast<int64_t>(u);
        // Triangle wave: identity on |u| < N/2, folded beyond.
        return v <= n / 2 ? s * v : s * (n - v);
    });
}

rlwe::Ciphertext
blindRotate(const lwe::LweCiphertext& lwe, const math::RnsPoly& testPoly,
            const BlindRotateKey& brk)
{
    rlwe::Ciphertext acc = initialAccumulator(lwe, testPoly, brk);
    for (size_t i = 0; i < lwe.dimension(); ++i) {
        rotateStep(acc, lwe.a[i], brk, i);
    }
    return acc;
}

double
blindRotateSigma(const BlindRotateKey& brk, size_t limbs, size_t ringN)
{
    const auto& g = brk.gadget;
    const double base = std::pow(2.0, g.baseBits);
    const double digitVar =
        g.balanced ? base * base / 12.0
                   : base * base / 12.0 + base * base / 4.0;
    const double terms = static_cast<double>(limbs)
                         * static_cast<double>(g.digitsPerLimb)
                         * static_cast<double>(ringN);
    const double perProduct =
        brk.keyErrStdDev * std::sqrt(terms * digitVar);
    // One CMux per mask element, each adding two external products
    // (plus and minus indicators) of independent gadget noise.
    return perProduct
           * std::sqrt(2.0 * static_cast<double>(brk.dimension()));
}

std::vector<rlwe::Ciphertext>
blindRotateBatch(std::span<const lwe::LweCiphertext> lwes,
                 const math::RnsPoly& testPoly, const BlindRotateKey& brk)
{
    std::vector<rlwe::Ciphertext> accs;
    accs.reserve(lwes.size());
    for (const auto& lwe : lwes) {
        accs.push_back(initialAccumulator(lwe, testPoly, brk));
    }
    // Key-major loop: brk_i serves every accumulator before brk_{i+1}.
    for (size_t i = 0; i < brk.dimension(); ++i) {
        for (size_t c = 0; c < accs.size(); ++c) {
            rotateStep(accs[c], lwes[c].a[i], brk, i);
        }
    }
    return accs;
}

rlwe::Ciphertext
cmux(const rlwe::RgswCiphertext& C, const rlwe::Ciphertext& ct0,
     const rlwe::Ciphertext& ct1)
{
    rlwe::Ciphertext diff = ct1;
    diff.subInPlace(ct0);
    diff.toCoeff();
    rlwe::Ciphertext out = externalProduct(diff, C);
    rlwe::Ciphertext base = ct0;
    base.toEval();
    out.addInPlace(base);
    return out;
}

lwe::LweCiphertext
programmableBootstrap(const lwe::LweCiphertext& lwe,
                      const std::function<int64_t(uint64_t)>& F,
                      const BlindRotateKey& brk,
                      std::shared_ptr<const math::RnsBasis> basis,
                      size_t limbs)
{
    const uint64_t twoN = 2 * basis->n();
    const auto switched = lwe::lweModSwitch(lwe, twoN);
    const auto testPoly = buildTestPoly(basis, limbs, F);
    rlwe::Ciphertext acc = blindRotate(switched, testPoly, brk);
    acc.toCoeff();
    auto out = lwe::extractLwe(acc.a.limb(0), acc.b.limb(0), 0,
                               basis->modulus(0));
    // The bootstrap refreshes noise: the output error is the
    // blind-rotate accumulator error, independent of the input level.
    out.budget = lwe.budget;
    out.budget.sigma = blindRotateSigma(brk, limbs, basis->n());
    out.budget.messageRms = 0;
    ++out.budget.bootstraps;
    return out;
}

} // namespace heap::tfhe
