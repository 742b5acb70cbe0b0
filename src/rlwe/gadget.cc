#include "rlwe/gadget.h"

#include <bit>
#include <memory>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "math/kernels.h"
#include "math/modarith.h"
#include "math/poly.h"
#include "math/scratch.h"

namespace heap::rlwe {

void
GadgetParams::validateFor(const math::RnsBasis& basis) const
{
    HEAP_CHECK(baseBits >= 1 && baseBits <= 32,
               "gadget baseBits out of range: " << baseBits);
    HEAP_CHECK(digitsPerLimb >= 1, "gadget needs at least one digit");
    for (size_t i = 0; i < basis.size(); ++i) {
        const int limbBits = std::bit_width(basis.modulus(i) - 1);
        HEAP_CHECK(digitsPerLimb * baseBits >= limbBits,
                   "gadget digits (" << digitsPerLimb << " x " << baseBits
                                     << " bits) do not cover limb of "
                                     << limbBits << " bits");
    }
}

namespace {

/**
 * Splits the centered value v into d balanced base-B digits written to
 * out[0], out[stride], ..., out[(d-1)*stride]. The top digit absorbs
 * the final remainder.
 */
inline void
decomposeCentered(int64_t v, int d, int baseBits, int64_t* out,
                  size_t stride)
{
    const int64_t base = 1LL << baseBits;
    for (int j = 0; j < d; ++j) {
        if (j == d - 1) {
            out[static_cast<size_t>(j) * stride] = v;
            break;
        }
        int64_t r = v % base;
        if (r > base / 2) {
            r -= base;
        } else if (r < -base / 2) {
            r += base;
        }
        out[static_cast<size_t>(j) * stride] = r;
        v = (v - r) >> baseBits;
    }
}

/**
 * Flat digit decomposition: digit (i, j) occupies
 * out[(i*d + j) * n, +n). Digit values match gadgetDecompose().
 */
void
decomposeInto(const math::RnsPoly& x, const GadgetParams& params,
              std::span<int64_t> out)
{
    const size_t n = x.n();
    const size_t l = x.limbCount();
    const int d = params.digitsPerLimb;
    const uint64_t mask = (1ULL << params.baseBits) - 1;
    for (size_t i = 0; i < l; ++i) {
        const uint64_t qi = x.basis().modulus(i);
        const auto src = x.limb(i);
        int64_t* base = out.data() + i * static_cast<size_t>(d) * n;
        for (size_t t = 0; t < n; ++t) {
            if (!params.balanced) {
                for (int j = 0; j < d; ++j) {
                    base[static_cast<size_t>(j) * n + t] =
                        static_cast<int64_t>(
                            (src[t] >> (j * params.baseBits)) & mask);
                }
                continue;
            }
            decomposeCentered(math::toCentered(src[t], qi), d,
                              params.baseBits, base + t, n);
        }
    }
}

} // namespace

std::vector<std::vector<int64_t>>
gadgetDecompose(const math::RnsPoly& x, const GadgetParams& params)
{
    HEAP_CHECK(x.domain() == Domain::Coeff,
               "gadget decomposition requires Coeff domain");
    const size_t n = x.n();
    const size_t l = x.limbCount();
    const int d = params.digitsPerLimb;
    const uint64_t mask = (1ULL << params.baseBits) - 1;
    std::vector<std::vector<int64_t>> digits(l * d);
    for (size_t i = 0; i < l; ++i) {
        for (int j = 0; j < d; ++j) {
            digits[i * d + j].resize(n);
        }
    }
    for (size_t i = 0; i < l; ++i) {
        const uint64_t qi = x.basis().modulus(i);
        const auto src = x.limb(i);
        for (size_t t = 0; t < n; ++t) {
            if (!params.balanced) {
                for (int j = 0; j < d; ++j) {
                    digits[i * d + j][t] = static_cast<int64_t>(
                        (src[t] >> (j * params.baseBits)) & mask);
                }
                continue;
            }
            // Balanced: decompose the centered representative with
            // digits in [-B/2, B/2] (carry propagation); the top
            // digit absorbs the final remainder.
            int64_t local[64];
            HEAP_ASSERT(d <= 64, "too many gadget digits");
            decomposeCentered(math::toCentered(src[t], qi), d,
                              params.baseBits, local, 1);
            for (int j = 0; j < d; ++j) {
                digits[i * d + j][t] = local[j];
            }
        }
    }
    return digits;
}

GadgetCiphertext
gadgetEncrypt(const SecretKey& sk, const math::RnsPoly& msg,
              const GadgetParams& params, Rng& rng,
              const NoiseParams& noise)
{
    auto basis = sk.basisPtr();
    params.validateFor(*basis);
    HEAP_CHECK(msg.limbCount() == basis->size(),
               "gadget message must be at the full basis");
    HEAP_CHECK(msg.domain() == Domain::Coeff,
               "gadget message must be in Coeff domain");
    const size_t l = basis->size();
    const int d = params.digitsPerLimb;

    const auto& powers =
        basis->gadgetPowersFor(params.baseBits, d);
    const math::KernelOps& ops = math::kernels();
    math::ScratchFrame scratch;
    auto contrib = scratch.borrow(basis->n());
    std::vector<Ciphertext> rows;
    rows.reserve(l * d);
    for (size_t i = 0; i < l; ++i) {
        const uint64_t qi = basis->modulus(i);
        for (int j = 0; j < d; ++j) {
            Ciphertext row = encryptZero(sk, l, rng, noise);
            // Add e_i * B^j * msg: only limb i receives a contribution
            // because the CRT idempotent e_i vanishes mod q_k, k != i.
            ops.mulScalarShoup(contrib.data(), msg.limb(i).data(),
                               powers.pow[i * d + j],
                               powers.powShoup[i * d + j],
                               basis->n(), qi);
            basis->ntt(i).forward(contrib);
            auto dst = row.b.limb(i);
            ops.addMod(dst.data(), dst.data(), contrib.data(),
                       basis->n(), qi);
            rows.push_back(std::move(row));
        }
    }
    return GadgetCiphertext(std::move(rows), params);
}

Ciphertext
gadgetApply(const math::RnsPoly& x, const GadgetCiphertext& K)
{
    auto basis = x.basisPtr();
    const size_t n = x.n();
    const size_t l = x.limbCount();
    const int d = K.params().digitsPerLimb;
    HEAP_CHECK(x.domain() == Domain::Coeff,
               "gadget decomposition requires Coeff domain");
    HEAP_CHECK(K.rowCount() >= l * static_cast<size_t>(d),
               "gadget ciphertext has too few rows");

    // Decompose every limb once into a flat signed-digit buffer; the
    // digits are shared read-only by all output limbs.
    math::ScratchFrame scratch;
    auto digits = scratch.borrowSigned(l * static_cast<size_t>(d) * n);
    decomposeInto(x, K.params(), digits);

    Ciphertext acc;
    acc.a = math::RnsPoly(basis, l, Domain::Eval);
    acc.b = math::RnsPoly(basis, l, Domain::Eval);

    // Fused per-limb pipeline (lift digit -> NTT -> multiply-accumulate
    // both components): each output limb is independent, so the limb
    // loop fans out exactly like RnsPoly::toEval. Digit magnitudes are
    // < B < every modulus, so liftSigned's |v| < q precondition holds.
    auto processLimb = [&](size_t k) {
        const uint64_t qk = basis->modulus(k);
        const auto& red = basis->reducer(k);
        const math::KernelOps& ops = math::kernels();
        math::ScratchFrame inner;
        auto tmp = inner.borrow(n);
        auto accA = acc.a.limb(k);
        auto accB = acc.b.limb(k);
        for (size_t i = 0; i < l; ++i) {
            for (int j = 0; j < d; ++j) {
                const int64_t* dig =
                    digits.data()
                    + (i * static_cast<size_t>(d)
                       + static_cast<size_t>(j))
                          * n;
                ops.liftSigned(tmp.data(), dig, n, qk);
                basis->ntt(k).forward(tmp);
                const Ciphertext& row = K.row(i, j);
                ops.mulModAccum(accA.data(), tmp.data(),
                                row.a.limb(k).data(), n, red);
                ops.mulModAccum(accB.data(), tmp.data(),
                                row.b.limb(k).data(), n, red);
            }
        }
    };
    if (l >= 2 && n >= 1024) {
        parallelFor(0, l, 1, processLimb);
    } else {
        for (size_t k = 0; k < l; ++k) {
            processLimb(k);
        }
    }
    return acc;
}

GadgetCiphertext
makeKeySwitchKey(const SecretKey& to, const math::RnsPoly& fromKeyCoeff,
                 const GadgetParams& params, Rng& rng,
                 const NoiseParams& noise)
{
    return gadgetEncrypt(to, fromKeyCoeff, params, rng, noise);
}

Ciphertext
switchKey(const Ciphertext& ct, const GadgetCiphertext& ksk)
{
    math::RnsPoly aCoeff = ct.a;
    aCoeff.toCoeff();
    Ciphertext out = gadgetApply(aCoeff, ksk);
    math::RnsPoly b = ct.b;
    b.toEval();
    out.b.addInPlace(b);
    return out;
}

Ciphertext
evalAuto(const Ciphertext& ct, uint64_t t, const GadgetCiphertext& key)
{
    Ciphertext c = ct;
    c.toCoeff();
    Ciphertext mapped = c.automorphism(t);
    // mapped decrypts under psi_t(s); switch its a-component back.
    Ciphertext out = switchKey(mapped, key);
    out.toCoeff();
    return out;
}

GadgetCiphertext
makeAutomorphismKey(const SecretKey& sk, uint64_t t,
                    const GadgetParams& params, Rng& rng,
                    const NoiseParams& noise)
{
    auto basis = sk.basisPtr();
    math::RnsPoly sCoeff =
        math::rnsFromSigned(basis, basis->size(), sk.coeffs());
    return makeKeySwitchKey(sk, sCoeff.automorphism(t), params, rng,
                            noise);
}

RgswCiphertext
rgswEncrypt(const SecretKey& sk, const math::RnsPoly& mu,
            const GadgetParams& params, Rng& rng,
            const NoiseParams& noise)
{
    HEAP_CHECK(mu.domain() == Domain::Coeff,
               "RGSW message must be in Coeff domain");
    RgswCiphertext out;
    out.forB = gadgetEncrypt(sk, mu, params, rng, noise);
    math::RnsPoly muS = mu;
    muS.toEval();
    muS.mulPointwiseInPlace(sk.eval());
    muS.toCoeff();
    out.forA = gadgetEncrypt(sk, muS, params, rng, noise);
    return out;
}

RgswCiphertext
rgswEncryptConstant(const SecretKey& sk, int64_t value,
                    const GadgetParams& params, Rng& rng,
                    const NoiseParams& noise)
{
    auto basis = sk.basisPtr();
    std::vector<int64_t> coeffs(basis->n(), 0);
    coeffs[0] = value;
    const auto mu = math::rnsFromSigned(basis, basis->size(), coeffs);
    return rgswEncrypt(sk, mu, params, rng, noise);
}

Ciphertext
externalProduct(const Ciphertext& ct, const RgswCiphertext& C)
{
    math::RnsPoly b = ct.b;
    b.toCoeff();
    math::RnsPoly a = ct.a;
    a.toCoeff();
    Ciphertext out = gadgetApply(b, C.forB);
    const Ciphertext fromA = gadgetApply(a, C.forA);
    out.addInPlace(fromA);
    return out;
}

std::pair<Ciphertext, Ciphertext>
externalProductPair(const Ciphertext& ct, const RgswCiphertext& C0,
                    const RgswCiphertext& C1)
{
    auto basis = ct.b.basisPtr();
    const size_t n = ct.b.n();
    const size_t l = ct.b.limbCount();
    const GadgetParams& gp = C0.forB.params();
    const int d = gp.digitsPerLimb;
    const size_t rows = l * static_cast<size_t>(d);
    for (const GadgetCiphertext* half :
         {&C0.forB, &C0.forA, &C1.forB, &C1.forA}) {
        const GadgetParams& p = half->params();
        HEAP_CHECK(p.baseBits == gp.baseBits && p.digitsPerLimb == d
                       && p.balanced == gp.balanced,
                   "externalProductPair needs one gadget for all halves");
        HEAP_CHECK(half->rowCount() >= rows,
                   "gadget ciphertext has too few rows");
    }

    // One decomposition for both products: b's digits (against the
    // forB halves), then a's (against the forA halves).
    math::ScratchFrame scratch;
    auto digits = scratch.borrowSigned(2 * rows * n);
    std::optional<math::RnsPoly> converted;
    auto coeffForm = [&](const math::RnsPoly& p) -> const math::RnsPoly& {
        if (p.domain() == Domain::Coeff) {
            return p;
        }
        converted.emplace(p);
        converted->toCoeff();
        return *converted;
    };
    decomposeInto(coeffForm(ct.b), gp, digits.first(rows * n));
    decomposeInto(coeffForm(ct.a), gp, digits.subspan(rows * n));

    std::pair<Ciphertext, Ciphertext> out;
    for (Ciphertext* c : {&out.first, &out.second}) {
        c->a = math::RnsPoly(basis, l, Domain::Eval);
        c->b = math::RnsPoly(basis, l, Domain::Eval);
    }

    // Per output limb: lift + NTT each digit once into `row`, then
    // multiply it into the four outputs' 128-bit sums. A product is
    // below q^2 and a reduced sum below q, so `budget` products on top
    // of a reduced sum stay below q * 2^64, the reducer's domain; sums
    // mod q are exact, so reducing once at the end (or whenever the
    // budget runs out) gives the canonical values externalProduct's
    // per-product reductions give.
    auto processLimb = [&](size_t k) {
        const uint64_t qk = basis->modulus(k);
        const auto& red = basis->reducer(k);
        const uint64_t budget = ~uint64_t{0} / qk;
        const math::KernelOps& ops = math::kernels();
        math::ScratchFrame inner;
        auto row = inner.borrow(n);
        // Construct the uint128 sums in place: [ep0.a | ep0.b | ep1.a |
        // ep1.b], n each.
        auto* acc = reinterpret_cast<math::uint128*>(
            inner.borrow(8 * n).data());
        std::uninitialized_fill_n(acc, 4 * n, math::uint128{0});
        uint64_t terms = 0;
        for (int s = 0; s < 2; ++s) {
            const GadgetCiphertext& K0 = s == 0 ? C0.forB : C0.forA;
            const GadgetCiphertext& K1 = s == 0 ? C1.forB : C1.forA;
            for (size_t i = 0; i < l; ++i) {
                for (int j = 0; j < d; ++j) {
                    const size_t r = i * static_cast<size_t>(d)
                                     + static_cast<size_t>(j);
                    ops.liftSigned(row.data(),
                                   digits.data()
                                       + (static_cast<size_t>(s) * rows + r)
                                             * n,
                                   n, qk);
                    basis->ntt(k).forward(row);
                    if (terms == budget) {
                        for (size_t t = 0; t < 4 * n; ++t) {
                            acc[t] = red.reduce(acc[t]);
                        }
                        terms = 0;
                    }
                    ++terms;
                    const Ciphertext& r0 = K0.row(i, j);
                    const Ciphertext& r1 = K1.row(i, j);
                    const uint64_t* k0a = r0.a.limb(k).data();
                    const uint64_t* k0b = r0.b.limb(k).data();
                    const uint64_t* k1a = r1.a.limb(k).data();
                    const uint64_t* k1b = r1.b.limb(k).data();
                    for (size_t t = 0; t < n; ++t) {
                        const math::uint128 x = row[t];
                        acc[t] += x * k0a[t];
                        acc[n + t] += x * k0b[t];
                        acc[2 * n + t] += x * k1a[t];
                        acc[3 * n + t] += x * k1b[t];
                    }
                }
            }
        }
        uint64_t* dst[4] = {
            out.first.a.limb(k).data(), out.first.b.limb(k).data(),
            out.second.a.limb(k).data(), out.second.b.limb(k).data()};
        for (size_t c = 0; c < 4; ++c) {
            for (size_t t = 0; t < n; ++t) {
                dst[c][t] = red.reduce(acc[c * n + t]);
            }
        }
    };
    if (l >= 2 && n >= 1024) {
        parallelFor(0, l, 1, processLimb);
    } else {
        for (size_t k = 0; k < l; ++k) {
            processLimb(k);
        }
    }
    return out;
}

RgswCiphertext
internalProduct(const RgswCiphertext& A, const RgswCiphertext& B)
{
    auto transformHalf = [&](const GadgetCiphertext& half) {
        std::vector<Ciphertext> rows;
        rows.reserve(half.rowCount());
        const int d = half.params().digitsPerLimb;
        const size_t limbs = half.rowCount() / static_cast<size_t>(d);
        for (size_t i = 0; i < limbs; ++i) {
            for (int j = 0; j < d; ++j) {
                Ciphertext out = externalProduct(
                    half.row(i, static_cast<size_t>(j)), B);
                out.toEval();
                rows.push_back(std::move(out));
            }
        }
        return GadgetCiphertext(std::move(rows), half.params());
    };
    RgswCiphertext out;
    out.forB = transformHalf(A.forB);
    out.forA = transformHalf(A.forA);
    return out;
}

} // namespace heap::rlwe
