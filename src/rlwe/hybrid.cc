#include "rlwe/hybrid.h"

#include <cmath>

#include "common/check.h"
#include "math/baseconv.h"
#include "math/kernels.h"
#include "math/modarith.h"

namespace heap::rlwe {

namespace {

/** Message-limb count of a basis with `specialLimbs` special primes. */
size_t
messageLimbs(const math::RnsBasis& basis, size_t specialLimbs)
{
    HEAP_CHECK(specialLimbs >= 1 && specialLimbs < basis.size(),
               "bad special-prime count");
    return basis.size() - specialLimbs;
}

} // namespace

HybridKeySwitchKey
makeHybridKeySwitchKey(const SecretKey& to,
                       const math::RnsPoly& fromCoeff, Rng& rng,
                       const NoiseParams& noise, size_t groupSize,
                       size_t specialLimbs)
{
    auto basis = to.basisPtr();
    const size_t full = basis->size();
    const size_t msgLimbs = messageLimbs(*basis, specialLimbs);
    HEAP_CHECK(groupSize >= 1 && groupSize <= msgLimbs,
               "bad group size");
    HEAP_CHECK(fromCoeff.limbCount() == full
                   && fromCoeff.domain() == Domain::Coeff,
               "source key must be full-basis Coeff");

    // Noise containment: the largest group product must fit under P.
    double groupBits = 0, specialBits = 0;
    for (size_t g = 0; g < msgLimbs; g += groupSize) {
        double bits = 0;
        for (size_t i = g; i < std::min(g + groupSize, msgLimbs); ++i) {
            bits += std::log2(static_cast<double>(basis->modulus(i)));
        }
        groupBits = std::max(groupBits, bits);
    }
    for (size_t i = msgLimbs; i < full; ++i) {
        specialBits += std::log2(static_cast<double>(basis->modulus(i)));
    }
    HEAP_CHECK(groupBits <= specialBits + 1.0,
               "group modulus (" << groupBits
                                 << " bits) exceeds the special modulus ("
                                 << specialBits << " bits)");

    // [P]_{q_i} for the message limbs.
    std::vector<uint64_t> pMod(msgLimbs);
    for (size_t i = 0; i < msgLimbs; ++i) {
        const uint64_t qi = basis->modulus(i);
        uint64_t v = 1;
        for (size_t s = msgLimbs; s < full; ++s) {
            v = math::mulModNaive(v, basis->modulus(s) % qi, qi);
        }
        pMod[i] = v;
    }

    const math::KernelOps& ops = math::kernels();
    HybridKeySwitchKey ksk;
    ksk.groupSize = groupSize;
    ksk.specialLimbs = specialLimbs;
    const size_t groups = (msgLimbs + groupSize - 1) / groupSize;
    ksk.rows.reserve(groups);
    for (size_t g = 0; g < groups; ++g) {
        const size_t lo = g * groupSize;
        const size_t hi = std::min(lo + groupSize, msgLimbs);
        Ciphertext row = encryptZero(to, full, rng, noise);
        // Message P * e_g * s': e_g = (Q/Q_g) * [(Q/Q_g)^{-1}]_{Q_g}
        // is 1 mod the group's primes, 0 mod the other message primes,
        // and P * e_g = 0 mod the special primes. Within the group,
        // e_g mod q_i = (Q/Q_g mod q_i) * inv(Q/Q_g mod q_i) = 1, so
        // the row's limb-i message is simply (P mod q_i) * s'.
        for (size_t i = lo; i < hi; ++i) {
            const uint64_t qi = basis->modulus(i);
            std::vector<uint64_t> contrib(basis->n());
            ops.mulScalarShoup(contrib.data(), fromCoeff.limb(i).data(),
                               pMod[i], math::shoupPrecompute(pMod[i], qi),
                               basis->n(), qi);
            basis->ntt(i).forward(contrib);
            auto dst = row.b.limb(i);
            ops.addMod(dst.data(), dst.data(), contrib.data(), basis->n(),
                       qi);
        }
        ksk.rows.push_back(std::move(row));
    }
    return ksk;
}

Ciphertext
applyHybrid(const math::RnsPoly& x, const HybridKeySwitchKey& ksk)
{
    auto basis = x.basisPtr();
    const size_t full = basis->size();
    const size_t msgLimbs = messageLimbs(*basis, ksk.specialLimbs);
    const size_t l = x.limbCount();
    HEAP_CHECK(l <= msgLimbs, "operand occupies the special limbs");
    HEAP_CHECK(x.domain() == Domain::Coeff,
               "hybrid apply expects Coeff domain");
    const size_t groups =
        (msgLimbs + ksk.groupSize - 1) / ksk.groupSize;
    HEAP_CHECK(ksk.rows.size() == groups, "key row count mismatch");

    Ciphertext acc;
    acc.a = math::RnsPoly(basis, full, Domain::Eval);
    acc.b = math::RnsPoly(basis, full, Domain::Eval);

    const size_t n = basis->n();
    // The digit poly is fully overwritten every group, so one
    // allocation serves the whole loop.
    math::RnsPoly digit(basis, full, Domain::Coeff);
    for (size_t g = 0; g * ksk.groupSize < l; ++g) {
        const size_t lo = g * ksk.groupSize;
        const size_t hi = std::min(lo + ksk.groupSize, l);
        digit.setDomain(Domain::Coeff);

        // ModUp: lift the group digit [a]_{Q'_g} from its active
        // limbs into every limb of QP. Inside the group the residues
        // are the originals; outside, exact fast base conversion
        // reconstructs them (single-limb groups take the direct,
        // centered-lift shortcut).
        if (hi - lo == 1) {
            const uint64_t qj = basis->modulus(lo);
            const auto src = x.limb(lo);
            for (size_t k = 0; k < full; ++k) {
                const uint64_t qk = basis->modulus(k);
                auto lane = digit.limb(k);
                for (size_t t = 0; t < n; ++t) {
                    lane[t] = math::fromCentered(
                        math::toCentered(src[t], qj), qk);
                }
            }
        } else {
            // Cached per-basis converter: [lo, hi) -> complement.
            const math::BaseConverter& bc =
                basis->baseConverterFor(lo, hi);
            std::vector<size_t> dstIdx;
            for (size_t k = 0; k < full; ++k) {
                if (k < lo || k >= hi) {
                    dstIdx.push_back(k);
                }
            }
            std::vector<uint64_t> in(hi - lo), out(dstIdx.size());
            for (size_t t = 0; t < n; ++t) {
                for (size_t i = lo; i < hi; ++i) {
                    in[i - lo] = x.limb(i)[t];
                }
                bc.convertCoeff(in, out, /*exact=*/true);
                for (size_t d = 0; d < dstIdx.size(); ++d) {
                    digit.limb(dstIdx[d])[t] = out[d];
                }
            }
            for (size_t i = lo; i < hi; ++i) {
                std::copy(x.limb(i).begin(), x.limb(i).end(),
                          digit.limb(i).begin());
            }
        }
        digit.toEval();
        acc.a.mulPointwiseAccum(digit, ksk.rows[g].a);
        acc.b.mulPointwiseAccum(digit, ksk.rows[g].b);
    }

    // ModDown: divide by every special prime, then drop the unused
    // intermediate limbs.
    for (size_t s = 0; s < ksk.specialLimbs; ++s) {
        acc.rescaleLastLimb();
    }
    if (acc.limbCount() > l) {
        acc.dropLimbs(acc.limbCount() - l);
    }
    return acc;
}

Ciphertext
switchKeyHybrid(const Ciphertext& ct, const HybridKeySwitchKey& ksk)
{
    math::RnsPoly a = ct.a;
    a.toCoeff();
    Ciphertext out = applyHybrid(a, ksk);
    math::RnsPoly b = ct.b;
    b.toEval();
    out.b.addInPlace(b);
    return out;
}

HybridKeySwitchKey
makeHybridAutomorphismKey(const SecretKey& sk, uint64_t t, Rng& rng,
                          const NoiseParams& noise, size_t groupSize,
                          size_t specialLimbs)
{
    auto basis = sk.basisPtr();
    math::RnsPoly sCoeff =
        math::rnsFromSigned(basis, basis->size(), sk.coeffs());
    return makeHybridKeySwitchKey(sk, sCoeff.automorphism(t), rng,
                                  noise, groupSize, specialLimbs);
}

Ciphertext
evalAutoHybrid(const Ciphertext& ct, uint64_t t,
               const HybridKeySwitchKey& key)
{
    Ciphertext c = ct;
    c.toCoeff();
    Ciphertext mapped = c.automorphism(t);
    Ciphertext out = switchKeyHybrid(mapped, key);
    out.toCoeff();
    return out;
}

} // namespace heap::rlwe
