#include "boot/algorithm2.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ckks/noise.h"
#include "common/check.h"
#include "common/parallel.h"
#include "math/modarith.h"

namespace heap::boot {

namespace {

/** Serialized size of a gadget ciphertext: its rows are RLWE
 *  ciphertexts of two polynomials over the same limbs. */
size_t
gadgetBytes(const rlwe::GadgetCiphertext& g)
{
    const math::RnsPoly& b = g.row(0, 0).b;
    return g.rowCount() * 2 * b.limbCount() * b.n() * sizeof(uint64_t);
}

} // namespace

size_t
BootstrapKeys::bytes() const
{
    size_t total = 0;
    for (const auto* half : {&brk.plus, &brk.minus}) {
        for (const rlwe::RgswCiphertext& rgsw : *half) {
            total += gadgetBytes(rgsw.forB) + gadgetBytes(rgsw.forA);
        }
    }
    for (const auto& [t, key] : packing.autoKeys) {
        total += gadgetBytes(key);
    }
    return total;
}

ModSwitched
modSwitchSplit(const rlwe::Ciphertext& in, const math::RnsBasis& basis)
{
    HEAP_CHECK(in.limbCount() == 1, "expected a level-1 ciphertext");
    const size_t n = basis.n();
    const uint64_t twoN = 2 * n;
    const uint64_t q0 = basis.modulus(0);

    ModSwitched ms;
    rlwe::Ciphertext ct = in;
    ct.toCoeff();
    ms.ctPrime = ct;
    ms.ctPrime.mulScalarInPlace(twoN % q0);

    auto exactDiv = [&](std::span<const uint64_t> x,
                        std::span<const uint64_t> xPrime,
                        std::vector<uint64_t>& out) {
        out.resize(n);
        for (size_t j = 0; j < n; ++j) {
            const auto prod = static_cast<math::uint128>(x[j]) * twoN;
            out[j] = static_cast<uint64_t>((prod - xPrime[j]) / q0);
        }
    };
    exactDiv(ct.a.limb(0), ms.ctPrime.a.limb(0), ms.aMs);
    exactDiv(ct.b.limb(0), ms.ctPrime.b.limb(0), ms.bMs);
    return ms;
}

math::RnsPoly
makeBootstrapTestPoly(std::shared_ptr<const math::RnsBasis> basis)
{
    const size_t limbs = basis->size();
    const size_t n = basis->n();
    const uint64_t q0 = basis->modulus(0);
    math::RnsPoly testPoly =
        tfhe::buildIdentityTestPoly(basis, limbs, q0);
    std::vector<uint64_t> invN(limbs);
    for (size_t i = 0; i < limbs; ++i) {
        invN[i] =
            math::invMod(n % basis->modulus(i), basis->modulus(i));
    }
    testPoly.mulScalarRnsInPlace(invN);
    return testPoly;
}

std::shared_ptr<const BootstrapKeys>
makeBootstrapKeys(const ckks::Context& ctx, rlwe::GadgetParams brGadget)
{
    auto keys = std::make_shared<BootstrapKeys>();
    keys->brGadget =
        brGadget.digitsPerLimb > 0 ? brGadget : ctx.params().gadget;
    keys->brGadget.validateFor(*ctx.basis());
    HEAP_CHECK(ctx.params().auxLimbs >= 1,
               "scheme-switching bootstrap needs an auxiliary prime p");
    Rng& rng = ctx.rng();
    keys->brk = tfhe::makeBlindRotateKey(ctx.secretKey(),
                                         ctx.secretKey().coeffs(),
                                         keys->brGadget, rng,
                                         ctx.noiseParams());
    keys->packing = tfhe::makePackingKeys(
        ctx.secretKey(), ctx.params().n, ctx.params().gadget, rng,
        ctx.noiseParams());
    keys->testPoly = makeBootstrapTestPoly(ctx.basis());
    keys->brSigma = tfhe::blindRotateSigma(keys->brk, ctx.basis()->size(),
                                           ctx.basis()->n());
    return keys;
}

ckks::Ciphertext
finishBootstrap(rlwe::Ciphertext ctKq, const ModSwitched& ms,
                const math::RnsBasis& basis, double inScale,
                size_t slots)
{
    const size_t bootLimbs = basis.size();
    const uint64_t twoN = 2 * basis.n();
    rlwe::Ciphertext lifted = rlwe::liftToLimbs(ms.ctPrime, bootLimbs);
    ctKq.toCoeff();
    ctKq.addInPlace(lifted);

    const uint64_t p = basis.modulus(bootLimbs - 1);
    const uint64_t c = (p + twoN / 2) / twoN;
    ctKq.mulScalarInPlace(c);
    ctKq.rescaleLastLimb();
    HEAP_ASSERT(ctKq.limbCount() == bootLimbs - 1,
                "limb accounting error");

    // A copy, not a move: the rescale dropped the auxiliary limb but
    // kept its words, and a copy keeps only the active limbs, so a
    // result that outlives the bootstrap does not carry them.
    ckks::Ciphertext out;
    out.ct = ctKq;
    out.scale = inScale
                * (static_cast<double>(twoN) * static_cast<double>(c)
                   / static_cast<double>(p));
    out.slots = slots;
    return out;
}

FrontPhase
runFrontPhase(const ckks::Context& ctx, const ckks::Ciphertext& in,
              double minBudgetBits, const char* who)
{
    HEAP_CHECK(in.level() == 1,
               "bootstrap expects a level-1 (single limb) ciphertext");
    checkBootstrappable(ctx, in, minBudgetBits, who);
    const auto basis = ctx.basis();
    const size_t n = basis->n();
    const uint64_t twoN = 2 * n;

    FrontPhase fp;
    fp.ms = modSwitchSplit(in.ct, *basis);

    // The modulus-switched phase carries the input error scaled by
    // 2N/q0: stamp that on every item so budgets survive the link.
    const double msScale = static_cast<double>(twoN)
                           / static_cast<double>(basis->modulus(0));
    fp.items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        auto ext = lwe::extractLwe(fp.ms.aMs, fp.ms.bMs, i, twoN);
        ext.budget = in.budget;
        ext.budget.sigma = in.budget.sigma * msScale;
        ext.budget.messageRms = in.budget.messageRms * msScale;
        fp.items.push_back(std::move(ext));
    }
    return fp;
}

std::vector<rlwe::Ciphertext>
rotateShares(std::span<const lwe::LweCiphertext> items, size_t shares,
             size_t inFlight, const ShareRotator& rotate)
{
    HEAP_CHECK(!items.empty() && shares >= 1 && inFlight >= 1,
               "rotateShares needs items, shares and inFlight >= 1");
    const size_t n = items.size();
    const size_t share = (n + shares - 1) / shares;
    const size_t used = (n + share - 1) / share; // non-empty shares
    std::vector<rlwe::Ciphertext> rotated(n);
    // Each share writes only its own slice of `rotated`.
    parallelFor(0, used, (shares + inFlight - 1) / inFlight,
                [&](size_t k) {
                    const size_t lo = k * share;
                    const size_t hi = std::min(n, lo + share);
                    auto accs = rotate(k, items.subspan(lo, hi - lo));
                    HEAP_ASSERT(accs.size() == hi - lo,
                                "share " << k << " lost accumulators");
                    std::move(accs.begin(), accs.end(),
                              rotated.begin() + lo);
                });
    return rotated;
}

ckks::Ciphertext
runFinishPhase(const ckks::Context& ctx, const BootstrapKeys& keys,
               const ckks::Ciphertext& in, rlwe::Ciphertext ctKq,
               const ModSwitched& ms)
{
    const auto basis = ctx.basis();
    ckks::Ciphertext out =
        finishBootstrap(std::move(ctKq), ms, *basis, in.scale, in.slots);
    out.budget = bootstrapOutputBudget(ctx, in, keys.brSigma, *basis);
    ctx.noiseGuardCheck(out, "bootstrap");
    return out;
}

void
checkBootstrappable(const ckks::Context& ctx, const ckks::Ciphertext& in,
                    double minBudgetBits, const char* who)
{
    const auto& guard = ctx.noiseGuard();
    if (!in.budget.tracked || guard.policy == NoiseGuardPolicy::Off) {
        return;
    }
    const double budget = ctx.noiseBudgetBits(in);
    if (budget > minBudgetBits) {
        return;
    }
    ctx.noiseStats().noteTrip();
    NoiseEvent ev;
    ev.kind = NoiseTripKind::DecryptionFailure;
    ev.op = who;
    ev.sigma = in.budget.sigma;
    ev.scale = in.scale;
    ev.precisionBits = ctx.noisePrecisionBits(in);
    ev.budgetBits = budget;
    ev.opChain = in.budget.opChain();
    switch (guard.policy) {
    case NoiseGuardPolicy::Warn:
        std::fprintf(stderr,
                     "heap: %s input budget exhausted: %.1f bits "
                     "remain, > %.1f required; op chain: %s\n",
                     who, budget, minBudgetBits, ev.opChain.c_str());
        break;
    case NoiseGuardPolicy::Throw:
        HEAP_FATAL(who << " input budget exhausted: " << budget
                       << " bits remain, > " << minBudgetBits
                       << " required (predicted sigma " << ev.sigma
                       << " at scale " << ev.scale
                       << "); op chain: " << ev.opChain);
        break;
    case NoiseGuardPolicy::Callback:
        if (guard.callback) {
            guard.callback(ev);
        }
        break;
    case NoiseGuardPolicy::Off:
        break;
    }
}

NoiseBudget
bootstrapOutputBudget(const ckks::Context& ctx,
                      const ckks::Ciphertext& in, double brSigma,
                      const math::RnsBasis& bootBasis)
{
    const size_t bootLimbs = bootBasis.size();
    const uint64_t twoN = 2 * bootBasis.n();
    const uint64_t p = bootBasis.modulus(bootLimbs - 1);
    const uint64_t c = (p + twoN / 2) / twoN;
    const ckks::NoiseEstimator est(ctx);
    // Step 4 adds lift(2N * ct) to the repacked accumulators; step 5
    // multiplies by c and rescales away p.
    const double repack = est.repackNoise(brSigma, bootBasis.n());
    const double pre =
        std::hypot(in.budget.sigma * static_cast<double>(twoN), repack)
        * static_cast<double>(c);
    NoiseBudget out = in.budget;
    out.sigma = est.afterRescale(pre, bootLimbs - 1);
    out.messageRms = in.budget.messageRms
                     * (static_cast<double>(twoN)
                        * static_cast<double>(c)
                        / static_cast<double>(p));
    ++out.bootstraps;
    return out;
}

} // namespace heap::boot
