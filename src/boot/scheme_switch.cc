#include "boot/scheme_switch.h"

#include "boot/algorithm2.h"

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "math/modarith.h"

namespace heap::boot {

using math::Domain;
using math::RnsPoly;

SchemeSwitchBootstrapper::SchemeSwitchBootstrapper(
    const ckks::Context& ctx, rlwe::GadgetParams brGadget)
    : ctx_(&ctx), keys_(makeBootstrapKeys(ctx, brGadget))
{
}

void
SchemeSwitchBootstrapper::setWorkers(size_t workers)
{
    HEAP_CHECK(workers >= 1 && workers <= 256, "bad worker count");
    HEAP_CHECK(workers == 1 || schedule_ == Schedule::PerCiphertext,
               "the key-major schedule is single-worker");
    workers_ = workers;
}

void
SchemeSwitchBootstrapper::setSchedule(Schedule s)
{
    HEAP_CHECK(s == Schedule::PerCiphertext || workers_ == 1,
               "the key-major schedule is single-worker");
    schedule_ = s;
}

size_t
SchemeSwitchBootstrapper::keyBytes() const
{
    const auto& basis = *ctx_->basis();
    const size_t polyBytes = basis.n() * basis.size() * sizeof(uint64_t);
    // Each RGSW = 2 gadget halves of (limbs * d) RLWE rows of 2 polys.
    const size_t rowsPerGadget =
        basis.size() * static_cast<size_t>(keys_->brGadget.digitsPerLimb);
    const size_t rgswBytes = 2 * rowsPerGadget * 2 * polyBytes;
    size_t total =
        (keys_->brk.plus.size() + keys_->brk.minus.size()) * rgswBytes / 2;
    const size_t kskRows = basis.size()
        * static_cast<size_t>(ctx_->params().gadget.digitsPerLimb);
    total += keys_->packing.autoKeys.size() * kskRows * 2 * polyBytes;
    return total;
}

ckks::Ciphertext
SchemeSwitchBootstrapper::bootstrap(const ckks::Ciphertext& in) const
{
    HEAP_CHECK(in.level() == 1,
               "bootstrap expects a level-1 (single limb) ciphertext");
    // The triangle LUT only matches the identity on |m + e| < q0/4:
    // demand at least one bit of headroom beyond decryptability.
    checkBootstrappable(*ctx_, in, 1.0, "scheme-switch bootstrap");
    const auto basis = ctx_->basis();
    const size_t n = basis->n();
    const uint64_t twoN = 2 * n;
    const size_t bootLimbs = basis->size(); // q_0..q_{L-1}, p
    const size_t outLimbs = bootLimbs - 1;

    Timer timer;

    // --- Steps 1-2: ct' = 2N*ct mod q; ct_ms = (2N*ct - ct') / q ----
    rlwe::Ciphertext ct = in.ct;
    ct.toCoeff();
    const ModSwitched ms = modSwitchSplit(ct, *basis);
    const auto& aMs = ms.aMs;
    const auto& bMs = ms.bMs;
    times_.modSwitchMs = timer.millis();
    timer.reset();

    // --- Step 3a: Extract + BlindRotate every coefficient -----------
    // LUT: F(u) = q0 * u, pre-divided by the repacking gain N.
    const RnsPoly& testPoly = keys_->testPoly;
    const tfhe::BlindRotateKey& brk = keys_->brk;

    std::vector<rlwe::Ciphertext> rotated(n);
    auto rotateOne = [&](size_t i) {
        const auto lwe = lwe::extractLwe(aMs, bMs, i, twoN);
        rotated[i] = tfhe::blindRotate(lwe, testPoly, brk);
    };
    if (schedule_ == Schedule::KeyMajor) {
        // Section IV-E: one key fetch serves every ciphertext.
        std::vector<lwe::LweCiphertext> lwes;
        lwes.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            lwes.push_back(lwe::extractLwe(aMs, bMs, i, twoN));
        }
        rotated = tfhe::blindRotateBatch(lwes, testPoly, brk);
    } else if (workers_ <= 1) {
        for (size_t i = 0; i < n; ++i) {
            rotateOne(i);
        }
    } else {
        // The paper's multi-node fan-out: coefficients are split into
        // `workers_` contiguous shares (Section V); here nodes are
        // pool threads. Deterministic: rotateOne draws no randomness
        // and writes only rotated[i].
        parallelFor(0, n, (n + workers_ - 1) / workers_, rotateOne);
    }
    times_.blindRotateMs = timer.millis();
    timer.reset();

    // --- Step 3b: repack the N results into one RLWE ciphertext -----
    rlwe::Ciphertext ctKq = tfhe::packRlwes(rotated, keys_->packing);
    times_.repackMs = timer.millis();
    timer.reset();

    // --- Steps 4-5: add lift(ct'), scale by round(p/2N), rescale -----
    ckks::Ciphertext out =
        finishBootstrap(std::move(ctKq), ms, *basis, in.scale, in.slots);
    HEAP_ASSERT(out.level() == outLimbs, "limb accounting error");
    out.budget = bootstrapOutputBudget(
        *ctx_, in,
        tfhe::blindRotateSigma(brk, bootLimbs, n), *basis);
    ctx_->noiseGuardCheck(out, "bootstrap");
    times_.finishMs = timer.millis();
    return out;
}

} // namespace heap::boot
