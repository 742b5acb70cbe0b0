#include "boot/scheme_switch.h"

#include "common/check.h"
#include "common/timer.h"

namespace heap::boot {

SchemeSwitchBootstrapper::SchemeSwitchBootstrapper(
    const ckks::Context& ctx, rlwe::GadgetParams brGadget)
    : ctx_(&ctx), keys_(makeBootstrapKeys(ctx, brGadget))
{
}

void
SchemeSwitchBootstrapper::setWorkers(size_t workers)
{
    HEAP_CHECK(workers >= 1 && workers <= 256, "bad worker count");
    workers_ = workers;
}

size_t
SchemeSwitchBootstrapper::keyBytes() const
{
    return keys_->bytes();
}

ckks::Ciphertext
SchemeSwitchBootstrapper::bootstrap(const ckks::Ciphertext& in) const
{
    Timer timer;
    // The triangle LUT only matches the identity on |m + e| < q0/4:
    // demand at least one bit of headroom beyond decryptability.
    const FrontPhase fp =
        runFrontPhase(*ctx_, in, 1.0, "scheme-switch bootstrap");
    times_.modSwitchMs = timer.millis();
    timer.reset();

    // Section V's fan-out with pool threads as nodes: `workers_`
    // contiguous shares, each key-major (Section IV-E).
    const std::vector<rlwe::Ciphertext> rotated = rotateShares(
        fp.items, workers_, workers_,
        [&](size_t, std::span<const lwe::LweCiphertext> share) {
            return tfhe::blindRotateBatch(share, keys_->testPoly,
                                          keys_->brk);
        });
    times_.blindRotateMs = timer.millis();
    timer.reset();

    rlwe::Ciphertext ctKq = tfhe::packRlwes(rotated, keys_->packing);
    times_.repackMs = timer.millis();
    timer.reset();

    ckks::Ciphertext out =
        runFinishPhase(*ctx_, *keys_, in, std::move(ctKq), fp.ms);
    times_.finishMs = timer.millis();
    return out;
}

} // namespace heap::boot
