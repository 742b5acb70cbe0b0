#include "boot/scheme_switch.h"

#include "common/check.h"
#include "common/timer.h"

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
    size_t total = 0;
    for (const auto* half : {&keys_->brk.plus, &keys_->brk.minus}) {
        for (const rlwe::RgswCiphertext& rgsw : *half) {
            total += gadgetBytes(rgsw.forB) + gadgetBytes(rgsw.forA);
        }
    }
    for (const auto& [t, key] : keys_->packing.autoKeys) {
        total += gadgetBytes(key);
    }
    return total;
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
