/**
 * @file
 * The paper's headline operation end to end: a CKKS ciphertext
 * exhausts its levels, switches schemes (Extract -> BlindRotate ->
 * repack, Algorithm 2), and comes back at the top level — then keeps
 * computing. Also demonstrates the multi-worker fan-out (the paper's
 * multi-FPGA parallelism mapped to threads) and prints the step
 * breakdown mirrored after Section VI-E.
 *
 * Build & run:  ./build/examples/scheme_switch_bootstrap
 */

#include <cmath>
#include <cstdio>

#include "boot/scheme_switch.h"
#include "common/timer.h"

int
main()
{
    using namespace heap;
    using namespace heap::ckks;

    CkksParams params;
    params.n = 1 << 6; // demo-sized ring (see DESIGN.md)
    params.levels = 2;
    params.auxLimbs = 1;
    params.limbBits = 30;
    params.scale = std::pow(2.0, 30);
    params.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    params.secretHamming = 16;

    Context ctx(params, 7);
    Evaluator ev(ctx);

    std::printf("generating bootstrapping keys (brk: %zu RGSW pairs, "
                "packing: %d automorphism keys)...\n",
                params.n, 6);
    Timer keyTimer;
    boot::SchemeSwitchBootstrapper boot(
        ctx, rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6});
    std::printf("keys ready in %.2f s (%.1f MB)\n\n", keyTimer.seconds(),
                static_cast<double>(boot.keyBytes()) / 1e6);

    // Encrypt, square once (burn a level), then bootstrap.
    std::vector<Complex> z;
    for (size_t i = 0; i < params.n / 2; ++i) {
        z.emplace_back(0.7 * std::cos(0.4 * static_cast<double>(i)),
                       0.3 * std::sin(0.2 * static_cast<double>(i)));
    }
    Ciphertext ct = ctx.encrypt(std::span<const Complex>(z));
    ct = ev.multiplyRescale(ct, ct);
    std::printf("after squaring: level %zu of %zu -> bootstrapping\n",
                ct.level(), ctx.maxLevel());

    Timer bootTimer;
    Ciphertext fresh = boot.bootstrap(ct);
    const double total = bootTimer.millis();
    const auto& t = boot.lastStepTimes();
    std::printf("bootstrap done in %.0f ms (level %zu restored)\n",
                total, fresh.level());
    std::printf("  steps 1-2 + Extract     : %8.2f ms\n"
                "  step 3 BlindRotate      : %8.2f ms  (%.0f%%)\n"
                "  step 3 repack           : %8.2f ms\n"
                "  steps 4-5 finish        : %8.2f ms\n",
                t.modSwitchMs, t.blindRotateMs,
                100.0 * t.blindRotateMs / total, t.repackMs, t.finishMs);
    std::printf("(paper, N=2^13 on 8 FPGAs: 0.0025 / 1.3303 / 0.1672 "
                "ms — BlindRotate dominates there too)\n\n");

    // Verify the message survived, then keep computing on it.
    const auto back = ctx.decrypt(fresh);
    double worst = 0;
    for (size_t i = 0; i < z.size(); ++i) {
        worst = std::max(worst, std::abs(back[i] - z[i] * z[i]));
    }
    std::printf("max slot error vs z^2 after bootstrap: %.2e\n", worst);

    Ciphertext again = ev.multiplyRescale(fresh, fresh);
    const auto z4 = ctx.decrypt(again);
    double worst4 = 0;
    for (size_t i = 0; i < z.size(); ++i) {
        worst4 = std::max(worst4, std::abs(z4[i] - std::pow(z[i], 4)));
    }
    std::printf("computation continues: z^4 error %.2e\n\n", worst4);

    // Parallel fan-out: the blind rotations are data-independent.
    for (const size_t workers : {size_t{1}, size_t{4}}) {
        boot.setWorkers(workers);
        Ciphertext in = ct;
        Timer w;
        (void)boot.bootstrap(in);
        std::printf("workers=%zu: bootstrap %.0f ms "
                    "(bit-identical output)\n",
                    workers, w.millis());
    }
    return 0;
}
