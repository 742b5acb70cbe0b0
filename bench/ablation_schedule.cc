/**
 * @file
 * Ablation: BlindRotate scheduling (Section IV-E) — per-ciphertext vs
 * key-major order on the functional library, with the key-traffic
 * accounting that motivates the paper's choice: the key-major
 * schedule fetches each brk key once per *batch* instead of once per
 * ciphertext.
 *
 * Both orders rotate the same N items of one bootstrap's front phase
 * on one thread: a loop of tfhe::blindRotate (per-ciphertext) against
 * one tfhe::blindRotateBatch (key-major, the order every bootstrap
 * driver runs). Exits nonzero when the accumulators differ.
 */

#include <cmath>

#include "bench_util.h"
#include "boot/algorithm2.h"
#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "common/timer.h"
#include "hw/config.h"

int
main()
{
    using namespace heap;
    using namespace heap::ckks;

    bench::banner(
        "Ablation: BlindRotate scheduling (Section IV-E)",
        "Same keys, same ciphertext, bit-identical outputs; only the "
        "loop order — and hence how often each brk key must be "
        "fetched — differs.");

    CkksParams p;
    p.n = 64;
    p.limbBits = 30;
    p.levels = 2;
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    p.secretHamming = 16;
    Context ctx(p, 21);
    Evaluator ev(ctx);
    const auto keys = boot::makeBootstrapKeys(
        ctx, rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6});

    std::vector<Complex> z(p.n / 2, Complex(0.35, -0.15));
    auto ct = ctx.encrypt(std::span<const Complex>(z));
    ev.dropToLevel(ct, 1);
    const boot::FrontPhase fp =
        boot::runFrontPhase(ctx, ct, 1.0, "ablation_schedule");

    Table t({"schedule", "wall (ms)", "brk fetches (paper-scale)",
             "key traffic"});
    const hw::HeapParams hp;
    const double perKeyMb = hp.brkBytes() / 1e6;
    std::vector<std::vector<rlwe::Ciphertext>> outs;
    for (const bool keyMajor : {false, true}) {
        Timer timer;
        std::vector<rlwe::Ciphertext> accs;
        if (keyMajor) {
            accs = tfhe::blindRotateBatch(fp.items, keys->testPoly,
                                          keys->brk);
        } else {
            for (const auto& item : fp.items) {
                accs.push_back(
                    tfhe::blindRotate(item, keys->testPoly, keys->brk));
            }
        }
        const double ms = timer.millis();
        outs.push_back(std::move(accs));
        // Paper-scale accounting: 512 ciphertexts per FPGA, n_t keys.
        const double fetches =
            keyMajor ? static_cast<double>(hp.nt)
                     : static_cast<double>(hp.nt) * 512.0;
        t.addRow({keyMajor ? "key-major (paper)" : "per-ciphertext",
                  Table::num(ms, 0), Table::num(fetches, 0),
                  Table::num(fetches * perKeyMb / 1e3, 1) + " GB"});
    }
    t.print();

    auto bytes = [](const rlwe::Ciphertext& acc) {
        ByteWriter w;
        saveRlwe(acc, w);
        return w.bytes();
    };
    bool identical = outs[0].size() == outs[1].size();
    for (size_t i = 0; identical && i < outs[0].size(); ++i) {
        identical = bytes(outs[0][i]) == bytes(outs[1][i]);
    }
    std::printf("\nAccumulators bit-identical across schedules: %s\n",
                identical ? "yes" : "NO");
    std::printf(
        "Compute is identical; the key-major order divides brk "
        "traffic by the batch size (512 on one FPGA), which is what "
        "lets the %0.f MB/key x n_t=%zu working set stream once per "
        "bootstrap (Section IV-E).\n",
        perKeyMb, hp.nt);
    return identical ? 0 : 1;
}
