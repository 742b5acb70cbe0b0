/**
 * @file
 * Integration tests for the scheme-switching CKKS bootstrap
 * (Algorithm 2): a level-1 ciphertext is restored to the top level
 * with its message intact, computation continues afterwards, and the
 * exact-cancellation property keeps the error at the blind-rotate +
 * repack noise floor.
 */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "boot/scheme_switch.h"

namespace heap::boot {
namespace {

ckks::CkksParams
bootParams()
{
    ckks::CkksParams p;
    p.n = 64;
    p.limbBits = 30;
    p.levels = 2;
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    // Modest Hamming weight keeps the worst-case modulus-switch
    // rounding inside the LUT identity window at this tiny N (the
    // paper's N = 2^13 leaves ample probabilistic margin for uniform
    // ternary keys; see DESIGN.md).
    p.secretHamming = 16;
    return p;
}

struct BootFixture : ::testing::Test {
    ckks::Context ctx{bootParams(), 4242};
    ckks::Evaluator ev{ctx};
    SchemeSwitchBootstrapper boot{
        ctx, rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6}};

    static double
    maxErr(const std::vector<ckks::Complex>& a,
           const std::vector<ckks::Complex>& b)
    {
        double m = 0;
        for (size_t i = 0; i < a.size(); ++i) {
            m = std::max(m, std::abs(a[i] - b[i]));
        }
        return m;
    }
};

TEST_F(BootFixture, RestoresLevelAndMessage)
{
    std::vector<ckks::Complex> z;
    for (size_t i = 0; i < 32; ++i) {
        z.emplace_back(std::cos(0.2 * static_cast<double>(i)),
                       std::sin(0.3 * static_cast<double>(i)));
    }
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    ev.dropToLevel(ct, 1);
    EXPECT_EQ(ct.level(), 1u);

    const auto boosted = boot.bootstrap(ct);
    EXPECT_EQ(boosted.level(), ctx.maxLevel());
    const auto back = ctx.decrypt(boosted);
    EXPECT_LT(maxErr(back, z), 5e-2);

    // Scale must remain within a rounding factor of the input scale.
    EXPECT_NEAR(boosted.scale / ct.scale, 1.0, 1e-2);
}

TEST_F(BootFixture, ComputationContinuesAfterBootstrap)
{
    std::vector<ckks::Complex> z;
    for (size_t i = 0; i < 32; ++i) {
        z.emplace_back(0.5 + 0.01 * static_cast<double>(i), 0.0);
    }
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    // Burn the level budget, bootstrap, then square.
    ct = ev.multiplyRescale(ct, ct);
    EXPECT_EQ(ct.level(), 1u);
    auto boosted = boot.bootstrap(ct);
    boosted = ev.multiplyRescale(boosted, boosted);
    const auto back = ctx.decrypt(boosted);
    for (size_t i = 0; i < 32; ++i) {
        const double want = std::pow(z[i].real(), 4);
        EXPECT_NEAR(back[i].real(), want, 0.1) << "slot " << i;
    }
}

TEST_F(BootFixture, StepTimesArePopulated)
{
    std::vector<ckks::Complex> z(8, ckks::Complex(0.25, 0));
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    ev.dropToLevel(ct, 1);
    (void)boot.bootstrap(ct);
    const auto& t = boot.lastStepTimes();
    EXPECT_GT(t.blindRotateMs, 0.0);
    EXPECT_GT(t.repackMs, 0.0);
    EXPECT_GE(t.modSwitchMs, 0.0);
    EXPECT_GE(t.finishMs, 0.0);
    // BlindRotate dominates, as in the paper (1.33 of 1.5 ms).
    EXPECT_GT(t.blindRotateMs, t.modSwitchMs);
}

TEST_F(BootFixture, MultiWorkerMatchesSingleWorker)
{
    std::vector<ckks::Complex> z;
    for (size_t i = 0; i < 16; ++i) {
        z.emplace_back(0.1 * static_cast<double>(i) - 0.8, 0.3);
    }
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    ev.dropToLevel(ct, 1);

    const auto one = boot.bootstrap(ct);
    boot.setWorkers(8);
    const auto eight = boot.bootstrap(ct);
    boot.setWorkers(1);

    // Parallel scheduling must not change the ciphertext at all: the
    // jobs are data-independent (the paper's key observation).
    for (size_t i = 0; i < one.ct.limbCount(); ++i) {
        EXPECT_TRUE(std::equal(one.ct.a.limb(i).begin(),
                               one.ct.a.limb(i).end(),
                               eight.ct.a.limb(i).begin()));
        EXPECT_TRUE(std::equal(one.ct.b.limb(i).begin(),
                               one.ct.b.limb(i).end(),
                               eight.ct.b.limb(i).begin()));
    }
}

TEST_F(BootFixture, RepeatedBootstrapsAreStable)
{
    // Bootstrapping must be re-enterable: exhaust levels, refresh,
    // exhaust again, refresh again — the error stays at the noise
    // floor instead of compounding (the property that lets HELR run
    // 30 iterations, Section VI-F.1).
    std::vector<ckks::Complex> z;
    for (size_t i = 0; i < 32; ++i) {
        z.emplace_back(0.03 * static_cast<double>(i) - 0.5, 0.2);
    }
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    double firstErr = 0;
    for (int round = 0; round < 2; ++round) {
        ev.dropToLevel(ct, 1);
        ct = boot.bootstrap(ct);
        const auto back = ctx.decrypt(ct);
        const double err = maxErr(back, z);
        if (round == 0) {
            firstErr = err;
        } else {
            EXPECT_LT(err, 3.0 * firstErr + 1e-3)
                << "bootstrap error compounds across rounds";
        }
        EXPECT_LT(err, 5e-2);
    }
}

class BootSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BootSeedSweep, MessageSurvivesAcrossKeysAndMessages)
{
    // Fresh context, keys, and message per seed: the bootstrap must
    // not depend on a lucky key draw.
    ckks::Context ctx(bootParams(), GetParam());
    ckks::Evaluator ev(ctx);
    SchemeSwitchBootstrapper boot(
        ctx, rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6});
    Rng mrng(GetParam() * 17 + 1);
    std::vector<ckks::Complex> z(32);
    for (auto& v : z) {
        v = ckks::Complex(2 * mrng.uniformReal() - 1,
                          2 * mrng.uniformReal() - 1);
    }
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    ev.dropToLevel(ct, 1);
    const auto back = ctx.decrypt(boot.bootstrap(ct));
    double worst = 0;
    for (size_t i = 0; i < z.size(); ++i) {
        worst = std::max(worst, std::abs(back[i] - z[i]));
    }
    EXPECT_LT(worst, 5e-2) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BootSeedSweep,
                         ::testing::Values(11u, 222u, 3333u));

TEST_F(BootFixture, RejectsHighLevelInput)
{
    std::vector<ckks::Complex> z(8, ckks::Complex(0.5, 0));
    const auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    EXPECT_THROW(boot.bootstrap(ct), UserError);
}

TEST_F(BootFixture, KeyBytesAccounting)
{
    // The row sum of the generated keys: 2N blind-rotate RGSWs of two
    // gadget halves with limbs * 6 rows each, plus log2(N) packing
    // keys with limbs * 4 rows (the context gadget), every row two
    // full-basis polynomials. 14,376,960 B at this shape.
    const size_t n = ctx.params().n;
    const size_t limbs = ctx.basis()->size();
    const size_t rowBytes = 2 * n * limbs * sizeof(uint64_t);
    const size_t rgswBytes = 2 * limbs * 6 * rowBytes;
    const size_t packingKeys = static_cast<size_t>(std::countr_zero(n));
    EXPECT_EQ(boot.keyBytes(),
              2 * n * rgswBytes + packingKeys * limbs * 4 * rowBytes);
}

} // namespace
} // namespace heap::boot
