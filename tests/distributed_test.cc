/**
 * @file
 * Tests for the Section V distributed bootstrap protocol: serialized
 * batches round-trip through the simulated links, the multi-node
 * result matches the message, every LWE ciphertext is processed
 * exactly once, and the byte accounting matches the wire format.
 */

#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "boot/distributed.h"
#include "boot/scheme_switch.h"
#include "ckks/serialize.h"

namespace heap::boot {
namespace {

ckks::CkksParams
distParams()
{
    ckks::CkksParams p;
    p.n = 64;
    p.limbBits = 30;
    p.levels = 2;
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    p.secretHamming = 16;
    return p;
}

TEST(SimulatedLink, FifoAndAccounting)
{
    SimulatedLink link;
    link.send({1, 2, 3});
    link.send({4});
    EXPECT_EQ(link.bytesTransferred(), 4u);
    EXPECT_EQ(link.messageCount(), 2u);
    EXPECT_EQ(link.receive(), (std::vector<uint8_t>{1, 2, 3}));
    EXPECT_EQ(link.receive(), (std::vector<uint8_t>{4}));
    EXPECT_THROW(link.receive(), UserError);
}

struct DistFixture : ::testing::Test {
    ckks::Context ctx{distParams(), 909};
    ckks::Evaluator ev{ctx};
    DistributedBootstrapper dist{
        ctx, 7, rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6}};

    ckks::Ciphertext
    levelOneCiphertext(const std::vector<ckks::Complex>& z)
    {
        auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
        ev.dropToLevel(ct, 1);
        return ct;
    }
};

TEST_F(DistFixture, EightNodeBootstrapRestoresMessage)
{
    std::vector<ckks::Complex> z;
    for (size_t i = 0; i < 32; ++i) {
        z.emplace_back(0.8 * std::cos(0.3 * static_cast<double>(i)),
                       0.5 * std::sin(0.4 * static_cast<double>(i)));
    }
    const auto out = dist.bootstrap(levelOneCiphertext(z));
    EXPECT_EQ(out.level(), ctx.maxLevel());
    const auto back = ctx.decrypt(out);
    double worst = 0;
    for (size_t i = 0; i < z.size(); ++i) {
        worst = std::max(worst, std::abs(back[i] - z[i]));
    }
    EXPECT_LT(worst, 5e-2);
}

TEST_F(DistFixture, WorkIsDistributedEvenly)
{
    std::vector<ckks::Complex> z(32, ckks::Complex(0.2, -0.1));
    (void)dist.bootstrap(levelOneCiphertext(z));
    // 64 coefficients over 8 nodes: each secondary gets exactly 8
    // (the primary keeps 8).
    size_t total = 0;
    for (size_t s = 0; s < dist.secondaryCount(); ++s) {
        EXPECT_EQ(dist.node(s).processed(), 8u) << "node " << s;
        total += dist.node(s).processed();
    }
    EXPECT_EQ(total, 56u);
    EXPECT_EQ(dist.lastTraffic().batches, 7u);
}

TEST_F(DistFixture, TrafficMatchesWireFormat)
{
    std::vector<ckks::Complex> z(32, ckks::Complex(-0.4, 0.25));
    (void)dist.bootstrap(levelOneCiphertext(z));
    const auto& t = dist.lastTraffic();
    // Each serialized LWE: magic + 10-word noise budget + modulus +
    // b + length + N mask words; each batch: frame header + count +
    // 8 LWEs.
    const size_t lweBytes = 8 * (14 + ctx.params().n);
    EXPECT_EQ(t.lweBytesOut,
              7u * (kFrameHeaderBytes + 8 + 8 * lweBytes));
    // Replies dominate: each accumulator is a full-basis RLWE pair.
    EXPECT_GT(t.accBytesIn, t.lweBytesOut);
    // The asymmetry the paper's CMAC schedule must absorb.
    const double ratio = static_cast<double>(t.accBytesIn)
                         / static_cast<double>(t.lweBytesOut);
    EXPECT_GT(ratio, 2.0);
    // Reliable links: effective bytes equal goodput, nothing retried.
    EXPECT_EQ(t.wireBytesOut, t.lweBytesOut);
    EXPECT_EQ(t.wireBytesIn, t.accBytesIn);
    EXPECT_EQ(t.retransmits, 0u);
    EXPECT_EQ(t.nacks, 0u);
    EXPECT_EQ(t.corruptFrames, 0u);
    EXPECT_EQ(t.reclaimedBatches, 0u);
    EXPECT_EQ(t.deadSecondaries, 0u);
}

TEST(DistributedStress, ConcurrentBatchesMatchSerialReference)
{
    // 4 secondaries driven by 4 worker threads, several bootstraps in
    // a row, against an identically-seeded serial-schedule reference:
    // per-node processed() totals and the repacked outputs must match
    // the single-threaded protocol exactly.
    const auto gadget =
        rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6};
    ckks::Context ctxPar(distParams(), 31337);
    ckks::Context ctxSer(distParams(), 31337);
    ckks::Evaluator evPar(ctxPar);
    ckks::Evaluator evSer(ctxSer);
    DistributedBootstrapper par(ctxPar, 4, gadget);
    DistributedBootstrapper ser(ctxSer, 4, gadget);
    par.setWorkers(4);

    constexpr size_t kRounds = 2;
    for (size_t round = 0; round < kRounds; ++round) {
        std::vector<ckks::Complex> z(
            32, ckks::Complex(0.1 + 0.05 * static_cast<double>(round),
                              -0.2));
        auto ctP = ctxPar.encrypt(std::span<const ckks::Complex>(z));
        auto ctS = ctxSer.encrypt(std::span<const ckks::Complex>(z));
        evPar.dropToLevel(ctP, 1);
        evSer.dropToLevel(ctS, 1);
        const auto outP = par.bootstrap(ctP);
        const auto outS = ser.bootstrap(ctS);
        for (size_t i = 0; i < outP.ct.limbCount(); ++i) {
            EXPECT_TRUE(std::equal(outP.ct.a.limb(i).begin(),
                                   outP.ct.a.limb(i).end(),
                                   outS.ct.a.limb(i).begin()))
                << "a limb " << i << " round " << round;
            EXPECT_TRUE(std::equal(outP.ct.b.limb(i).begin(),
                                   outP.ct.b.limb(i).end(),
                                   outS.ct.b.limb(i).begin()))
                << "b limb " << i << " round " << round;
        }
        EXPECT_EQ(par.lastTraffic().lweBytesOut,
                  ser.lastTraffic().lweBytesOut);
        EXPECT_EQ(par.lastTraffic().accBytesIn,
                  ser.lastTraffic().accBytesIn);
        EXPECT_EQ(par.lastTraffic().batches, ser.lastTraffic().batches);
    }

    // N=64 over 5 nodes: shares of 13, so the secondaries process
    // 13 + 13 + 13 + 12 = 51 ciphertexts per bootstrap.
    size_t totalPar = 0;
    for (size_t s = 0; s < par.secondaryCount(); ++s) {
        EXPECT_EQ(par.node(s).processed(), ser.node(s).processed())
            << "node " << s;
        totalPar += par.node(s).processed();
    }
    EXPECT_EQ(totalPar, kRounds * 51u);
}

TEST(DistributedConcurrent, ConcurrentBootstrapCallsAreSerialized)
{
    // Two threads bootstrap different ciphertexts through ONE
    // DistributedBootstrapper. The internal mutex must serialize the
    // calls (links and traffic counters are per-object state): both
    // outputs must match an identically-keyed reference, in either
    // completion order. Runs under TSan via the concurrency label.
    const auto gadget =
        rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6};
    ckks::Context ctx(distParams(), 4242);
    ckks::Context ctxRef(distParams(), 4242);
    ckks::Evaluator ev(ctx);
    ckks::Evaluator evRef(ctxRef);
    DistributedBootstrapper shared(ctx, 3, gadget);
    DistributedBootstrapper ref(ctxRef, 3, gadget);

    std::vector<ckks::Complex> z1(16, ckks::Complex(0.21, -0.35));
    std::vector<ckks::Complex> z2(16, ckks::Complex(-0.12, 0.4));
    // Identical encryption order on both contexts keeps the RNG
    // streams aligned, so ciphertexts (and outputs) coincide.
    auto ctA = ctx.encrypt(std::span<const ckks::Complex>(z1));
    auto ctB = ctx.encrypt(std::span<const ckks::Complex>(z2));
    auto refA = ctxRef.encrypt(std::span<const ckks::Complex>(z1));
    auto refB = ctxRef.encrypt(std::span<const ckks::Complex>(z2));
    ev.dropToLevel(ctA, 1);
    ev.dropToLevel(ctB, 1);
    evRef.dropToLevel(refA, 1);
    evRef.dropToLevel(refB, 1);

    const auto wantA = ckks::saveCiphertext(ref.bootstrap(refA));
    const auto wantB = ckks::saveCiphertext(ref.bootstrap(refB));

    std::vector<uint8_t> gotA, gotB;
    std::thread t1(
        [&] { gotA = ckks::saveCiphertext(shared.bootstrap(ctA)); });
    std::thread t2(
        [&] { gotB = ckks::saveCiphertext(shared.bootstrap(ctB)); });
    t1.join();
    t2.join();

    EXPECT_TRUE(gotA == wantA);
    EXPECT_TRUE(gotB == wantB);
    // Both calls completed a full, uncorrupted protocol run.
    size_t processed = 0;
    for (size_t s = 0; s < shared.secondaryCount(); ++s) {
        processed += shared.node(s).processed();
    }
    EXPECT_EQ(processed, 2u * 48u); // 64 - primary share of 16, twice
}

TEST_F(DistFixture, ReplicasShareOneKeySet)
{
    // Keys are generated once: a replica references its source's key
    // set and test polynomial instead of copying them.
    const DistributedBootstrapper replica(dist, 2);
    EXPECT_EQ(&replica.packingKeys(), &dist.packingKeys());
    EXPECT_EQ(&replica.keys(), &dist.keys());
    const DistributedBootstrapper second(replica, 1);
    EXPECT_EQ(&second.packingKeys(), &dist.packingKeys());
}

TEST_F(DistFixture, MatchesSingleProcessResultExactly)
{
    // Same seed => same keys and ciphertexts: the distributed protocol
    // over 7 or 3 secondaries and the single-process bootstrapper at 1
    // or 4 workers must serialize to the same bytes.
    const rlwe::GadgetParams brGadget{.baseBits = 6, .digitsPerLimb = 6};
    const std::vector<ckks::Complex> z(16, ckks::Complex(0.33, 0.44));
    auto levelOne = [&](const ckks::Context& seeded) {
        auto ct = seeded.encrypt(std::span<const ckks::Complex>(z));
        ckks::Evaluator(seeded).dropToLevel(ct, 1);
        return ct;
    };
    for (const uint64_t seed : {7u, 21u, 42u}) {
        std::vector<std::vector<uint8_t>> outs;
        for (const size_t secondaries : {7u, 3u}) {
            ckks::Context seeded(distParams(), seed);
            DistributedBootstrapper multi(seeded, secondaries, brGadget);
            outs.push_back(ckks::saveCiphertext(
                multi.bootstrap(levelOne(seeded))));
        }
        for (const size_t workers : {1u, 4u}) {
            ckks::Context seeded(distParams(), seed);
            SchemeSwitchBootstrapper single(seeded, brGadget);
            single.setWorkers(workers);
            outs.push_back(ckks::saveCiphertext(
                single.bootstrap(levelOne(seeded))));
        }
        for (size_t i = 1; i < outs.size(); ++i) {
            EXPECT_TRUE(outs[i] == outs[0])
                << "seed " << seed << ", run " << i;
        }
    }
}

} // namespace
} // namespace heap::boot
