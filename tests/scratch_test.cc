/**
 * @file
 * Thread-local scratch arena: LIFO frame semantics, span stability
 * across chunk growth, and the no-allocation steady state of the hot
 * paths that borrow from it (rescale, gadget apply / external
 * product, the fused CMux step, key switching, CMux and blind
 * rotation).
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "math/primes.h"
#include "math/rns.h"
#include "math/scratch.h"
#include "rlwe/gadget.h"
#include "tfhe/blind_rotate.h"

namespace {

using namespace heap;
using namespace heap::math;

TEST(ScratchArena, FramesReleaseInLifoOrder)
{
    ScratchArena& arena = ScratchArena::instance();
    ScratchFrame outer;
    auto a = outer.borrow(100);
    a[0] = 7;
    a[99] = 8;
    {
        ScratchFrame inner;
        auto b = inner.borrow(200);
        b[0] = 1;
        // Inner borrows must not alias the outer frame's live span.
        EXPECT_NE(a.data(), b.data());
        EXPECT_EQ(7u, a[0]);
    }
    // After the inner frame died, the outer span is still intact and
    // the arena hands back the space the inner frame used.
    EXPECT_EQ(7u, a[0]);
    EXPECT_EQ(8u, a[99]);
    auto c = outer.borrow(200);
    c[0] = 2;
    EXPECT_EQ(7u, a[0]);
    (void)arena;
}

TEST(ScratchArena, SpansSurviveChunkGrowth)
{
    ScratchFrame frame;
    // First borrow fits the initial chunk; the huge second borrow
    // forces a fresh chunk. The first span must remain valid (chunks
    // are never recycled while a frame holds marks into them).
    auto small = frame.borrow(64);
    for (size_t i = 0; i < small.size(); ++i) {
        small[i] = i;
    }
    auto huge = frame.borrow(1u << 20);
    huge[0] = 1;
    huge[huge.size() - 1] = 2;
    for (size_t i = 0; i < small.size(); ++i) {
        EXPECT_EQ(i, small[i]);
    }
}

TEST(ScratchArena, BorrowedBlocksAreCacheLineAligned)
{
    ScratchFrame frame;
    for (const size_t words : {1u, 3u, 8u, 100u, 4096u}) {
        auto s = frame.borrow(words);
        EXPECT_EQ(0u,
                  reinterpret_cast<uintptr_t>(s.data()) % 64)
            << words;
        ASSERT_GE(s.size(), words);
    }
    auto sg = frame.borrowSigned(17);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(sg.data()) % 64);
}

TEST(ScratchArena, ArenasAreThreadLocal)
{
    ScratchFrame frame;
    auto mine = frame.borrow(32);
    mine[0] = 42;
    std::thread other([] {
        ScratchFrame f;
        auto theirs = f.borrow(32);
        theirs[0] = 7; // separate arena: cannot clobber ours
    });
    other.join();
    EXPECT_EQ(42u, mine[0]);
}

// The no-allocation guarantee: once the arena has warmed up, repeated
// passes through the scratch-using hot paths (rescale, external
// product, fused CMux step, key switching, CMux, blind rotation) must
// not grow it.
TEST(ScratchSteadyState, HotPathsDoNotGrowArenaAfterWarmup)
{
    const size_t n = 256;
    const auto basis = std::make_shared<RnsBasis>(
        n, generateNttPrimes(30, n, 3));
    Rng rng(9);
    const auto sk = rlwe::SecretKey::sampleTernary(basis, rng);
    const rlwe::GadgetParams gadget{.baseBits = 10, .digitsPerLimb = 3};
    const auto C = rlwe::rgswEncryptConstant(sk, 1, gadget, rng);

    std::vector<int64_t> m(n, 0);
    m[0] = 1 << 20;
    auto ct = rlwe::encrypt(sk, rnsFromSigned(basis, 2, m), rng);
    ct.toCoeff();

    const std::vector<int64_t> lweSecret = {1, 0, -1, 1};
    const auto brk = tfhe::makeBlindRotateKey(sk, lweSecret, gadget, rng);
    const auto f = tfhe::buildIdentityTestPoly(basis, 2, 1000);
    lwe::LweCiphertext lwe;
    lwe.modulus = 2 * n;
    lwe.a = {5, 0, 300, 511};
    lwe.b = 17;

    const auto ksk = rlwe::makeAutomorphismKey(sk, 5, gadget, rng);

    auto pass = [&] {
        auto out = rlwe::externalProduct(ct, C);
        auto pair = rlwe::externalProductPair(ct, C, C);
        auto switched = rlwe::switchKey(ct, ksk);
        auto chosen = tfhe::cmux(C, out, pair.first);
        auto acc = tfhe::blindRotate(lwe, f, brk);
        RnsPoly p(basis, 3, Domain::Eval);
        p.rescaleLastLimb();
    };

    // Warm up twice (chunk growth and any lazy caches), then the
    // counter must hold steady.
    pass();
    pass();
    const size_t warmed = scratchGrowthCount();
    for (int i = 0; i < 5; ++i) {
        pass();
    }
    EXPECT_EQ(warmed, scratchGrowthCount());
}

} // namespace
