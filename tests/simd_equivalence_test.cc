/**
 * @file
 * Byte-identity of every SIMD kernel variant against the strict
 * scalar oracle, fuzzed across seeds, ring dimensions and limb
 * counts. The library's contract (math/kernels.h) is that the
 * dispatched lazy-reduction kernels are indistinguishable from the
 * strict scalar path at every kernel boundary — these tests enforce
 * it with memcmp, not modular equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "math/kernels.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "math/rns.h"

namespace {

using namespace heap;
using namespace heap::math;

const SimdLevel kAllLevels[] = {SimdLevel::Scalar, SimdLevel::Avx2,
                                SimdLevel::Avx512, SimdLevel::Neon};

std::vector<uint64_t>
randomPoly(size_t n, uint64_t q, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> v(n);
    for (auto& x : v) {
        x = rng.uniform(q);
    }
    return v;
}

// The strict scalar reference path (NttTables::forwardScalar /
// inverseScalar) vs every level's lazy kernel, across sizes, modulus
// widths (both sides of the 2^50 IFMA boundary) and seeds.
TEST(SimdEquivalence, NttMatchesStrictScalarOracle)
{
    for (const size_t n : {size_t{1024}, size_t{4096}, size_t{32768}}) {
        for (const int bits : {30, 36, 49, 60}) {
            const uint64_t q = generateNttPrimes(bits, n, 1)[0];
            const NttTables tab(n, q);
            for (const uint64_t seed : {11u, 22u, 33u}) {
                const auto input = randomPoly(n, q, seed);

                auto oracle = input;
                tab.forwardScalar(oracle);
                for (const SimdLevel lvl : kAllLevels) {
                    auto a = input;
                    kernelsForLevel(lvl).nttForward(a.data(), tab.view());
                    ASSERT_EQ(0, std::memcmp(a.data(), oracle.data(),
                                             n * sizeof(uint64_t)))
                        << "forward mismatch: level="
                        << simdLevelName(lvl) << " n=" << n
                        << " bits=" << bits << " seed=" << seed;
                }

                auto back = oracle;
                tab.inverseScalar(back);
                for (const SimdLevel lvl : kAllLevels) {
                    auto a = oracle;
                    kernelsForLevel(lvl).nttInverse(a.data(), tab.view());
                    ASSERT_EQ(0, std::memcmp(a.data(), back.data(),
                                             n * sizeof(uint64_t)))
                        << "inverse mismatch: level="
                        << simdLevelName(lvl) << " n=" << n
                        << " bits=" << bits << " seed=" << seed;
                }
                // Round trip must reproduce the input exactly.
                ASSERT_EQ(0, std::memcmp(back.data(), input.data(),
                                         n * sizeof(uint64_t)));
            }
        }
    }
}

// Pointwise kernels: every variant vs the scalar table, including
// non-multiple-of-lane-width tails.
TEST(SimdEquivalence, PointwiseKernelsMatchScalar)
{
    const KernelOps& ref = scalarKernels();
    for (const size_t n : {size_t{251}, size_t{1024}, size_t{4099}}) {
        for (const int bits : {30, 49, 60}) {
            const uint64_t q = generateNttPrimes(
                bits, 8192, 1)[0]; // any prime < 2^bits works here
            const BarrettReducer red(q);
            for (const uint64_t seed : {5u, 6u}) {
                const auto a = randomPoly(n, q, seed);
                const auto b = randomPoly(n, q, seed + 100);
                Rng rng(seed + 200);
                const uint64_t w = rng.uniform(q);
                const uint64_t ws = shoupPrecompute(w, q);
                std::vector<int64_t> digits(n);
                for (auto& d : digits) {
                    d = static_cast<int64_t>(rng.uniform(2048)) - 1024;
                }

                std::vector<uint64_t> want(n), got(n);
                for (const SimdLevel lvl : kAllLevels) {
                    const KernelOps& ops = kernelsForLevel(lvl);
                    const char* name = simdLevelName(lvl);

                    ref.mulMod(want.data(), a.data(), b.data(), n, red);
                    ops.mulMod(got.data(), a.data(), b.data(), n, red);
                    ASSERT_EQ(want, got) << "mulMod " << name;

                    want = b;
                    got = b;
                    ref.mulModAccum(want.data(), a.data(), b.data(), n,
                                    red);
                    ops.mulModAccum(got.data(), a.data(), b.data(), n,
                                    red);
                    ASSERT_EQ(want, got) << "mulModAccum " << name;

                    ref.addMod(want.data(), a.data(), b.data(), n, q);
                    ops.addMod(got.data(), a.data(), b.data(), n, q);
                    ASSERT_EQ(want, got) << "addMod " << name;

                    ref.subMod(want.data(), a.data(), b.data(), n, q);
                    ops.subMod(got.data(), a.data(), b.data(), n, q);
                    ASSERT_EQ(want, got) << "subMod " << name;

                    ref.negMod(want.data(), a.data(), n, q);
                    ops.negMod(got.data(), a.data(), n, q);
                    ASSERT_EQ(want, got) << "negMod " << name;

                    ref.mulScalarShoup(want.data(), a.data(), w, ws, n,
                                       q);
                    ops.mulScalarShoup(got.data(), a.data(), w, ws, n,
                                       q);
                    ASSERT_EQ(want, got) << "mulScalarShoup " << name;

                    want = b;
                    got = b;
                    ref.mulScalarShoupAccum(want.data(), a.data(), w,
                                            ws, n, q);
                    ops.mulScalarShoupAccum(got.data(), a.data(), w,
                                            ws, n, q);
                    ASSERT_EQ(want, got)
                        << "mulScalarShoupAccum " << name;

                    ref.liftSigned(want.data(), digits.data(), n, q);
                    ops.liftSigned(got.data(), digits.data(), n, q);
                    ASSERT_EQ(want, got) << "liftSigned " << name;
                }
            }
        }
    }
}

/**
 * Runs `terms` rows through one level's gadget MAC (macLazy, then
 * macReduce): row i is rows[i % R] against keys[(i % R) * sums + c]
 * for R = rows.size(), handed to macLazy `chunk` rows per call (the
 * gadget product passes a whole row group). Returns the reduced sums
 * back to back.
 */
std::vector<uint64_t>
runMac(const KernelOps& ops, const std::vector<std::vector<uint64_t>>& rows,
       const std::vector<std::vector<uint64_t>>& keys, size_t sums,
       size_t terms, const BarrettReducer& red, size_t chunk = 1)
{
    const size_t n = rows[0].size();
    AlignedU64 acc(2 * sums * n);
    uint64_t count = 0;
    std::vector<uint64_t> block(chunk * n);
    std::vector<const uint64_t*> k(chunk * sums);
    for (size_t i = 0; i < terms; i += chunk) {
        const size_t m = std::min(chunk, terms - i);
        for (size_t j = 0; j < m; ++j) {
            const size_t r = (i + j) % rows.size();
            std::copy(rows[r].begin(), rows[r].end(), block.data() + j * n);
            for (size_t c = 0; c < sums; ++c) {
                k[j * sums + c] = keys[r * sums + c].data();
            }
        }
        ops.macLazy(acc.data(), count, block.data(), k.data(), m, sums, n,
                    red);
    }
    std::vector<uint64_t> out(sums * n);
    std::vector<uint64_t*> dst(sums);
    for (size_t c = 0; c < sums; ++c) {
        dst[c] = out.data() + c * n;
    }
    ops.macReduce(dst.data(), acc.data(), sums, n, red);
    return out;
}

// The gadget MAC on the operands that grow its lazy sums fastest:
// every word q - 1 (the largest product, (q-1)^2 = 1 mod q, so every
// sum reduces to terms mod q), and x * k = -1 mod 2^52 (the largest
// low half, which fills the IFMA lo lane fastest). The 52-bit q runs
// exactly the IFMA budget, one term past it (the mid-loop fold must
// fire) and two budgets of the scalar rule floor((2^64 - 1) / q) =
// 4096, which would wrap lo after its first fold. The 49-bit q takes
// the IFMA MAC's vector reduction (q < 2^kIfmaMaxModulusBits) at the
// fullest lanes the budget allows; the 52-bit q reduces them with the
// scalar Barrett. The 62-bit q is past the IFMA bound, so that level
// must take the scalar fallback. Rows go in one per call and in
// groups of 36, so a budget fold also lands inside one call.
TEST(SimdEquivalence, GadgetMacMatchesScalarAtItsBudget)
{
    const KernelOps& ref = scalarKernels();
    for (const size_t n : {size_t{8}, size_t{64}, size_t{1024}}) {
        for (const int bits : {49, 52, 62}) {
            const uint64_t q = generateNttPrimes(bits, n, 1)[0];
            const BarrettReducer red(q);
            // The odd x < q whose k = -x^-1 mod 2^52 is below q too.
            const uint64_t mask52 = (uint64_t{1} << 52) - 1;
            uint64_t x = q - 2;
            uint64_t k = 0;
            for (;; x -= 2) {
                uint64_t inv = x; // Newton: inv = x^-1 mod 2^64
                for (int it = 0; it < 6; ++it) {
                    inv *= 2 - x * inv;
                }
                k = (0 - inv) & mask52;
                if (k < q) {
                    break;
                }
            }
            ASSERT_EQ(mask52, (x * k) & mask52);
            const std::vector<uint64_t> ones(n, q - 1);
            const std::vector<uint64_t> xs(n, x);
            const std::vector<uint64_t> ks(n, k);
            for (const size_t sums : {size_t{2}, size_t{4}}) {
                for (const size_t terms :
                     {size_t{kIfmaMacBudget}, size_t{kIfmaMacBudget + 1},
                      size_t{2 * (kIfmaMacBudget + 1)}}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "n=" << n << " bits=" << bits
                                 << " sums=" << sums << " terms=" << terms);
                    const std::vector<std::vector<uint64_t>> maxRows = {
                        ones};
                    const std::vector<std::vector<uint64_t>> maxKeys(
                        sums, ones);
                    const auto want =
                        runMac(ref, maxRows, maxKeys, sums, terms, red);
                    ASSERT_EQ(want,
                              std::vector<uint64_t>(sums * n, terms % q));

                    const std::vector<std::vector<uint64_t>> loRows = {xs};
                    const std::vector<std::vector<uint64_t>> loKeys(sums,
                                                                    ks);
                    const auto wantLo =
                        runMac(ref, loRows, loKeys, sums, terms, red);
                    ASSERT_EQ(wantLo,
                              std::vector<uint64_t>(
                                  sums * n,
                                  red.mulMod(terms % q, red.mulMod(x, k))));

                    for (const SimdLevel lvl : kAllLevels) {
                        const KernelOps& ops = kernelsForLevel(lvl);
                        for (const size_t chunk : {size_t{1}, size_t{36}}) {
                            const auto got = runMac(ops, maxRows, maxKeys,
                                                    sums, terms, red, chunk);
                            ASSERT_EQ(0,
                                      std::memcmp(got.data(), want.data(),
                                                  want.size() * 8))
                                << "q - 1 operands, level "
                                << simdLevelName(lvl) << " chunk " << chunk;
                            const auto gotLo = runMac(ops, loRows, loKeys,
                                                      sums, terms, red, chunk);
                            ASSERT_EQ(0, std::memcmp(gotLo.data(),
                                                     wantLo.data(),
                                                     wantLo.size() * 8))
                                << "low-half operands, level "
                                << simdLevelName(lvl) << " chunk " << chunk;
                        }
                    }
                }
            }
        }
    }
}

// The gadget MAC on random rows and distinct keys per sum (so a sum
// read from the wrong lanes shows), every level against the scalar
// pair and a product-by-product oracle, on both sides of the IFMA
// bound and at an n that whole vectors do not cover (n = 12, the
// scalar fallback).
TEST(SimdEquivalence, GadgetMacMatchesScalarOnRandomRows)
{
    const KernelOps& ref = scalarKernels();
    const size_t terms = 37;
    for (const size_t n : {size_t{12}, size_t{64}, size_t{1024}}) {
        for (const int bits : {30, 36, 51, 52, 62}) {
            const uint64_t q = generateNttPrimes(bits, 8192, 1)[0];
            const BarrettReducer red(q);
            for (const size_t sums : {size_t{1}, size_t{2}, size_t{4}}) {
                SCOPED_TRACE(::testing::Message()
                             << "n=" << n << " bits=" << bits
                             << " sums=" << sums);
                const uint64_t seed = n * 1000 + bits * 10 + sums;
                std::vector<std::vector<uint64_t>> rows;
                std::vector<std::vector<uint64_t>> keys;
                for (size_t i = 0; i < terms; ++i) {
                    rows.push_back(randomPoly(n, q, seed + 7919 * i));
                    for (size_t c = 0; c < sums; ++c) {
                        keys.push_back(randomPoly(
                            n, q, seed + 7919 * i + 104729 * (c + 1)));
                    }
                }
                std::vector<uint64_t> oracle(sums * n, 0);
                for (size_t i = 0; i < terms; ++i) {
                    for (size_t c = 0; c < sums; ++c) {
                        for (size_t t = 0; t < n; ++t) {
                            oracle[c * n + t] = addMod(
                                oracle[c * n + t],
                                red.mulMod(rows[i][t], keys[i * sums + c][t]),
                                q);
                        }
                    }
                }
                ASSERT_EQ(runMac(ref, rows, keys, sums, terms, red), oracle);
                for (const SimdLevel lvl : kAllLevels) {
                    for (const size_t chunk : {size_t{1}, size_t{8}, terms}) {
                        const auto got = runMac(kernelsForLevel(lvl), rows,
                                                keys, sums, terms, red, chunk);
                        ASSERT_EQ(0, std::memcmp(got.data(), oracle.data(),
                                                 oracle.size() * 8))
                            << "level " << simdLevelName(lvl) << " chunk "
                            << chunk;
                    }
                }
            }
        }
    }
}

// The gadget product's digit transform: every level's liftNttRows
// against the scalar body and against liftSigned + forwardScalar row
// by row. Ring sizes straddle the row-lane bound (kIfmaRowLanesMaxN);
// counts leave short groups of 8 and run several groups; the 30-bit
// and 49-bit moduli take the IFMA row lanes (at 49 bits their
// butterflies must reduce the sums), the 52-bit one the per-row
// fallback. Digits sit at the balanced ties +-B/2 for B = 2^6, at the
// extremes +-(q - 1), and anywhere in between.
TEST(SimdEquivalence, LiftNttRowsMatchesScalar)
{
    const KernelOps& ref = scalarKernels();
    for (const size_t n : {8, 16, 32, 64, 128, 256, 512, 1024}) {
        for (const int bits : {30, 49, 52}) {
            const uint64_t q = generateNttPrimes(bits, n, 1)[0];
            const NttTables tab(n, q);
            const int64_t top = static_cast<int64_t>(q - 1);
            const int64_t pinned[] = {0, 32, -32, 31, -31, top, -top, 1, -1};
            for (const size_t count :
                 {1, 2, 3, 4, 5, 6, 7, 8, 12, 18, 36}) {
                SCOPED_TRACE(::testing::Message() << "n=" << n << " bits="
                                                  << bits << " count="
                                                  << count);
                Rng rng(n * 1000 + bits * 100 + count);
                std::vector<int64_t> digits(count * n);
                for (auto& d : digits) {
                    switch (rng.uniform(3)) {
                    case 0:
                        d = pinned[rng.uniform(std::size(pinned))];
                        break;
                    case 1:
                        d = static_cast<int64_t>(rng.uniform(65)) - 32;
                        break;
                    default:
                        d = static_cast<int64_t>(rng.uniform(2 * q - 1))
                            - top;
                    }
                }
                std::vector<uint64_t> oracle(count * n);
                for (size_t r = 0; r < count; ++r) {
                    std::vector<uint64_t> row(n);
                    ref.liftSigned(row.data(), digits.data() + r * n, n, q);
                    tab.forwardScalar(row);
                    std::copy(row.begin(), row.end(),
                              oracle.begin() + r * n);
                }
                std::vector<uint64_t> got(count * n);
                ref.liftNttRows(got.data(), digits.data(), count,
                                tab.view());
                ASSERT_EQ(0, std::memcmp(got.data(), oracle.data(),
                                         oracle.size() * 8))
                    << "scalar body";
                for (const SimdLevel lvl : kAllLevels) {
                    std::fill(got.begin(), got.end(), ~uint64_t{0});
                    kernelsForLevel(lvl).liftNttRows(
                        got.data(), digits.data(), count, tab.view());
                    ASSERT_EQ(0, std::memcmp(got.data(), oracle.data(),
                                             oracle.size() * 8))
                        << "level " << simdLevelName(lvl);
                }
            }
        }
    }
}

// Multi-limb RnsPoly transforms through the dispatched table: the
// eval/coeff round trip must be exact for 1..8 limbs, and the eval
// representation must match the strict per-limb oracle byte-for-byte.
TEST(SimdEquivalence, RnsPolyRoundTripAcrossLimbCounts)
{
    const size_t n = 1024;
    for (size_t limbs = 1; limbs <= 8; ++limbs) {
        const auto basis = std::make_shared<RnsBasis>(
            n, generateNttPrimes(36, n, limbs));
        for (const uint64_t seed : {3u, 4u}) {
            RnsPoly p(basis, limbs, Domain::Coeff);
            Rng rng(seed);
            for (size_t i = 0; i < limbs; ++i) {
                auto limb = p.limb(i);
                for (auto& x : limb) {
                    x = rng.uniform(basis->modulus(i));
                }
            }
            const RnsPoly original = p;

            p.toEval();
            for (size_t i = 0; i < limbs; ++i) {
                std::vector<uint64_t> oracle(
                    original.limb(i).begin(), original.limb(i).end());
                basis->ntt(i).forwardScalar(oracle);
                ASSERT_EQ(0, std::memcmp(p.limb(i).data(),
                                         oracle.data(),
                                         n * sizeof(uint64_t)))
                    << "limb " << i << " of " << limbs;
            }

            p.toCoeff();
            for (size_t i = 0; i < limbs; ++i) {
                ASSERT_EQ(0, std::memcmp(p.limb(i).data(),
                                         original.limb(i).data(),
                                         n * sizeof(uint64_t)))
                    << "round trip limb " << i << " of " << limbs;
            }
        }
    }
}

} // namespace
