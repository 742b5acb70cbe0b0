/**
 * @file
 * google-benchmark microbenchmarks of this library's functional
 * kernels: scalar modular multiplication (naive / Barrett / Shoup —
 * the paper's Section IV-A design space), negacyclic NTT across
 * sizes, gadget external products, blind rotation, and repacking.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "math/kernels.h"
#include "math/modarith.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "rlwe/gadget.h"
#include "tfhe/blind_rotate.h"
#include "tfhe/repack.h"

namespace {

using namespace heap;

uint64_t
pickPrime(size_t n, int bits)
{
    return math::generateNttPrimes(bits, n, 1)[0];
}

void
BM_MulModNaive(benchmark::State& state)
{
    Rng rng(1);
    const uint64_t q = pickPrime(1024, 36);
    uint64_t a = rng.uniform(q), b = rng.uniform(q);
    for (auto _ : state) {
        a = math::mulModNaive(a | 1, b | 1, q);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_MulModNaive);

void
BM_MulModBarrett(benchmark::State& state)
{
    Rng rng(2);
    const uint64_t q = pickPrime(1024, 36);
    const math::BarrettReducer red(q);
    uint64_t a = rng.uniform(q), b = rng.uniform(q);
    for (auto _ : state) {
        a = red.mulMod(a | 1, b | 1);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_MulModBarrett);

void
BM_MulModShoup(benchmark::State& state)
{
    Rng rng(3);
    const uint64_t q = pickPrime(1024, 36);
    const uint64_t w = rng.uniform(q);
    const uint64_t ws = math::shoupPrecompute(w, q);
    uint64_t a = rng.uniform(q);
    for (auto _ : state) {
        a = math::mulModShoup(a | 1, w, ws, q);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_MulModShoup);

void
BM_NttForward(benchmark::State& state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const uint64_t q = pickPrime(n, 36);
    const math::NttTables ntt(n, q);
    Rng rng(4);
    std::vector<uint64_t> poly(n);
    for (auto& v : poly) {
        v = rng.uniform(q);
    }
    for (auto _ : state) {
        ntt.forward(poly);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NttForward)->Arg(256)->Arg(1024)->Arg(4096)->Arg(8192);

// Per-variant NTT throughput: the pinned portable table vs the
// dispatched SIMD table, same tables and data, reported as
// elements/s so the kernel variants can be compared directly.
void
nttVariantBench(benchmark::State& state, const math::KernelOps& ops)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const uint64_t q = pickPrime(n, 36);
    const math::NttTables ntt(n, q);
    Rng rng(4);
    std::vector<uint64_t> poly(n);
    for (auto& v : poly) {
        v = rng.uniform(q);
    }
    for (auto _ : state) {
        ops.nttForward(poly.data(), ntt.view());
        ops.nttInverse(poly.data(), ntt.view());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<int64_t>(n));
    state.SetLabel(std::string("variant=") +
                   math::simdLevelName(ops.level));
}

void
BM_NttRoundTripScalar(benchmark::State& state)
{
    nttVariantBench(state, math::scalarKernels());
}
BENCHMARK(BM_NttRoundTripScalar)->Arg(1024)->Arg(8192);

void
BM_NttRoundTripSimd(benchmark::State& state)
{
    nttVariantBench(state, math::kernels());
}
BENCHMARK(BM_NttRoundTripSimd)->Arg(1024)->Arg(8192);

void
BM_NttForwardOnTheFly(benchmark::State& state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const uint64_t q = pickPrime(n, 36);
    const math::NttTables ntt(n, q);
    Rng rng(4);
    std::vector<uint64_t> poly(n);
    for (auto& v : poly) {
        v = rng.uniform(q);
    }
    for (auto _ : state) {
        ntt.forwardOnTheFly(poly);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_NttForwardOnTheFly)->Arg(1024)->Arg(8192);

struct CryptoBench {
    size_t n = 256;
    std::shared_ptr<const math::RnsBasis> basis;
    Rng rng{7};
    std::unique_ptr<rlwe::SecretKey> sk;
    rlwe::GadgetParams gadget{.baseBits = 10, .digitsPerLimb = 3};

    CryptoBench()
    {
        basis = std::make_shared<math::RnsBasis>(
            n, math::generateNttPrimes(30, n, 2));
        sk = std::make_unique<rlwe::SecretKey>(
            rlwe::SecretKey::sampleTernary(basis, rng));
    }
};

void
BM_ExternalProduct(benchmark::State& state)
{
    CryptoBench cb;
    const auto C = rlwe::rgswEncryptConstant(*cb.sk, 1, cb.gadget, cb.rng);
    std::vector<int64_t> m(cb.n, 0);
    m[0] = 1 << 20;
    auto ct = rlwe::encrypt(*cb.sk,
                            math::rnsFromSigned(cb.basis, 2, m), cb.rng);
    ct.toCoeff();
    for (auto _ : state) {
        auto out = rlwe::externalProduct(ct, C);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ExternalProduct);

// One blind-rotation CMux step's fused pair at boot_single's shape:
// N = 64, three 30-bit limbs, a 6 x 6 gadget, Coeff accumulator.
void
BM_ExternalProductPair(benchmark::State& state)
{
    const size_t n = 64;
    const auto basis = std::make_shared<math::RnsBasis>(
        n, math::generateNttPrimes(30, n, 3));
    Rng rng(8);
    const auto sk = rlwe::SecretKey::sampleTernary(basis, rng);
    const rlwe::GadgetParams gadget{.baseBits = 6, .digitsPerLimb = 6};
    const auto C0 = rlwe::rgswEncryptConstant(sk, 1, gadget, rng);
    const auto C1 = rlwe::rgswEncryptConstant(sk, -1, gadget, rng);
    std::vector<int64_t> m(n, 0);
    m[0] = 1 << 20;
    auto ct = rlwe::encrypt(sk, math::rnsFromSigned(basis, 3, m), rng);
    ct.toCoeff();
    for (auto _ : state) {
        auto out = rlwe::externalProductPair(ct, C0, C1);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ExternalProductPair);

// One PIR fold CMux at pir_lookup's shape: N = 1024, two 30-bit limbs,
// a 5 x 6 gadget. Arg 0 selects between plaintext leaves (trivial
// encryptions, a = 0: the first fold level, whose zero a-half the
// gadget product skips) and arg 1 between two fresh ciphertexts (every
// later level).
void
BM_Cmux(benchmark::State& state)
{
    const size_t n = 1024;
    const auto basis = std::make_shared<math::RnsBasis>(
        n, math::generateNttPrimes(30, n, 2));
    Rng rng(9);
    const auto sk = rlwe::SecretKey::sampleTernary(basis, rng);
    const rlwe::GadgetParams gadget{.baseBits = 5, .digitsPerLimb = 6};
    const auto C = rlwe::rgswEncryptConstant(sk, 1, gadget, rng);
    std::vector<rlwe::Ciphertext> cts;
    for (int64_t v : {3, -5}) {
        std::vector<int64_t> m(n, 0);
        m[0] = v << 35;
        auto msg = math::rnsFromSigned(basis, 2, m);
        cts.push_back(state.range(0) == 0
                          ? rlwe::trivialEncrypt(std::move(msg))
                          : rlwe::encrypt(sk, msg, rng));
    }
    for (auto _ : state) {
        auto out = tfhe::cmux(C, cts[0], cts[1]);
        benchmark::DoNotOptimize(out);
    }
    state.SetLabel(state.range(0) == 0 ? "plaintext leaves"
                                       : "ciphertexts");
}
BENCHMARK(BM_Cmux)->Arg(0)->Arg(1);

// The pair's kernels per SIMD level, pinned through kernelsForLevel
// (a level the host lacks degrades; the label names the one that ran):
// args are (level, n, rows). Items are digit rows, so items/s compares
// the row-lane transform against one NTT per row directly.
const math::SimdLevel kBenchLevels[] = {
    math::SimdLevel::Scalar, math::SimdLevel::Avx2,
    math::SimdLevel::Avx512, math::SimdLevel::Neon};

// `perRow` runs the same rows through one liftSigned and one
// nttForward call each: the path liftNttRows replaces, for the
// row-lane crossover.
void
liftNttBench(benchmark::State& state, bool perRow)
{
    const math::KernelOps& ops =
        math::kernelsForLevel(kBenchLevels[state.range(0)]);
    const size_t n = static_cast<size_t>(state.range(1));
    const size_t rows = static_cast<size_t>(state.range(2));
    const math::NttTables ntt(n, pickPrime(n, 30));
    Rng rng(9);
    std::vector<int64_t> digits(rows * n);
    for (auto& v : digits) {
        v = static_cast<int64_t>(rng.uniform(64)) - 32;
    }
    std::vector<uint64_t> out(rows * n);
    for (auto _ : state) {
        if (perRow) {
            for (size_t r = 0; r < rows; ++r) {
                ops.liftSigned(out.data() + r * n, digits.data() + r * n,
                               n, ntt.modulus());
                ops.nttForward(out.data() + r * n, ntt.view());
            }
        } else {
            ops.liftNttRows(out.data(), digits.data(), rows, ntt.view());
        }
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(rows));
    state.SetLabel(math::simdLevelName(ops.level));
}

void
BM_LiftNttRows(benchmark::State& state)
{
    liftNttBench(state, false);
}
BENCHMARK(BM_LiftNttRows)
    ->ArgsProduct({{0, 1, 2, 3}, {64, 128, 256, 512, 1024}, {8, 36}});

void
BM_LiftNttPerRow(benchmark::State& state)
{
    liftNttBench(state, true);
}
BENCHMARK(BM_LiftNttPerRow)
    ->ArgsProduct({{2}, {64, 128, 256, 512, 1024}, {8, 36}});

void
BM_MacReduce(benchmark::State& state)
{
    const math::KernelOps& ops =
        math::kernelsForLevel(kBenchLevels[state.range(0)]);
    const size_t n = static_cast<size_t>(state.range(1));
    const size_t sums = 4;
    const math::BarrettReducer red(pickPrime(n, 30));
    Rng rng(10);
    std::vector<std::vector<uint64_t>> keys(sums);
    std::vector<const uint64_t*> key;
    for (auto& k : keys) {
        k.resize(n);
        for (auto& v : k) {
            v = rng.uniform(red.modulus());
        }
        key.push_back(k.data());
    }
    std::vector<uint64_t> acc(2 * sums * n);
    std::vector<uint64_t> out(sums * n);
    uint64_t* dst[sums];
    for (size_t c = 0; c < sums; ++c) {
        dst[c] = out.data() + c * n;
    }
    uint64_t terms = 0;
    for (int i = 0; i < 36; ++i) {
        ops.macLazy(acc.data(), terms, keys[i % sums].data(), key.data(), 1,
                    sums, n, red);
    }
    for (auto _ : state) {
        ops.macReduce(dst, acc.data(), sums, n, red);
        benchmark::ClobberMemory();
    }
    state.SetLabel(math::simdLevelName(ops.level));
}
BENCHMARK(BM_MacReduce)->ArgsProduct({{0, 1, 2, 3}, {64, 1024}});

// One output limb of the pair's MAC at boot_single's shape (36 rows,
// 4 sums, n = 64), handed over `arg` rows per macLazy call: 36 is the
// gadget product's row group, 1 the per-row calls it replaced.
void
BM_MacLazyGroup(benchmark::State& state)
{
    const math::KernelOps& ops =
        math::kernelsForLevel(math::SimdLevel::Avx512);
    const size_t n = 64, sums = 4, rows = 36;
    const size_t perCall = static_cast<size_t>(state.range(0));
    const math::BarrettReducer red(pickPrime(n, 30));
    Rng rng(11);
    std::vector<uint64_t> data((rows + rows * sums) * n);
    for (auto& v : data) {
        v = rng.uniform(red.modulus());
    }
    std::vector<const uint64_t*> keys(rows * sums);
    for (size_t i = 0; i < keys.size(); ++i) {
        keys[i] = data.data() + (rows + i) * n;
    }
    std::vector<uint64_t> acc(2 * sums * n);
    for (auto _ : state) {
        uint64_t terms = 0;
        for (size_t r = 0; r < rows; r += perCall) {
            ops.macLazy(acc.data(), terms, data.data() + r * n,
                        keys.data() + r * sums, perCall, sums, n, red);
        }
        benchmark::ClobberMemory();
    }
    state.SetLabel(math::simdLevelName(ops.level));
}
BENCHMARK(BM_MacLazyGroup)->Arg(1)->Arg(36);

// The elementwise kernels and the digit split per SIMD level: the
// measurement behind keeping a hand-written body or the portable loop
// (DESIGN.md, "Flat kernels"). Args are (level, op, n, q bits); the
// label names the level that ran and the op. Add, sub, neg and the
// Shoup pair run in place (dst == a), as RnsPoly's in-place ops call
// them; the split takes balanced digits of B = 2^6 (six of them for a
// 30-bit q, ten for 59 bits), boot_single's gadget.
const char* const kElementwiseOps[] = {"add",   "sub",        "neg",
                                       "lift",  "shoup",      "shoupAccum",
                                       "split"};

void
BM_Elementwise(benchmark::State& state)
{
    const math::KernelOps& ops =
        math::kernelsForLevel(kBenchLevels[state.range(0)]);
    const int64_t op = state.range(1);
    const size_t n = static_cast<size_t>(state.range(2));
    const int bits = static_cast<int>(state.range(3));
    const uint64_t q = pickPrime(n, bits);
    Rng rng(12);
    std::vector<uint64_t> a(n), b(n);
    std::vector<int64_t> digits(10 * n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = rng.uniform(q);
        b[i] = rng.uniform(q);
        digits[i] = static_cast<int64_t>(rng.uniform(64)) - 32;
    }
    const uint64_t w = rng.uniform(q);
    const uint64_t ws = math::shoupPrecompute(w, q);
    const int splitDigits = bits / 6 + 1;
    for (auto _ : state) {
        switch (op) {
        case 0:
            ops.addMod(a.data(), a.data(), b.data(), n, q);
            break;
        case 1:
            ops.subMod(a.data(), a.data(), b.data(), n, q);
            break;
        case 2:
            ops.negMod(a.data(), a.data(), n, q);
            break;
        case 3:
            ops.liftSigned(b.data(), digits.data(), n, q);
            break;
        case 4:
            ops.mulScalarShoup(a.data(), a.data(), w, ws, n, q);
            break;
        case 5:
            ops.mulScalarShoupAccum(a.data(), b.data(), w, ws, n, q);
            break;
        default:
            ops.splitDigits(digits.data(), a.data(), n, q, 6, splitDigits,
                            true);
        }
        benchmark::DoNotOptimize(a.data());
        benchmark::DoNotOptimize(b.data());
        benchmark::DoNotOptimize(digits.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
    state.SetLabel(std::string(math::simdLevelName(ops.level)) + " "
                   + kElementwiseOps[op]);
}
BENCHMARK(BM_Elementwise)
    ->ArgsProduct({{0, 1, 2, 3},
                   {0, 1, 2, 3, 4, 5, 6},
                   {64, 1024, 8192},
                   {30, 59}});

void
BM_KeySwitch(benchmark::State& state)
{
    CryptoBench cb;
    auto sk2 = rlwe::SecretKey::sampleTernary(cb.basis, cb.rng);
    const auto ksk = rlwe::makeKeySwitchKey(
        *cb.sk, math::rnsFromSigned(cb.basis, cb.basis->size(),
                                    sk2.coeffs()),
        cb.gadget, cb.rng);
    std::vector<int64_t> m(cb.n, 1 << 18);
    const auto ct = rlwe::encrypt(
        sk2, math::rnsFromSigned(cb.basis, 2, m), cb.rng);
    for (auto _ : state) {
        auto out = rlwe::switchKey(ct, ksk);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_KeySwitch);

void
BM_BlindRotate(benchmark::State& state)
{
    CryptoBench cb;
    const size_t dim = static_cast<size_t>(state.range(0));
    const auto lweKey = lwe::LweSecretKey::sampleTernary(dim, cb.rng);
    const auto brk =
        tfhe::makeBlindRotateKey(*cb.sk, lweKey.coeffs, cb.gadget,
                                 cb.rng);
    const auto f = tfhe::buildIdentityTestPoly(cb.basis, 2, 1 << 16);
    const auto lwe = lwe::lweEncrypt(17, lweKey, 2 * cb.n, cb.rng, 0.5);
    for (auto _ : state) {
        auto acc = tfhe::blindRotate(lwe, f, brk);
        benchmark::DoNotOptimize(acc);
    }
    state.SetLabel("n_t=" + std::to_string(dim));
}
BENCHMARK(BM_BlindRotate)->Arg(8)->Arg(32)->Arg(64);

void
BM_PackRlwes(benchmark::State& state)
{
    CryptoBench cb;
    const size_t count = static_cast<size_t>(state.range(0));
    const auto keys =
        tfhe::makePackingKeys(*cb.sk, count, cb.gadget, cb.rng);
    std::vector<rlwe::Ciphertext> cts;
    for (size_t i = 0; i < count; ++i) {
        std::vector<int64_t> m(cb.n, 0);
        m[0] = static_cast<int64_t>(i) << 12;
        auto ct = rlwe::encrypt(
            *cb.sk, math::rnsFromSigned(cb.basis, 2, m), cb.rng);
        ct.toCoeff();
        cts.push_back(std::move(ct));
    }
    for (auto _ : state) {
        auto packed = tfhe::packRlwes(cts, keys);
        benchmark::DoNotOptimize(packed);
    }
}
BENCHMARK(BM_PackRlwes)->Arg(4)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
