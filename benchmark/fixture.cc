#include "fixture.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "math/primes.h"

namespace heapbench {

using namespace heap;

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
    p.secretHamming = 16;
    return p;
}

rlwe::GadgetParams
brGadget()
{
    return rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6};
}

pir::PirParams
pirParams(size_t ringN)
{
    pir::PirParams pp;
    pp.basis = std::make_shared<math::RnsBasis>(
        ringN, math::generateNttPrimes(30, ringN, 2));
    pp.limbs = 2;
    pp.dims = {16, 16};
    pp.entries = 256;
    pp.payloadCoeffs = 8;
    pp.scaleBits = 35;
    pp.payloadBits = 16;
    pp.gadget = rlwe::GadgetParams{.baseBits = 5, .digitsPerLimb = 6};
    pp.validate();
    return pp;
}

std::vector<BootInput>
makeBootPool(const ckks::Context& ctx, uint64_t seed, size_t count)
{
    ckks::Evaluator ev(ctx);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<BootInput> pool;
    for (size_t r = 0; r < count; ++r) {
        BootInput in;
        for (size_t i = 0; i < 16; ++i) {
            in.message.emplace_back(1.2 * rng.uniformReal() - 0.6,
                                    0.6 * rng.uniformReal() - 0.3);
        }
        in.ct = ctx.encrypt(
            std::span<const ckks::Complex>(in.message));
        ev.dropToLevel(in.ct, 1);
        pool.push_back(std::move(in));
    }
    return pool;
}

double
slotError(const ckks::Context& ctx, const ckks::Ciphertext& out,
          const std::vector<ckks::Complex>& message)
{
    const auto got = ctx.decrypt(out);
    double worst = 0;
    for (size_t i = 0; i < message.size(); ++i) {
        worst = std::max(worst, std::abs(got.at(i) - message[i]));
    }
    return worst;
}

bool
sameBytes(const ckks::Ciphertext& a, const ckks::Ciphertext& b)
{
    return ckks::saveCiphertext(a) == ckks::saveCiphertext(b);
}

bool
sameWords(const rlwe::Ciphertext& a, const rlwe::Ciphertext& b)
{
    const auto eq = [](const math::RnsPoly& x, const math::RnsPoly& y) {
        return x.limbCount() == y.limbCount() && x.domain() == y.domain()
               && std::ranges::equal(x.flat(), y.flat());
    };
    return eq(a.a, b.a) && eq(a.b, b.b);
}

PirDatabase
makePirDatabase(size_t ringN, uint64_t seed)
{
    PirDatabase db;
    db.params = pirParams(ringN);
    db.entries = pir::randomDatabase(db.params, seed);
    db.server = std::make_unique<pir::PirServer>(db.params, db.entries);
    return db;
}

bool
PirQueries::exact(const PirDatabase& db, size_t i,
                  const rlwe::Ciphertext& answer) const
{
    return client->decode(answer) == db.entries.at(indices.at(i));
}

PirQueries
makePirQueries(const PirDatabase& db, uint64_t seed, size_t count)
{
    PirQueries q;
    Rng rng(seed * 0xbf58476d1ce4e5b9ULL + 7);
    q.sk = std::make_unique<rlwe::SecretKey>(
        rlwe::SecretKey::sampleTernary(db.params.basis, rng));
    q.client = std::make_unique<pir::PirClient>(db.params, *q.sk);
    for (size_t i = 0; i < count; ++i) {
        const size_t idx = rng.uniform(db.params.entries);
        q.indices.push_back(idx);
        q.queries.push_back(std::make_shared<const pir::PirQuery>(
            q.client->makeQuery(idx, rng)));
    }
    return q;
}

} // namespace heapbench
