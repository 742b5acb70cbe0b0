/**
 * @file
 * Core encrypted-lookup (PIR) correctness: server-folded answers
 * decrypt to the EXACT database entry for every queried index, for
 * seeds {7, 21, 42}, a >= 64-entry database, and >= 2 dimensions;
 * the monolithic fold and the serving decomposition (per-group first
 * pass + finishFold) are byte-identical; the analytic noise-budget
 * floor is positive and honest against the measured phase error.
 */

#include <gtest/gtest.h>

#include "ckks/serialize.h"
#include "math/primes.h"
#include "pir/pir.h"

namespace heap {
namespace {

pir::PirParams
smallParams(std::vector<size_t> dims, size_t entries)
{
    const size_t n = 64;
    pir::PirParams p;
    p.basis = std::make_shared<math::RnsBasis>(
        n, math::generateNttPrimes(30, n, 2));
    p.limbs = 2;
    p.dims = std::move(dims);
    p.entries = entries;
    p.payloadCoeffs = 8;
    p.scaleBits = 35;
    p.payloadBits = 16;
    p.gadget = rlwe::GadgetParams{.baseBits = 5, .digitsPerLimb = 6};
    return p;
}

std::vector<uint8_t>
answerBytes(const rlwe::Ciphertext& ct)
{
    ByteWriter w;
    ckks::saveRlwe(ct, w);
    return w.bytes();
}

TEST(PirParams, ShapeAccessors)
{
    const pir::PirParams p = smallParams({8, 8}, 64);
    EXPECT_EQ(p.totalCells(), 64u);
    EXPECT_EQ(p.dimBitCount(0), 3u);
    EXPECT_EQ(p.queryBitCount(), 6u);
    EXPECT_EQ(p.firstDimGroups(), 8u);
    EXPECT_GT(p.foldSigma(), 0.0);
    EXPECT_GT(p.answerBudgetBits(), 0.0);
    EXPECT_NO_THROW(p.validate());
}

TEST(PirParams, RejectsBadShapes)
{
    pir::PirParams p = smallParams({8, 8}, 64);
    p.dims = {3, 8};
    EXPECT_THROW(p.validate(), UserError);
    p = smallParams({8, 8}, 65);
    EXPECT_THROW(p.validate(), UserError);
    p = smallParams({8, 8}, 64);
    p.payloadCoeffs = 65; // > ring dimension
    EXPECT_THROW(p.validate(), UserError);
    p = smallParams({8, 8}, 64);
    p.scaleBits = 50; // payload * scale no longer fits the modulus
    EXPECT_THROW(p.validate(), UserError);
    p = smallParams({8, 8}, 64);
    p.scaleBits = 8; // fold noise eats the rounding margin
    EXPECT_THROW(p.validate(), UserError);
}

TEST(PirLookup, ExactForEveryIndexTwoDims)
{
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        const pir::PirParams p = smallParams({8, 8}, 64);
        Rng rng(seed);
        const auto sk = rlwe::SecretKey::sampleTernary(p.basis, rng);
        const auto db = pir::randomDatabase(p, seed);
        const pir::PirServer server(p, db);
        const pir::PirClient client(p, sk);
        for (size_t index = 0; index < p.entries; ++index) {
            const pir::PirQuery q = client.makeQuery(index, rng);
            const rlwe::Ciphertext ans = server.answer(q);
            EXPECT_EQ(client.decode(ans), db[index])
                << "seed " << seed << " index " << index;
        }
    }
}

TEST(PirLookup, ExactThreeDimsUnevenRadix)
{
    // 4 x 8 x 2 = 64 cells, only 50 logical entries (zero-padded
    // tail), multi-coefficient payloads.
    const pir::PirParams p = smallParams({4, 8, 2}, 50);
    Rng rng(21);
    const auto sk = rlwe::SecretKey::sampleTernary(p.basis, rng);
    const auto db = pir::randomDatabase(p, 99);
    const pir::PirServer server(p, db);
    const pir::PirClient client(p, sk);
    for (size_t index = 0; index < p.entries; index += 7) {
        const pir::PirQuery q = client.makeQuery(index, rng);
        EXPECT_EQ(client.decode(server.answer(q)), db[index])
            << "index " << index;
    }
}

TEST(PirLookup, DecompositionMatchesMonolithicByteExactly)
{
    const pir::PirParams p = smallParams({8, 8}, 64);
    Rng rng(42);
    const auto sk = rlwe::SecretKey::sampleTernary(p.basis, rng);
    const auto db = pir::randomDatabase(p, 42);
    const pir::PirServer server(p, db);
    const pir::PirClient client(p, sk);
    for (const size_t index : {size_t{0}, size_t{13}, size_t{63}}) {
        const pir::PirQuery q = client.makeQuery(index, rng);
        const rlwe::Ciphertext mono = server.answer(q);
        std::vector<rlwe::Ciphertext> firstPass;
        // Collect groups in REVERSE order: the schedule must not
        // matter, only the group indexing.
        firstPass.resize(server.firstDimGroups());
        for (size_t g = server.firstDimGroups(); g-- > 0;) {
            firstPass[g] = server.foldFirstGroup(q, g);
        }
        const rlwe::Ciphertext staged =
            server.finishFold(q, std::move(firstPass));
        EXPECT_EQ(answerBytes(mono), answerBytes(staged))
            << "index " << index;
    }
}

TEST(PirLookup, MeasuredNoiseWithinAnalyticBudget)
{
    const pir::PirParams p = smallParams({8, 8}, 64);
    Rng rng(7);
    const auto sk = rlwe::SecretKey::sampleTernary(p.basis, rng);
    const auto db = pir::randomDatabase(p, 7);
    const pir::PirServer server(p, db);
    const pir::PirClient client(p, sk);
    const int64_t delta = int64_t{1} << p.scaleBits;
    const double guardNoise = p.guardMarginSigmas * p.foldSigma();
    int64_t worst = 0;
    for (size_t index = 0; index < p.entries; index += 5) {
        const pir::PirQuery q = client.makeQuery(index, rng);
        const auto dec = rlwe::decryptSigned(server.answer(q), sk);
        for (size_t i = 0; i < p.payloadCoeffs; ++i) {
            const int64_t err = dec[i] - db[index][i] * delta;
            worst = std::max(worst, std::abs(err));
        }
    }
    // The measured fold error must sit inside the guard-scaled
    // analytic envelope the budget floor is computed from (and hence
    // far inside the Delta/2 exactness boundary).
    EXPECT_LT(static_cast<double>(worst), guardNoise);
    EXPECT_LT(static_cast<double>(worst),
              static_cast<double>(delta) / 2.0);
    EXPECT_GT(p.answerBudgetBits(), 0.0);
}

TEST(PirQueryValidation, MismatchedQueryRejected)
{
    const pir::PirParams p = smallParams({8, 8}, 64);
    Rng rng(7);
    const auto sk = rlwe::SecretKey::sampleTernary(p.basis, rng);
    const pir::PirServer server(p, pir::randomDatabase(p, 7));
    const pir::PirClient client(p, sk);
    pir::PirQuery q = client.makeQuery(3, rng);
    q.dimBits.pop_back();
    EXPECT_THROW(server.answer(q), UserError);
    q = client.makeQuery(3, rng);
    q.dimBits[1].pop_back();
    EXPECT_THROW(server.answer(q), UserError);
    EXPECT_THROW(client.makeQuery(p.entries, rng), UserError);
}

TEST(PirQueryValidation, MalformedRgswRowsRejected)
{
    const pir::PirParams p = smallParams({8, 8}, 64);
    Rng rng(21);
    const auto sk = rlwe::SecretKey::sampleTernary(p.basis, rng);
    const pir::PirServer server(p, pir::randomDatabase(p, 21));
    const pir::PirClient client(p, sk);
    const pir::PirQuery good = client.makeQuery(5, rng);
    EXPECT_NO_THROW(server.validateQuery(good));
    const size_t d = static_cast<size_t>(p.gadget.digitsPerLimb);

    // Rows of one gadget half, optionally edited.
    const auto rowsOf = [&](const rlwe::GadgetCiphertext& half) {
        std::vector<rlwe::Ciphertext> rows;
        for (size_t r = 0; r < half.rowCount(); ++r) {
            rows.push_back(half.row(r / d, r % d));
        }
        return rows;
    };
    const auto expectRejected = [&](auto edit, const char* what) {
        pir::PirQuery q = good;
        edit(q.dimBits[0][0]);
        EXPECT_THROW(server.validateQuery(q), UserError) << what;
        EXPECT_THROW(server.answer(q), UserError) << what;
    };

    expectRejected(
        [&](rlwe::RgswCiphertext& bit) {
            auto rows = rowsOf(bit.forB);
            rows.resize(d); // one limb's rows
            bit.forB = rlwe::GadgetCiphertext(rows, p.gadget);
        },
        "too few rows");
    expectRejected(
        [&](rlwe::RgswCiphertext& bit) {
            auto rows = rowsOf(bit.forA);
            rows.push_back(rows.back());
            bit.forA = rlwe::GadgetCiphertext(rows, p.gadget);
        },
        "too many rows");
    expectRejected(
        [&](rlwe::RgswCiphertext& bit) {
            rlwe::GadgetParams g = p.gadget;
            g.baseBits += 1;
            bit.forB = rlwe::GadgetCiphertext(rowsOf(bit.forB), g);
        },
        "foreign gadget");
    expectRejected(
        [&](rlwe::RgswCiphertext& bit) {
            auto rows = rowsOf(bit.forB);
            rows[1].a.toCoeff();
            bit.forB = rlwe::GadgetCiphertext(rows, p.gadget);
        },
        "Coeff-domain row");
    expectRejected(
        [&](rlwe::RgswCiphertext& bit) {
            auto rows = rowsOf(bit.forA);
            rows[0].b = rows[0].b.restrictedTo(1);
            bit.forA = rlwe::GadgetCiphertext(rows, p.gadget);
        },
        "truncated row");
    // Same primes, another basis object: a query for another ring.
    const auto foreign = std::make_shared<math::RnsBasis>(
        p.basis->n(), math::generateNttPrimes(30, p.basis->n(), 2));
    expectRejected(
        [&](rlwe::RgswCiphertext& bit) {
            auto rows = rowsOf(bit.forB);
            rows[2].a = math::RnsPoly(foreign, foreign->size(),
                                      math::Domain::Eval);
            bit.forB = rlwe::GadgetCiphertext(rows, p.gadget);
        },
        "foreign basis");
}

TEST(PirDatabase, RandomDatabaseDeterministic)
{
    const pir::PirParams p = smallParams({8, 8}, 64);
    EXPECT_EQ(pir::randomDatabase(p, 7), pir::randomDatabase(p, 7));
    EXPECT_NE(pir::randomDatabase(p, 7), pir::randomDatabase(p, 8));
}

} // namespace
} // namespace heap
