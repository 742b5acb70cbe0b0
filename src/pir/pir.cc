#include "pir/pir.h"

#include <cmath>

#include "common/check.h"
#include "tfhe/blind_rotate.h"

namespace heap::pir {

namespace {

bool
isPowerOfTwo(size_t x)
{
    return x >= 1 && (x & (x - 1)) == 0;
}

size_t
log2Exact(size_t x)
{
    size_t bits = 0;
    while ((size_t{1} << bits) < x) {
        ++bits;
    }
    return bits;
}

/** splitmix64 finalizer (the repo's fixed platform-independent mix). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

size_t
PirParams::totalCells() const
{
    size_t total = 1;
    for (const size_t d : dims) {
        total *= d;
    }
    return total;
}

size_t
PirParams::dimBitCount(size_t k) const
{
    return log2Exact(dims.at(k));
}

size_t
PirParams::queryBitCount() const
{
    size_t total = 0;
    for (size_t k = 0; k < dims.size(); ++k) {
        total += dimBitCount(k);
    }
    return total;
}

size_t
PirParams::firstDimGroups() const
{
    return totalCells() / dims.at(0);
}

double
PirParams::foldSigma() const
{
    const double base = std::pow(2.0, gadget.baseBits);
    const double digitVar = gadget.balanced
                                ? base * base / 12.0
                                : base * base / 12.0
                                      + base * base / 4.0;
    const double terms = static_cast<double>(limbs)
                         * static_cast<double>(gadget.digitsPerLimb)
                         * static_cast<double>(basis->n());
    const double perProduct = keyErrStdDev * std::sqrt(terms * digitVar);
    // One external product per CMux level on the selected path; the
    // selected branch's noise rides through each level unscaled
    // (mu in {0, 1}), so the level noises add in variance.
    return perProduct
           * std::sqrt(static_cast<double>(queryBitCount()));
}

double
PirParams::answerBudgetBits() const
{
    const double delta = std::pow(2.0, scaleBits);
    return std::log2(delta / 2.0)
           - std::log2(guardMarginSigmas * foldSigma());
}

void
PirParams::validate() const
{
    HEAP_CHECK(basis != nullptr, "PIR params need a basis");
    HEAP_CHECK(limbs >= 1 && limbs <= basis->size(),
               "PIR limbs " << limbs << " out of range");
    HEAP_CHECK(!dims.empty(), "PIR needs at least one dimension");
    for (const size_t d : dims) {
        HEAP_CHECK(d >= 2 && isPowerOfTwo(d),
                   "PIR dimension size " << d
                                         << " must be a power of two "
                                            ">= 2");
    }
    HEAP_CHECK(entries >= 1 && entries <= totalCells(),
               "PIR entries " << entries << " must be in [1, "
                              << totalCells() << "]");
    HEAP_CHECK(payloadCoeffs >= 1 && payloadCoeffs <= basis->n(),
               "PIR payloadCoeffs " << payloadCoeffs
                                    << " exceeds the ring");
    HEAP_CHECK(scaleBits >= 2 && payloadBits >= 1,
               "PIR scale/payload bits must be positive");
    HEAP_CHECK(scaleBits + payloadBits <= 61,
               "PIR scaled payload overflows int64 encoding");
    // Scaled payload plus fold noise must stay within the modulus:
    // |v * Delta| < 2^(payloadBits + scaleBits) and the decoder reads
    // centered representatives, so demand one spare bit under Q/2.
    const double logQ = basis->logQ(limbs);
    HEAP_CHECK(static_cast<double>(scaleBits + payloadBits) + 2.0
                   <= logQ,
               "PIR payload * scale needs "
                   << (scaleBits + payloadBits + 2)
                   << " bits but the modulus has " << logQ);
    gadget.validateFor(*basis);
    HEAP_CHECK(guardMarginSigmas > 0, "PIR guard margin must be > 0");
    HEAP_CHECK(answerBudgetBits() > 0,
               "PIR parameters leave no noise budget: "
                   << answerBudgetBits()
                   << " bits (deepen the scale or shrink the fold)");
}

PirClient::PirClient(PirParams params, const rlwe::SecretKey& sk)
    : params_(std::move(params)), sk_(&sk)
{
    params_.validate();
    HEAP_CHECK(sk_->basisPtr()->n() == params_.basis->n(),
               "PIR client key ring does not match the parameters");
}

PirQuery
PirClient::makeQuery(size_t index, Rng& rng) const
{
    HEAP_CHECK(index < params_.entries,
               "PIR index " << index << " out of range (entries = "
                            << params_.entries << ")");
    const rlwe::NoiseParams noise{params_.keyErrStdDev};
    PirQuery q;
    q.dimBits.resize(params_.dims.size());
    size_t rem = index;
    for (size_t k = 0; k < params_.dims.size(); ++k) {
        const size_t digit = rem % params_.dims[k];
        rem /= params_.dims[k];
        const size_t bits = params_.dimBitCount(k);
        q.dimBits[k].reserve(bits);
        for (size_t j = 0; j < bits; ++j) {
            q.dimBits[k].push_back(rlwe::rgswEncryptConstant(
                *sk_, static_cast<int64_t>((digit >> j) & 1),
                params_.gadget, rng, noise));
        }
    }
    return q;
}

std::vector<int64_t>
PirClient::decode(const rlwe::Ciphertext& answer) const
{
    const std::vector<int64_t> dec = rlwe::decryptSigned(answer, *sk_);
    const int64_t delta = int64_t{1} << params_.scaleBits;
    const int64_t half = delta / 2;
    std::vector<int64_t> out(params_.payloadCoeffs, 0);
    for (size_t i = 0; i < params_.payloadCoeffs; ++i) {
        const int64_t c = dec.at(i);
        // Round to the nearest multiple of Delta in exact integer
        // arithmetic (the phase fits int64 by validate()'s bound).
        out[i] = (c >= 0 ? c + half : c - half) / delta;
    }
    return out;
}

PirServer::PirServer(PirParams params,
                     const std::vector<std::vector<int64_t>>& entries)
    : params_(std::move(params))
{
    params_.validate();
    HEAP_CHECK(entries.size() == params_.entries,
               "PIR database has " << entries.size()
                                   << " entries, parameters say "
                                   << params_.entries);
    const int64_t delta = int64_t{1} << params_.scaleBits;
    const int64_t bound = int64_t{1} << params_.payloadBits;
    const size_t n = params_.basis->n();
    cells_.reserve(params_.totalCells());
    std::vector<int64_t> coeffs(n, 0);
    for (size_t t = 0; t < params_.totalCells(); ++t) {
        std::fill(coeffs.begin(), coeffs.end(), 0);
        if (t < entries.size()) {
            const auto& e = entries[t];
            HEAP_CHECK(e.size() <= params_.payloadCoeffs,
                       "PIR entry " << t << " has " << e.size()
                                    << " values, payloadCoeffs is "
                                    << params_.payloadCoeffs);
            for (size_t i = 0; i < e.size(); ++i) {
                HEAP_CHECK(e[i] > -bound && e[i] < bound,
                           "PIR entry " << t << " value " << e[i]
                                        << " exceeds payloadBits");
                coeffs[i] = e[i] * delta;
            }
        }
        cells_.push_back(
            math::rnsFromSigned(params_.basis, params_.limbs, coeffs));
    }
}

void
PirServer::validateQuery(const PirQuery& query) const
{
    HEAP_CHECK(query.dimBits.size() == params_.dims.size(),
               "PIR query has " << query.dimBits.size()
                                << " dimensions, parameters say "
                                << params_.dims.size());
    const math::RnsBasis* basis = params_.basis.get();
    const rlwe::GadgetParams& g = params_.gadget;
    const size_t rows = basis->size() * static_cast<size_t>(g.digitsPerLimb);
    const auto validPoly = [&](const math::RnsPoly& x) {
        return &x.basis() == basis && x.limbCount() == basis->size()
               && x.domain() == math::Domain::Eval;
    };
    for (size_t k = 0; k < params_.dims.size(); ++k) {
        HEAP_CHECK(query.dimBits[k].size() == params_.dimBitCount(k),
                   "PIR query dimension "
                       << k << " carries " << query.dimBits[k].size()
                       << " bits, expected " << params_.dimBitCount(k));
        for (size_t j = 0; j < query.dimBits[k].size(); ++j) {
            const rlwe::RgswCiphertext& bit = query.dimBits[k][j];
            for (const rlwe::GadgetCiphertext* half : {&bit.forB, &bit.forA}) {
                const rlwe::GadgetParams& hp = half->params();
                HEAP_CHECK(hp.baseBits == g.baseBits
                               && hp.digitsPerLimb == g.digitsPerLimb
                               && hp.balanced == g.balanced,
                           "PIR query bit (" << k << ", " << j
                                             << ") uses a foreign gadget");
                HEAP_CHECK(half->rowCount() == rows,
                           "PIR query bit (" << k << ", " << j << ") has "
                                             << half->rowCount()
                                             << " gadget rows, expected "
                                             << rows);
                for (size_t r = 0; r < rows; ++r) {
                    const rlwe::Ciphertext& row = half->row(
                        r / g.digitsPerLimb, r % g.digitsPerLimb);
                    HEAP_CHECK(validPoly(row.a) && validPoly(row.b),
                               "PIR query bit ("
                                   << k << ", " << j << ") row " << r
                                   << " is not a full-basis Eval "
                                   << "polynomial of the protocol ring");
                }
            }
        }
    }
}

std::vector<rlwe::Ciphertext>
PirServer::foldDimension(
    std::vector<rlwe::Ciphertext> table,
    const std::vector<rlwe::RgswCiphertext>& bits) const
{
    for (const rlwe::RgswCiphertext& bit : bits) {
        std::vector<rlwe::Ciphertext> next;
        next.reserve(table.size() / 2);
        for (size_t i = 0; i + 1 < table.size(); i += 2) {
            next.push_back(tfhe::cmux(bit, table[i], table[i + 1]));
        }
        table = std::move(next);
    }
    return table;
}

rlwe::Ciphertext
PirServer::foldFirstGroup(const PirQuery& query, size_t group) const
{
    validateQuery(query);
    HEAP_CHECK(group < params_.firstDimGroups(),
               "PIR group " << group << " out of range");
    const size_t d0 = params_.dims[0];
    std::vector<rlwe::Ciphertext> leaves;
    leaves.reserve(d0);
    for (size_t j = 0; j < d0; ++j) {
        leaves.push_back(rlwe::trivialEncrypt(cells_[group * d0 + j]));
    }
    std::vector<rlwe::Ciphertext> folded =
        foldDimension(std::move(leaves), query.dimBits[0]);
    HEAP_ASSERT(folded.size() == 1, "dimension fold did not collapse");
    return std::move(folded[0]);
}

rlwe::Ciphertext
PirServer::finishFold(const PirQuery& query,
                      std::vector<rlwe::Ciphertext> firstPass) const
{
    validateQuery(query);
    HEAP_CHECK(firstPass.size() == params_.firstDimGroups(),
               "PIR finishFold got " << firstPass.size()
                                     << " group results, expected "
                                     << params_.firstDimGroups());
    std::vector<rlwe::Ciphertext> table = std::move(firstPass);
    for (size_t k = 1; k < params_.dims.size(); ++k) {
        table = foldDimension(std::move(table), query.dimBits[k]);
    }
    HEAP_ASSERT(table.size() == 1, "PIR fold did not collapse");
    return std::move(table[0]);
}

rlwe::Ciphertext
PirServer::answer(const PirQuery& query) const
{
    validateQuery(query);
    const size_t groups = params_.firstDimGroups();
    std::vector<rlwe::Ciphertext> firstPass;
    firstPass.reserve(groups);
    for (size_t g = 0; g < groups; ++g) {
        firstPass.push_back(foldFirstGroup(query, g));
    }
    return finishFold(query, std::move(firstPass));
}

std::vector<std::vector<int64_t>>
randomDatabase(const PirParams& params, uint64_t seed)
{
    const int64_t bound = (int64_t{1} << params.payloadBits) - 1;
    const uint64_t range = 2 * static_cast<uint64_t>(bound) + 1;
    std::vector<std::vector<int64_t>> db(params.entries);
    for (size_t t = 0; t < params.entries; ++t) {
        db[t].resize(params.payloadCoeffs);
        for (size_t i = 0; i < params.payloadCoeffs; ++i) {
            const uint64_t h =
                mix64(seed ^ mix64(static_cast<uint64_t>(t) * 0x10001
                                   + static_cast<uint64_t>(i)));
            db[t][i] = static_cast<int64_t>(h % range) - bound;
        }
    }
    return db;
}

} // namespace heap::pir
