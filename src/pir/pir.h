/**
 * @file
 * Encrypted lookup (PIR) on the RGSW substrate — the ROADMAP's
 * "second tenant class" workload, in the style of OnionPIR's RGSW
 * query folding: the client encrypts a database index as per-dimension
 * RGSW selection bits (the existing gadget encoding), and the server
 * folds a plaintext database through dimension-by-dimension CMux
 * trees (each CMux = one external product, the same primitive
 * BlindRotate iterates) down to ONE RLWE ciphertext answer.
 *
 * Protocol shape:
 *  - The database's T = prod(dims) cells are laid out mixed-radix
 *    with the dimension-0 digit fastest-varying: cell index
 *    t = (((u_{d-1}) * D_{d-2} + ...) * D_0) + u_0.
 *  - The query carries log2(D_k) RGSW bit encryptions per dimension
 *    (LSB first) — log2(T) RGSW ciphertexts total, vs T RLWE
 *    ciphertexts for the naive 1-dimensional packing.
 *  - Folding dimension 0 collapses each group of D_0 adjacent cells
 *    (trivial RLWE encryptions of the plaintext cells) through a
 *    CMux tree selecting the u_0-th; the surviving T / D_0
 *    ciphertexts are then folded by dimension 1, and so on. After
 *    all d dimensions one ciphertext encrypting cell u remains.
 *
 * Exactness: entries are scaled by Delta = 2^scaleBits at encoding
 * time; decoding rounds the decrypted phase to the nearest multiple
 * of Delta, so lookups are BIT-EXACT as long as the accumulated fold
 * noise stays below Delta/2. answerBudgetBits() reports the analytic
 * margin (bits between the guard-scaled noise and the rounding
 * boundary) — the serving layer's noise-budget floor.
 *
 * Determinism: the server side is pure arithmetic on the query and
 * the plaintext cells — no RNG, no data-dependent branching — so a
 * folded answer is byte-identical however the fold is scheduled
 * (monolithic, per-group work items, any worker count, after
 * failover). tests/pir_test.cc and tests/pir_serve_test.cc pin this.
 */

#ifndef HEAP_PIR_PIR_H
#define HEAP_PIR_PIR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rlwe/gadget.h"
#include "rlwe/rlwe.h"

namespace heap::pir {

/** Protocol parameters shared by client and server. */
struct PirParams {
    std::shared_ptr<const math::RnsBasis> basis;
    /** Active RNS limbs of the answer ciphertext. */
    size_t limbs = 2;
    /** Per-dimension sizes, each a power of two >= 2; their product
     *  is the cell count and must cover `entries`. */
    std::vector<size_t> dims;
    /** Logical database entries (<= prod(dims); the tail cells are
     *  zero-padded). */
    size_t entries = 0;
    /** Coefficients of payload per entry (<= ring dimension). */
    size_t payloadCoeffs = 8;
    /** Entry values are encoded as v * 2^scaleBits; decoding rounds
     *  to the nearest multiple, which is what makes lookups exact. */
    int scaleBits = 35;
    /** Payload values must satisfy |v| < 2^payloadBits. */
    int payloadBits = 16;
    /** RGSW gadget for the query bits. */
    rlwe::GadgetParams gadget{.baseBits = 5, .digitsPerLimb = 6};
    /** Client-side encryption noise width (the noise model input). */
    double keyErrStdDev = math::kErrorStdDev;
    /** Guard margin: the budget floor measures the gap between
     *  guardMarginSigmas * foldSigma() and the Delta/2 boundary. */
    double guardMarginSigmas = 6.0;

    /** Validates shape and that the noise budget floor is positive:
     *  dims are powers of two covering `entries`, the payload fits
     *  the ring and the modulus, and answerBudgetBits() > 0. */
    void validate() const;

    size_t totalCells() const;
    /** log2(dims[k]): RGSW selection bits for dimension k. */
    size_t dimBitCount(size_t k) const;
    /** Total RGSW bits in one query: log2(totalCells()). */
    size_t queryBitCount() const;
    /** Dimension-0 groups = totalCells / dims[0]: the independent
     *  first-pass work items the serving layer schedules. */
    size_t firstDimGroups() const;

    /**
     * Analytic phase-noise stddev of a folded answer: one external
     * product per CMux level on the selected path (queryBitCount()
     * levels), each contributing gadget noise from limbs * d * N
     * digit terms at the key's error width.
     */
    double foldSigma() const;

    /**
     * Noise-budget floor of an answer, in bits:
     * log2(Delta/2) - log2(guardMarginSigmas * foldSigma()). Positive
     * means the guard-scaled fold noise clears the exact-rounding
     * boundary with that many bits to spare.
     */
    double answerBudgetBits() const;
};

/** One encrypted index: per-dimension RGSW selection bits. */
struct PirQuery {
    /** dimBits[k][j] = RGSW(bit j of digit u_k), LSB first. */
    std::vector<std::vector<rlwe::RgswCiphertext>> dimBits;

    size_t
    bitCount() const
    {
        size_t total = 0;
        for (const auto& d : dimBits) {
            total += d.size();
        }
        return total;
    }
};

/** Client half: owns the secret key, packs queries, decodes answers. */
class PirClient {
  public:
    /** @param sk borrowed; must outlive the client and live on
     *         params.basis. */
    PirClient(PirParams params, const rlwe::SecretKey& sk);

    /** Encrypts `index` (< params.entries) as per-dimension RGSW
     *  selection bits. */
    PirQuery makeQuery(size_t index, Rng& rng) const;

    /** Decrypts and descales an answer to the exact payload values
     *  (payloadCoeffs of them). */
    std::vector<int64_t> decode(const rlwe::Ciphertext& answer) const;

    const PirParams& params() const { return params_; }

  private:
    PirParams params_;
    const rlwe::SecretKey* sk_;
};

/**
 * Server half: the plaintext database, encoded once at construction
 * (scaled RNS cells in Coeff domain), folded per query. Stateless
 * across queries and deterministic: answer() is const and safe to
 * call from many worker threads concurrently.
 */
class PirServer {
  public:
    /** @param entries one payload vector per logical entry (values
     *         within +-2^payloadBits, at most payloadCoeffs each;
     *         shorter vectors are zero-padded). */
    PirServer(PirParams params,
              const std::vector<std::vector<int64_t>>& entries);

    /** Folds every dimension: the one-ciphertext answer. */
    rlwe::Ciphertext answer(const PirQuery& query) const;

    /**
     * Serving decomposition, byte-identical to answer(): dimension 0
     * folds as firstDimGroups() independent work items (one CMux tree
     * over D_0 plaintext cells each), then finishFold() folds the
     * remaining dimensions over the collected group results.
     */
    rlwe::Ciphertext foldFirstGroup(const PirQuery& query,
                                    size_t group) const;
    rlwe::Ciphertext
    finishFold(const PirQuery& query,
               std::vector<rlwe::Ciphertext> firstPass) const;

    /** Shape-checks a query against the parameters (throws
     *  UserError): dimension count, per-dimension bit counts, and
     *  every RGSW half's gadget, row count (basis limbs x digits per
     *  limb), and rows (the protocol's basis, all limbs, Eval) — the
     *  shape PirClient::makeQuery produces. A query that passes
     *  cannot fail a fold on its shape. */
    void validateQuery(const PirQuery& query) const;

    const PirParams& params() const { return params_; }
    size_t firstDimGroups() const { return params_.firstDimGroups(); }

    /** The analytic per-answer budget floor (params shortcut). */
    double answerBudgetBits() const
    {
        return params_.answerBudgetBits();
    }

  private:
    /** One CMux-tree fold of `table` by `bits` (size log2(D)):
     *  collapses every D adjacent ciphertexts to the u-th. */
    std::vector<rlwe::Ciphertext>
    foldDimension(std::vector<rlwe::Ciphertext> table,
                  const std::vector<rlwe::RgswCiphertext>& bits) const;

    PirParams params_;
    std::vector<math::RnsPoly> cells_; ///< scaled, Coeff domain
};

/** Deterministic pseudo-random database for tests and benches:
 *  entries x payloadCoeffs values in (-2^payloadBits, 2^payloadBits),
 *  derived from `seed` with a fixed platform-independent mix. */
std::vector<std::vector<int64_t>>
randomDatabase(const PirParams& params, uint64_t seed);

} // namespace heap::pir

#endif // HEAP_PIR_PIR_H
