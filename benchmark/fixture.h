/**
 * @file
 * What heapbench builds before it measures: the parameter sets, the
 * server-side set-up (contexts, keys, replicas, PIR database), the
 * client-side input pools made from the seed, and the checks every
 * output must pass.
 */

#ifndef HEAPBENCH_FIXTURE_H
#define HEAPBENCH_FIXTURE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "ckks/context.h"
#include "pir/pir.h"

namespace heapbench {

/** The functional library's bootstrapping ring: N = 64, two levels
 *  plus one auxiliary prime. */
heap::ckks::CkksParams bootParams();

/** Blind-rotate gadget of every bootstrapper here: 6 digits of 6 bits. */
heap::rlwe::GadgetParams brGadget();

/** PIR parameters over a 16 x 16 database of 256 entries, two
 *  30-bit limbs, at ring dimension `ringN`. */
heap::pir::PirParams pirParams(size_t ringN);

/**
 * Workers of boot_single's bootstrapper, and shares of the traced
 * rotate replay that mirrors it: one blind rotation per share, which
 * the HEAP_THREADS pool threads and the caller claim one at a time.
 * With four shares of 16 rotations the slowest vCPU of a shared host
 * set every bootstrap's latency, and runs of one commit spread by up
 * to 0.44; one-rotation shares let the faster cores take over the
 * slow one's work. A window then holds about the 100 samples its p90
 * needs (96 to 147 in the baseline sets).
 */
constexpr size_t kBootWorkers = 64;

/** Largest max-slot error a bootstrap output may show. */
constexpr double kMaxSlotError = 1e-2;

/** One level-1 bootstrap input and the slots it encrypts. */
struct BootInput {
    heap::ckks::Ciphertext ct;
    std::vector<heap::ckks::Complex> message;
};

/** `count` inputs with 16 random slots each, drawn from `seed`. */
std::vector<BootInput> makeBootPool(const heap::ckks::Context& ctx,
                                    uint64_t seed, size_t count);

/** Largest |decrypt(out)[i] - message[i]| over the message's slots. */
double slotError(const heap::ckks::Context& ctx,
                 const heap::ckks::Ciphertext& out,
                 const std::vector<heap::ckks::Complex>& message);

/** Whether two CKKS ciphertexts serialize to the same bytes. */
bool sameBytes(const heap::ckks::Ciphertext& a,
               const heap::ckks::Ciphertext& b);

/** Whether two RLWE ciphertexts hold the same words. */
bool sameWords(const heap::rlwe::Ciphertext& a,
               const heap::rlwe::Ciphertext& b);

/** Server side of a PIR deployment: the database, encoded once. */
struct PirDatabase {
    heap::pir::PirParams params;
    std::vector<std::vector<int64_t>> entries;
    std::unique_ptr<heap::pir::PirServer> server;
};

PirDatabase makePirDatabase(size_t ringN, uint64_t seed);

/** Client side: the secret key and a pool of encrypted lookups. */
struct PirQueries {
    std::unique_ptr<heap::rlwe::SecretKey> sk;
    std::unique_ptr<heap::pir::PirClient> client;
    std::vector<std::shared_ptr<const heap::pir::PirQuery>> queries;
    std::vector<size_t> indices; ///< database entry of each query

    /** Whether `answer` decodes exactly to query `i`'s entry. */
    bool exact(const PirDatabase& db, size_t i,
               const heap::rlwe::Ciphertext& answer) const;
};

/** `count` queries for entries drawn from `seed`. */
PirQueries makePirQueries(const PirDatabase& db, uint64_t seed,
                          size_t count);

} // namespace heapbench

#endif // HEAPBENCH_FIXTURE_H
