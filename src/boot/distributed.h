/**
 * @file
 * The Section V multi-node bootstrap protocol, functionally: a
 * primary node modulus-switches and extracts, streams *serialized*
 * LWE batches to secondary nodes over byte-counting links, each
 * secondary blind-rotates its share, the serialized accumulators
 * stream back, and the primary repacks and finishes. Every byte that
 * would cross the paper's 100G CMAC links is accounted for, so the
 * functional traffic can be checked against the hardware model's
 * communication terms.
 *
 * The links are unreliable on demand: a seeded FaultSpec makes a
 * SimulatedLink drop, truncate, bit-flip, duplicate, reorder, or
 * delay messages, and the primary's retry protocol (framing + CRC,
 * per-batch timeout with bounded exponential backoff, NACK-and-resend,
 * dead-secondary reclaim) guarantees that any fault pattern below the
 * retry cap degrades only latency, never the bootstrap output. See
 * DESIGN.md "Fault model".
 */

#ifndef HEAP_BOOT_DISTRIBUTED_H
#define HEAP_BOOT_DISTRIBUTED_H

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "boot/algorithm2.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "tfhe/blind_rotate.h"
#include "tfhe/repack.h"

namespace heap::boot {

/**
 * Seeded fault-injection policy for a SimulatedLink. Each probability
 * is evaluated independently per send() from the link's dedicated RNG
 * stream (never heap::Rng), so a given (spec, seed) pair produces the
 * same fault pattern for the same message sequence regardless of how
 * many worker threads drive the protocol.
 */
struct FaultSpec {
    double drop = 0;      ///< message lost on the wire
    double truncate = 0;  ///< tail bytes cut off
    double bitflip = 0;   ///< one random bit inverted
    double duplicate = 0; ///< delivered twice
    double reorder = 0;   ///< jumps ahead of queued messages
    double delay = 0;     ///< held back for up to maxDelayPolls polls
    size_t maxDelayPolls = 3; ///< bound on the modeled latency
    uint64_t seed = 1;        ///< base seed for the fault RNG stream

    bool
    enabled() const
    {
        return drop > 0 || truncate > 0 || bitflip > 0 || duplicate > 0
               || reorder > 0 || delay > 0;
    }
};

/**
 * One-directional byte-counting message channel (a CMAC link).
 * Thread-safe: concurrent senders/receivers serialize on an internal
 * mutex, so the byte accounting stays exact under the parallel batch
 * schedule. With a FaultSpec installed, send() may mangle, drop,
 * duplicate, reorder, or delay the message; bytesTransferred() always
 * counts what the sender put on the wire.
 */
class SimulatedLink {
  public:
    void send(std::vector<uint8_t> message);

    /** Delivers the next queued message; throws when none is queued. */
    std::vector<uint8_t> receive();

    /**
     * One receive poll: ages every delayed message by one tick, then
     * delivers the first ready message, or nullopt when none is ready
     * (empty link, or everything still delayed).
     */
    std::optional<std::vector<uint8_t>> tryReceive();

    /** Installs a fault policy with the given RNG stream seed. */
    void setFaults(const FaultSpec& spec, uint64_t seed);

    /** Restores the reliable (fault-free) behaviour. */
    void clearFaults();

    /** Discards all queued messages (counters are kept). */
    void clear();

    size_t
    bytesTransferred() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return bytes_;
    }

    size_t
    messageCount() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return messages_;
    }

    bool
    empty() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return queue_.empty();
    }

  private:
    struct Pending {
        std::vector<uint8_t> bytes;
        size_t delay = 0; ///< polls until deliverable
    };

    mutable std::mutex m_;
    std::vector<Pending> queue_;
    FaultSpec faults_{};
    bool haveFaults_ = false;
    Rng faultRng_{1};
    size_t bytes_ = 0;
    size_t messages_ = 0;
};

/**
 * A secondary node (Section V): references the shared blind-rotate
 * keys and test polynomial (which must outlive it), consumes
 * serialized LWE batches, produces serialized blind-rotated
 * accumulators.
 */
class SecondaryNode {
  public:
    SecondaryNode(std::shared_ptr<const math::RnsBasis> basis,
                  const tfhe::BlindRotateKey* brk,
                  const math::RnsPoly* testPoly);

    /**
     * Deserializes a batch, blind-rotates each ciphertext (key-major
     * schedule), returns the serialized results. Throws UserError —
     * naming the offending batch offset — when a payload LWE does not
     * belong to this node's basis (modulus != 2N or wrong dimension).
     */
    std::vector<uint8_t> processBatch(
        std::span<const uint8_t> batch) const;

    /** LWE ciphertexts processed so far. */
    size_t
    processed() const
    {
        return processed_.load(std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<const math::RnsBasis> basis_;
    const tfhe::BlindRotateKey* brk_;
    const math::RnsPoly* testPoly_;
    // Atomic: processBatch runs concurrently for different batches
    // when the primary drives the protocol with multiple workers.
    mutable std::atomic<size_t> processed_{0};
};

/**
 * Parses a secondary's reply payload and validates it against the
 * batch the primary actually sent: the declared accumulator count
 * must equal `expectedCount` *before* anything is written, so a
 * corrupt or malicious reply throws UserError instead of writing out
 * of bounds. Per-accumulator decode failures name the batch offset.
 */
std::vector<rlwe::Ciphertext> loadAccumulatorReply(
    std::span<const uint8_t> payload, size_t expectedCount,
    std::shared_ptr<const math::RnsBasis> basis);

/**
 * Retry parameters of the primary's per-batch exchange. "Polls" are
 * the simulated-time unit: one poll pumps each link once (and ages
 * delayed messages by one tick). The timeout for attempt k is
 * min(maxPolls, basePolls << k) — bounded exponential backoff.
 */
struct RetryPolicy {
    size_t maxRetries = 6; ///< resends per batch beyond the first send
    size_t basePolls = 4;  ///< first-attempt timeout, in polls
    size_t maxPolls = 64;  ///< backoff cap, in polls
};

/**
 * Outcome of one batch exchange (exchangeRotate), reduced into a
 * DistributedTraffic by bootstrap() and by the serving layer.
 */
struct ExchangeStats {
    size_t lweBytesOut = 0;
    size_t accBytesIn = 0;
    size_t wireOut = 0;
    size_t wireIn = 0;
    size_t retransmits = 0;
    size_t nacks = 0;
    size_t corruptFrames = 0;
    size_t duplicateFrames = 0;
    bool dead = false;
};

/** Per-bootstrap communication accounting. */
struct DistributedTraffic {
    size_t lweBytesOut = 0; ///< goodput: accepted batch frames
    size_t accBytesIn = 0;  ///< goodput: accepted reply frames
    size_t batches = 0;
    size_t wireBytesOut = 0; ///< effective bytes primary -> secondaries
    size_t wireBytesIn = 0;  ///< effective bytes secondaries -> primary
    size_t retransmits = 0;  ///< batch frames resent (timeout or NACK)
    size_t nacks = 0;        ///< NACK frames sent (both directions)
    size_t corruptFrames = 0;   ///< frames rejected by magic/length/CRC
    size_t duplicateFrames = 0; ///< well-formed frames dropped as dups
    size_t reclaimedBatches = 0; ///< shares blind-rotated locally
    size_t deadSecondaries = 0;  ///< nodes that exhausted their retries
};

/**
 * Primary node + protocol driver. Key material is generated once and
 * (conceptually) replicated to the secondaries, as in the paper's
 * deployment where every FPGA is loaded with the same RTL and keys;
 * in this process the secondaries and every replica reference one
 * immutable BootstrapKeys.
 */
class DistributedBootstrapper {
  public:
    DistributedBootstrapper(
        const ckks::Context& ctx, size_t secondaries,
        rlwe::GadgetParams brGadget = {.baseBits = 0,
                                       .digitsPerLimb = 0});

    /**
     * Replica constructor: a new pod loaded with `other`'s key
     * material — the paper's deployment, where keys are generated
     * once and replicated to every FPGA group. Shares other's
     * context (which must outlive the replica) and its immutable
     * blind-rotate/packing keys and test polynomial (no copy), so the
     * replica's bootstrap outputs are byte-identical to other's;
     * links, secondaries, fault policy, and traffic accounting are
     * its own. Draws nothing from the context RNG.
     */
    DistributedBootstrapper(const DistributedBootstrapper& other,
                            size_t secondaries);

    /**
     * Runs Algorithm 2 with the blind rotations fanned out across the
     * secondaries (the primary keeps an equal share). Tolerates link
     * faults per the installed FaultSpec: batches are retried under
     * the RetryPolicy, and a secondary that exhausts its retries is
     * reclaimed — its share is blind-rotated locally — so the output
     * is byte-identical to the fault-free run as long as faults are
     * detectable (framing CRC) and below the retry cap. Concurrent
     * calls on one object serialize on an internal mutex; lastTraffic()
     * reflects the most recently completed call.
     */
    ckks::Ciphertext bootstrap(const ckks::Ciphertext& in) const;

    /**
     * Number of host threads driving the rotate lanes (the
     * primary's share and each secondary's batch) concurrently
     * (default 1 = the serial reference schedule). Traffic counters
     * and outputs are identical for every worker count.
     */
    void setWorkers(size_t workers);
    size_t workers() const { return workers_; }

    /**
     * Installs a fault policy on every secondary's link pair. Each
     * link derives its own RNG stream from spec.seed, the link index,
     * and a per-bootstrap counter, so fault patterns are deterministic
     * per link and independent of the worker count.
     */
    void setFaults(const FaultSpec& spec);

    /** Fault policy for one secondary's links only. */
    void setSecondaryFaults(size_t s, const FaultSpec& spec);

    void setRetryPolicy(const RetryPolicy& policy);
    const RetryPolicy& retryPolicy() const { return retry_; }

    size_t secondaryCount() const { return nodes_.size(); }
    const DistributedTraffic& lastTraffic() const { return traffic_; }
    const SecondaryNode& node(size_t i) const { return *nodes_[i]; }
    const ckks::Context& context() const { return *ctx_; }
    const BootstrapKeys& keys() const { return *keys_; }
    const tfhe::PackingKeys& packingKeys() const { return keys_->packing; }

    /** Predicted accumulator error stddev of one blind rotation with
     *  this object's keys (feeds bootstrapOutputBudget). */
    double bootBlindRotateSigma() const { return keys_->brSigma; }

    // --- batch-level protocol API (used by bootstrap() itself and by
    // --- the serving layer, serve::BootstrapService) -----------------

    /**
     * Runs one framed batch exchange with secondary `s`: serializes
     * `lwes`, frames them under sequence number `seq` (nonzero, unique
     * among exchanges concurrently in flight on this secondary's
     * links), drives the retry protocol, and returns the blind-rotated
     * accumulators in input order. When retries are exhausted the
     * secondary is dead for this exchange (st.dead) and the share is
     * blind-rotated locally, so the returned accumulators are always
     * byte-identical to a fault-free exchange. Thread-safe for
     * distinct `s`; callers must not run two exchanges on the same
     * secondary concurrently (replies would be mistaken for
     * duplicates).
     */
    std::vector<rlwe::Ciphertext> exchangeRotate(
        size_t s, uint64_t seq, std::span<const lwe::LweCiphertext> lwes,
        ExchangeStats& st) const;

    /** Blind-rotates a batch on the primary (no links involved). */
    std::vector<rlwe::Ciphertext> rotateLocal(
        std::span<const lwe::LweCiphertext> lwes) const;

    /**
     * One rotate lane: lane 0 is the primary (rotateLocal; `seq` and
     * `st` are unused), lane k > 0 is secondary k - 1
     * (exchangeRotate under `seq`). bootstrap() and the serving
     * layer's batch dispatch both rotate through this call.
     */
    std::vector<rlwe::Ciphertext>
    rotateLane(size_t lane, uint64_t seq,
               std::span<const lwe::LweCiphertext> lwes,
               ExchangeStats& st) const
    {
        return lane == 0 ? rotateLocal(lwes)
                         : exchangeRotate(lane - 1, seq, lwes, st);
    }

    /**
     * Starts a fresh protocol run: drops anything a previous run left
     * queued on the links (late duplicates, delayed frames) and
     * reseeds the per-link fault streams from the spec seed, the link
     * index, and a run ordinal. bootstrap() calls this internally;
     * external drivers call it once before a stream of
     * exchangeRotate() calls. Not thread-safe against in-flight
     * exchanges.
     */
    void resetProtocolRun() const;

  private:
    /** Adds the secondaries, their links and fault slots. */
    void addSecondaries(size_t secondaries);

    const ckks::Context* ctx_;
    std::shared_ptr<const BootstrapKeys> keys_;
    std::vector<std::unique_ptr<SecondaryNode>> nodes_;
    size_t workers_ = 1;
    RetryPolicy retry_{};
    std::vector<FaultSpec> faultSpecs_;
    mutable std::vector<SimulatedLink> out_, in_;
    mutable DistributedTraffic traffic_;
    // Serializes concurrent bootstrap() calls: links, traffic_, and
    // the fault RNG streams are per-object state.
    mutable std::mutex bootMutex_;
    mutable uint64_t runCounter_ = 0;
};

} // namespace heap::boot

#endif // HEAP_BOOT_DISTRIBUTED_H
