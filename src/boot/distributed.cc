#include "boot/distributed.h"

#include <algorithm>
#include <map>

#include "ckks/serialize.h"
#include "common/check.h"
#include "common/vtime.h"
#include "lwe/serialize.h"

namespace heap::boot {

namespace {

/** splitmix64 step: derives per-link fault-stream seeds. */
uint64_t
mixSeed(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
SimulatedLink::send(std::vector<uint8_t> message)
{
    std::lock_guard<std::mutex> lock(m_);
    bytes_ += message.size();
    ++messages_;
    if (!haveFaults_) {
        queue_.push_back(Pending{std::move(message), 0});
        return;
    }
    // One fixed block of draws per send: the fault stream is a
    // function of the message ordinal on this link alone, never of
    // which faults fire or of cross-link scheduling, so fault patterns
    // (and hence retransmit counts) reproduce across worker counts.
    const double uDrop = faultRng_.uniformReal();
    const double uTruncate = faultRng_.uniformReal();
    const double uFlip = faultRng_.uniformReal();
    const double uDup = faultRng_.uniformReal();
    const double uReorder = faultRng_.uniformReal();
    const double uDelay = faultRng_.uniformReal();
    const uint64_t rTruncate = faultRng_.next();
    const uint64_t rFlip = faultRng_.next();
    const uint64_t rDelay = faultRng_.next();

    if (uDrop < faults_.drop) {
        return; // lost on the wire; the sender still paid the bytes
    }
    if (uTruncate < faults_.truncate && message.size() > 1) {
        message.resize(1 + rTruncate % (message.size() - 1));
    }
    if (uFlip < faults_.bitflip && !message.empty()) {
        const size_t bit = rFlip % (message.size() * 8);
        message[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    size_t delay = 0;
    if (uDelay < faults_.delay && faults_.maxDelayPolls > 0) {
        delay = 1 + rDelay % faults_.maxDelayPolls;
    }
    const bool dup = uDup < faults_.duplicate;
    if (dup) {
        // The duplicate crosses the wire too.
        bytes_ += message.size();
        ++messages_;
    }
    if (uReorder < faults_.reorder && !queue_.empty()) {
        queue_.insert(queue_.begin(), Pending{message, delay});
    } else {
        queue_.push_back(Pending{message, delay});
    }
    if (dup) {
        queue_.push_back(Pending{std::move(message), delay});
    }
}

std::vector<uint8_t>
SimulatedLink::receive()
{
    std::lock_guard<std::mutex> lock(m_);
    HEAP_CHECK(!queue_.empty(), "receive on an empty link");
    auto msg = std::move(queue_.front().bytes);
    queue_.erase(queue_.begin());
    return msg;
}

std::optional<std::vector<uint8_t>>
SimulatedLink::tryReceive()
{
    std::lock_guard<std::mutex> lock(m_);
    for (auto& p : queue_) {
        if (p.delay > 0) {
            --p.delay;
        }
    }
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->delay == 0) {
            auto msg = std::move(it->bytes);
            queue_.erase(it);
            return msg;
        }
    }
    return std::nullopt;
}

void
SimulatedLink::setFaults(const FaultSpec& spec, uint64_t seed)
{
    std::lock_guard<std::mutex> lock(m_);
    faults_ = spec;
    haveFaults_ = spec.enabled();
    faultRng_ = Rng(seed);
}

void
SimulatedLink::clearFaults()
{
    std::lock_guard<std::mutex> lock(m_);
    faults_ = FaultSpec{};
    haveFaults_ = false;
}

void
SimulatedLink::clear()
{
    std::lock_guard<std::mutex> lock(m_);
    queue_.clear();
}

SecondaryNode::SecondaryNode(std::shared_ptr<const math::RnsBasis> basis,
                             const tfhe::BlindRotateKey* brk,
                             const math::RnsPoly* testPoly)
    : basis_(std::move(basis)), brk_(brk), testPoly_(testPoly)
{
}

std::vector<uint8_t>
SecondaryNode::processBatch(std::span<const uint8_t> batch) const
{
    ByteReader r(batch);
    const uint64_t count = r.u64();
    HEAP_CHECK(count >= 1 && count <= basis_->n(),
               "corrupt batch header");
    const uint64_t twoN = 2 * basis_->n();
    std::vector<lwe::LweCiphertext> lwes;
    lwes.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        lwe::LweCiphertext ct;
        try {
            ct = lwe::loadLwe(r);
        } catch (const UserError& e) {
            HEAP_FATAL("bad LWE at batch offset " << i << ": "
                                                  << e.what());
        }
        HEAP_CHECK(ct.modulus == twoN,
                   "batch offset " << i << ": LWE modulus "
                                   << ct.modulus
                                   << " does not match this node's 2N = "
                                   << twoN);
        HEAP_CHECK(ct.a.size() == basis_->n(),
                   "batch offset " << i << ": LWE dimension "
                                   << ct.a.size()
                                   << " does not match this node's N = "
                                   << basis_->n());
        lwes.push_back(std::move(ct));
    }
    HEAP_CHECK(r.atEnd(), "trailing bytes in batch");

    const auto accs = tfhe::blindRotateBatch(lwes, *testPoly_, *brk_);
    HEAP_ASSERT(accs.size() == count,
                "reply holds " << accs.size() << " accumulators for a "
                               << count << "-ciphertext batch");
    processed_.fetch_add(lwes.size(), std::memory_order_relaxed);

    ByteWriter w;
    w.u64(accs.size());
    for (const auto& acc : accs) {
        ckks::saveRlwe(acc, w);
    }
    return w.bytes();
}

std::vector<rlwe::Ciphertext>
loadAccumulatorReply(std::span<const uint8_t> payload,
                     size_t expectedCount,
                     std::shared_ptr<const math::RnsBasis> basis)
{
    ByteReader r(payload);
    const uint64_t count = r.u64();
    HEAP_CHECK(count == expectedCount,
               "reply declares " << count << " accumulators, batch had "
                                 << expectedCount);
    std::vector<rlwe::Ciphertext> accs;
    accs.reserve(expectedCount);
    for (uint64_t i = 0; i < count; ++i) {
        try {
            accs.push_back(ckks::loadRlwe(r, basis));
        } catch (const UserError& e) {
            HEAP_FATAL("bad accumulator at batch offset " << i << ": "
                                                          << e.what());
        }
    }
    HEAP_CHECK(r.atEnd(), "trailing bytes in reply");
    return accs;
}

DistributedBootstrapper::DistributedBootstrapper(
    const ckks::Context& ctx, size_t secondaries,
    rlwe::GadgetParams brGadget)
    : ctx_(&ctx)
{
    // Checked before the keys draw from the context RNG.
    HEAP_CHECK(secondaries >= 1 && secondaries <= 63,
               "bad secondary count");
    keys_ = makeBootstrapKeys(ctx, brGadget);
    addSecondaries(secondaries);
}

DistributedBootstrapper::DistributedBootstrapper(
    const DistributedBootstrapper& other, size_t secondaries)
    : ctx_(other.ctx_), keys_(other.keys_)
{
    addSecondaries(secondaries);
}

void
DistributedBootstrapper::addSecondaries(size_t secondaries)
{
    HEAP_CHECK(secondaries >= 1 && secondaries <= 63,
               "bad secondary count");
    for (size_t i = 0; i < secondaries; ++i) {
        nodes_.push_back(std::make_unique<SecondaryNode>(
            ctx_->basis(), &keys_->brk, &keys_->testPoly));
    }
    faultSpecs_.resize(secondaries);
    // Assignment rather than resize: SimulatedLink owns a mutex and
    // is therefore not move-insertable.
    out_ = std::vector<SimulatedLink>(secondaries);
    in_ = std::vector<SimulatedLink>(secondaries);
}

void
DistributedBootstrapper::setWorkers(size_t workers)
{
    HEAP_CHECK(workers >= 1 && workers <= 256, "bad worker count");
    workers_ = workers;
}

void
DistributedBootstrapper::setFaults(const FaultSpec& spec)
{
    for (auto& s : faultSpecs_) {
        s = spec;
    }
}

void
DistributedBootstrapper::setSecondaryFaults(size_t s,
                                            const FaultSpec& spec)
{
    HEAP_CHECK(s < faultSpecs_.size(), "bad secondary index " << s);
    faultSpecs_[s] = spec;
}

void
DistributedBootstrapper::setRetryPolicy(const RetryPolicy& policy)
{
    HEAP_CHECK(policy.basePolls >= 1 && policy.maxPolls >= policy.basePolls,
               "bad retry policy: polls");
    HEAP_CHECK(policy.maxRetries <= 64, "bad retry policy: cap");
    retry_ = policy;
}

std::vector<rlwe::Ciphertext>
DistributedBootstrapper::rotateLocal(
    std::span<const lwe::LweCiphertext> lwes) const
{
    return tfhe::blindRotateBatch(lwes, keys_->testPoly, keys_->brk);
}

/**
 * One batch exchange with secondary `s`, playing both protocol roles
 * over the faulty links (the secondary's engine runs when the primary
 * pumps its inbound link, as the paper's nodes run when frames hit
 * their CMACs). Touches only this secondary's links, node, and stats,
 * so exchanges for different secondaries are data-race-free and the
 * per-link fault streams see identical message sequences for every
 * worker count.
 */
std::vector<rlwe::Ciphertext>
DistributedBootstrapper::exchangeRotate(
    size_t s, uint64_t seq, std::span<const lwe::LweCiphertext> lwes,
    ExchangeStats& st) const
{
    HEAP_CHECK(s < nodes_.size(), "bad secondary index " << s);
    HEAP_CHECK(seq != 0, "sequence number 0 marks unreadable frames");
    HEAP_CHECK(!lwes.empty(), "empty batch");
    const size_t outBytesBefore = out_[s].bytesTransferred();
    const size_t inBytesBefore = in_[s].bytesTransferred();
    ByteWriter pw;
    pw.u64(lwes.size());
    for (const auto& ct : lwes) {
        lwe::saveLwe(ct, pw);
    }
    const auto framed = frameMessage(FrameType::Batch, seq, pw.bytes());
    std::vector<rlwe::Ciphertext> rotated;

    // The secondary's protocol state for this bootstrap: framed
    // replies cached by sequence number, so duplicated or NACKed
    // batches are answered without recomputing (processed() stays
    // exact under faults).
    std::map<uint64_t, std::vector<uint8_t>> replyCache;
    bool accepted = false;

    auto pumpSecondary = [&] {
        while (auto msg = out_[s].tryReceive()) {
            Frame f;
            try {
                f = parseFrame(*msg);
            } catch (const UserError&) {
                ++st.corruptFrames;
                ++st.nacks;
                in_[s].send(frameMessage(FrameType::Nack, 0, {}));
                continue;
            }
            if (f.type == FrameType::Nack) {
                // The primary saw a corrupt reply: resend the cached
                // frame rather than recomputing the rotation.
                if (auto it = replyCache.find(f.seq);
                    it != replyCache.end()) {
                    in_[s].send(it->second);
                }
                continue;
            }
            if (f.type != FrameType::Batch) {
                ++st.duplicateFrames;
                continue;
            }
            if (auto it = replyCache.find(f.seq);
                it != replyCache.end()) {
                ++st.duplicateFrames;
                in_[s].send(it->second);
                continue;
            }
            std::vector<uint8_t> reply;
            try {
                reply = nodes_[s]->processBatch(f.payload);
            } catch (const UserError&) {
                // Cleared the CRC but failed validation: ask for a
                // resend instead of crashing the node.
                ++st.nacks;
                in_[s].send(frameMessage(FrameType::Nack, f.seq, {}));
                continue;
            }
            auto framedReply = frameMessage(FrameType::Acc, f.seq, reply);
            replyCache.emplace(f.seq, framedReply);
            in_[s].send(std::move(framedReply));
        }
    };

    for (size_t attempt = 0;
         attempt <= retry_.maxRetries && !accepted; ++attempt) {
        if (attempt > 0) {
            ++st.retransmits;
        }
        out_[s].send(framed);
        const size_t shift = std::min<size_t>(attempt, 16);
        const size_t polls =
            std::min(retry_.maxPolls, retry_.basePolls << shift);
        bool resendNow = false;
        // One virtual-time poll per step; pollWait yields the CPU
        // between misses so waiting exchanges don't starve compute
        // threads (poll counts — and so RetryPolicy semantics and the
        // traffic counters — are exactly as before).
        pollWait(polls, [&] {
            pumpSecondary();
            while (auto msg = in_[s].tryReceive()) {
                Frame f;
                try {
                    f = parseFrame(*msg);
                } catch (const UserError&) {
                    // Corrupt reply: NACK so the secondary resends its
                    // cached copy.
                    ++st.corruptFrames;
                    ++st.nacks;
                    out_[s].send(frameMessage(FrameType::Nack, seq, {}));
                    continue;
                }
                if (f.type == FrameType::Nack) {
                    // The secondary could not read our batch.
                    resendNow = true;
                    break;
                }
                if (f.type != FrameType::Acc || f.seq != seq
                    || accepted) {
                    ++st.duplicateFrames;
                    continue;
                }
                rotated = loadAccumulatorReply(f.payload, lwes.size(),
                                               ctx_->basis());
                st.accBytesIn += msg->size();
                accepted = true;
            }
            return accepted || resendNow;
        });
    }

    if (accepted) {
        st.lweBytesOut += framed.size();
    } else {
        // Retries exhausted: the secondary is dead for this exchange.
        // Reclaim its share on the primary — correct result, slower
        // wall-clock — exactly as a lost FPGA would be absorbed.
        st.dead = true;
        rotated = rotateLocal(lwes);
    }
    st.wireOut = out_[s].bytesTransferred() - outBytesBefore;
    st.wireIn = in_[s].bytesTransferred() - inBytesBefore;
    return rotated;
}

void
DistributedBootstrapper::resetProtocolRun() const
{
    ++runCounter_;
    const size_t nsec = nodes_.size();
    for (size_t s = 0; s < nsec; ++s) {
        out_[s].clear();
        in_[s].clear();
        if (faultSpecs_[s].enabled()) {
            const uint64_t base =
                faultSpecs_[s].seed ^ (runCounter_ * 0x10001ULL);
            out_[s].setFaults(faultSpecs_[s], mixSeed(base + 2 * s));
            in_[s].setFaults(faultSpecs_[s], mixSeed(base + 2 * s + 1));
        } else {
            out_[s].clearFaults();
            in_[s].clearFaults();
        }
    }
}

ckks::Ciphertext
DistributedBootstrapper::bootstrap(const ckks::Ciphertext& in) const
{
    // Links, traffic counters, and fault RNG streams are per-object
    // state: concurrent bootstrap() calls serialize here.
    std::lock_guard<std::mutex> bootLock(bootMutex_);
    const FrontPhase fp =
        runFrontPhase(*ctx_, in, 1.0, "distributed bootstrap");

    // Fresh protocol run: drop anything a previous run left queued
    // (late duplicates, delayed frames) and restart the per-link fault
    // streams from seeds derived off the spec seed, the link index,
    // and the run ordinal.
    resetProtocolRun();

    // The N items split evenly over the primary (lane 0) and the
    // secondaries (Section V), all lanes concurrent when workers_ > 1.
    // Each exchange touches only its own links, node and stats slot,
    // and stats are reduced serially below, so the accounting is exact
    // and identical for every worker count. seq = lane: nonzero for
    // every exchange, and unique per link pair within a run.
    const size_t lanes = nodes_.size() + 1;
    std::vector<ExchangeStats> stats(lanes);
    const std::vector<rlwe::Ciphertext> rotated = rotateShares(
        fp.items, lanes, workers_,
        [&](size_t lane, std::span<const lwe::LweCiphertext> share) {
            return rotateLane(lane, lane, share, stats[lane]);
        });
    traffic_ = DistributedTraffic{};
    for (const ExchangeStats& st : stats) {
        // Every exchange puts at least its batch frame on the wire.
        traffic_.batches += st.wireOut > 0 ? 1 : 0;
        traffic_.lweBytesOut += st.lweBytesOut;
        traffic_.accBytesIn += st.accBytesIn;
        traffic_.wireBytesOut += st.wireOut;
        traffic_.wireBytesIn += st.wireIn;
        traffic_.retransmits += st.retransmits;
        traffic_.nacks += st.nacks;
        traffic_.corruptFrames += st.corruptFrames;
        traffic_.duplicateFrames += st.duplicateFrames;
        if (st.dead) {
            ++traffic_.deadSecondaries;
            ++traffic_.reclaimedBatches;
        }
    }

    rlwe::Ciphertext ctKq = tfhe::packRlwes(rotated, keys_->packing);
    return runFinishPhase(*ctx_, *keys_, in, std::move(ctKq), fp.ms);
}

} // namespace heap::boot
