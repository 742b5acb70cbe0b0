/**
 * @file
 * Observability types for the bootstrap serving runtime: a bounded
 * latency reservoir with percentile extraction, and the per-service
 * metrics snapshot (queue depth, batch occupancy, latency
 * percentiles, rejection / deadline accounting, and the
 * noise-budget health of returned ciphertexts).
 *
 * Header-only: plain data plus the reservoir's percentile math, which
 * the serving tests exercise directly.
 */

#ifndef HEAP_SERVE_METRICS_H
#define HEAP_SERVE_METRICS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "serve/pipeline.h"

namespace heap::serve {

/**
 * Bounded sample store for latency measurements. Keeps up to
 * `capacity` samples (oldest evicted by coarse decimation: when full,
 * every other retained sample is dropped and the sampling stride
 * doubles), so long-running services report stable percentiles in
 * O(capacity) memory. Not thread-safe; the service records under its
 * own lock.
 */
class LatencyReservoir {
  public:
    explicit LatencyReservoir(size_t capacity = 4096)
        : capacity_(capacity)
    {
        HEAP_CHECK(capacity >= 16, "reservoir too small");
    }

    void
    record(double ms)
    {
        ++seen_;
        if ((seen_ - 1) % stride_ != 0) {
            return;
        }
        if (samples_.size() == capacity_) {
            // Halve the resolution: keep every other sample and
            // double the stride so old and new samples stay
            // comparably weighted.
            std::vector<double> kept;
            kept.reserve(capacity_ / 2);
            for (size_t i = 0; i < samples_.size(); i += 2) {
                kept.push_back(samples_[i]);
            }
            samples_ = std::move(kept);
            stride_ *= 2;
        }
        samples_.push_back(ms);
        sortedDirty_ = true;
    }

    /** Total samples offered to record() (not just retained ones). */
    uint64_t count() const { return seen_; }

    /**
     * The p-th percentile (p in [0, 100]) by linear interpolation
     * over the retained samples; NaN when empty. The sorted view is cached and
     * only rebuilt after a record(), so a snapshot reading several
     * percentiles (p50/p95/p99) pays for ONE O(n log n) sort, not one
     * per call.
     */
    double
    percentile(double p) const
    {
        HEAP_CHECK(p >= 0.0 && p <= 100.0, "bad percentile " << p);
        if (samples_.empty()) {
            return std::numeric_limits<double>::quiet_NaN();
        }
        if (sortedDirty_) {
            sorted_ = samples_;
            std::sort(sorted_.begin(), sorted_.end());
            sortedDirty_ = false;
        }
        const double rank = p / 100.0
                            * static_cast<double>(sorted_.size() - 1);
        const size_t lo = static_cast<size_t>(rank);
        const size_t hi = std::min(lo + 1, sorted_.size() - 1);
        const double frac = rank - static_cast<double>(lo);
        return sorted_[lo] + (sorted_[hi] - sorted_[lo]) * frac;
    }

    double
    mean() const
    {
        if (samples_.empty()) {
            return std::numeric_limits<double>::quiet_NaN();
        }
        double sum = 0;
        for (const double s : samples_) {
            sum += s;
        }
        return sum / static_cast<double>(samples_.size());
    }

  private:
    size_t capacity_;
    uint64_t stride_ = 1;
    uint64_t seen_ = 0;
    std::vector<double> samples_;
    /** Lazily rebuilt sorted copy of samples_ (percentile()). */
    mutable std::vector<double> sorted_;
    mutable bool sortedDirty_ = true;
};

/** Point-in-time snapshot of a pod (Pod::metrics()). Batches are the
 *  workload's item batches: blind rotations for bootstrap pods,
 *  first-dimension group folds for PIR pods (no link traffic). */
struct ServiceMetrics {
    // Request accounting.
    uint64_t submitted = 0; ///< accepted by admission control
    uint64_t completed = 0;
    uint64_t failed = 0;    ///< completed exceptionally
    uint64_t rejected = 0;  ///< refused at admission (backpressure)
    uint64_t deadlineMisses = 0; ///< completed after their deadline

    // Queue state.
    size_t queueDepth = 0;    ///< live requests (queued + running)
    size_t maxQueueDepth = 0; ///< high-water mark since start

    // Continuous batching.
    uint64_t batches = 0; ///< blind-rotate batches dispatched
    /** Mean number of DISTINCT requests whose items shared a batch;
     *  > 1.0 means cross-request packing actually happened. */
    double batchOccupancy = 0;
    double meanBatchItems = 0; ///< mean LWE items per batch

    // Completed-request latency (submission to result), milliseconds.
    double p50Ms = 0;
    double p95Ms = 0;
    double p99Ms = 0;
    double meanMs = 0;

    // Link-protocol traffic aggregated over all remote exchanges.
    uint64_t wireBytesOut = 0;
    uint64_t wireBytesIn = 0;
    uint64_t retransmits = 0;
    uint64_t reclaimedBatches = 0;

    // Fault injection (chaos harness): requests failed by an
    // injected front-stage fault, and crash() transitions survived.
    uint64_t injectedFailures = 0;
    uint64_t crashes = 0;

    // Noise-budget health of the ciphertexts the service returned,
    // so clients see budget state without decrypting: the smallest
    // remaining budget (bits until predicted decryption failure) and
    // how many outputs crossed the context guard's thresholds.
    double minReturnedBudgetBits =
        std::numeric_limits<double>::infinity();
    uint64_t guardTrips = 0;

    // Staged-pipeline accounting: per-stage occupancy, queue depth,
    // stall time, and the cross-stage overlap score (see
    // serve/pipeline.h).
    PipelineMetrics pipeline;
};

} // namespace heap::serve

#endif // HEAP_SERVE_METRICS_H
