/**
 * @file
 * Deterministic pod-level fault injection for the serving cluster —
 * the inter-pod sibling of the link layer's FaultSpec (PR 3): where
 * FaultSpec mangles individual wire messages inside a pod, ChaosSpec
 * fails, wedges, and crashes whole pods on a schedule.
 *
 * Determinism: events fire at cluster *submission indices*, not wall
 * times — "before the 12th submit, crash pod 0" — so a given spec
 * produces the same fault interleaving on every host and run, which
 * is what lets the availability tests pin byte-identity and exact
 * accounting under faults. The scripted() generator derives a
 * schedule from a seed with a fixed platform-independent mix, so
 * benches can sweep seeds without hand-writing event lists.
 *
 * Event kinds:
 *  - FailRequests: the pod fails its next `count` requests with a
 *    retryable PodError (the cluster fails them over).
 *  - Wedge / Unwedge: pause()/resume() the pod — accepted requests
 *    sit, nothing fails, the breaker's staleness detector is the only
 *    signal.
 *  - Crash / Recover: the pod fails every live request and rejects
 *    intake until recovery (crash-and-recover).
 *
 * Thread-safe: advance() may be called from concurrent submitters;
 * events apply exactly once, in (atSubmit, insertion) order.
 */

#ifndef HEAP_SERVE_CHAOS_H
#define HEAP_SERVE_CHAOS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "serve/pod.h"

namespace heap::serve {

/** One scheduled pod-level fault. */
struct ChaosEvent {
    enum class Kind {
        FailRequests, ///< fail the pod's next `count` requests
        Wedge,        ///< pause the pod (wedge)
        Unwedge,      ///< resume the pod
        Crash,        ///< fail all live work, reject intake
        Recover,      ///< accept work again
    };
    Kind kind = Kind::FailRequests;
    size_t pod = 0;
    /** Fires just before the cluster's `atSubmit`-th submission
     *  (1-based). Events sharing an index apply in list order. */
    uint64_t atSubmit = 0;
    /** FailRequests only: how many requests to fail. */
    uint64_t count = 1;
};

/** A full fault schedule. */
struct ChaosSpec {
    std::vector<ChaosEvent> events;

    /**
     * Seeded schedule over `horizon` submissions on `pods` pods: one
     * crash-and-recover window, one wedge window on a different pod,
     * and `failBursts` short FailRequests bursts, all placed by a
     * fixed 64-bit mix of the seed (identical on every platform).
     */
    static ChaosSpec scripted(uint64_t seed, size_t pods,
                              uint64_t horizon,
                              uint64_t failBursts = 2);
};

/** Applied-event accounting (ClusterMetrics::chaos). */
struct ChaosStats {
    uint64_t eventsApplied = 0;
    uint64_t injectedFailures = 0; ///< requests scheduled to fail
    uint64_t wedges = 0;
    uint64_t unwedges = 0;
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
};

/**
 * Applies a ChaosSpec to a cluster's pods as the submission counter
 * advances. Owned by the ServiceCluster when ClusterConfig::chaos is
 * set; usable standalone in tests.
 */
class ChaosEngine {
  public:
    explicit ChaosEngine(ChaosSpec spec);

    /**
     * Applies every not-yet-applied event with atSubmit <= submitIdx
     * (validating pod indices against the first table). Called by the
     * cluster just before dispatching its submitIdx-th submission.
     *
     * Faults are POD-level: an event applies to the pod at its index
     * in every table (one table per tenant class) — a crash takes
     * every class of the pod down, a wedge pauses them all, and a
     * FailRequests burst fails the next `count` requests of each.
     */
    void advance(uint64_t submitIdx, std::span<const PodTable> tables);

    /** True once every event has been applied. */
    bool done() const;

    ChaosStats stats() const;

  private:
    mutable std::mutex m_;
    std::vector<ChaosEvent> events_; ///< stably sorted by atSubmit
    size_t cursor_ = 0;
    ChaosStats st_;
};

} // namespace heap::serve

#endif // HEAP_SERVE_CHAOS_H
