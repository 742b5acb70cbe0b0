/**
 * @file
 * Per-pod health tracking for the serving cluster: a circuit breaker
 * driven by a rolling success/failure window plus wedge detection via
 * modeled-load staleness.
 *
 * State machine (the classic three-state breaker, made deterministic
 * by counting routing decisions instead of wall time):
 *
 *        failure rate >= threshold            probe success
 *   Closed ------------------------> Open  ------------------+
 *      ^                               |                     |
 *      |       skips >= probeAfterSkips|                     |
 *      +--- HalfOpen <-----------------+                     |
 *      |        |  probe failure -> Open                     |
 *      +<----------------------------------------------------+
 *
 *  - Closed: outcomes feed a rolling window; when the window holds at
 *    least `minSamples` outcomes and the failure fraction reaches
 *    `failureThreshold`, the breaker opens.
 *  - Open: the router skips the pod. Every skipped routing decision
 *    counts; after `probeAfterSkips` skips the next decision admits
 *    exactly one request as a *probe* (HalfOpen). Deterministic: the
 *    k-th routing decision after the open always probes, independent
 *    of wall time.
 *  - HalfOpen: one probe in flight, everything else routes around.
 *    Probe success closes the breaker (window cleared); probe failure
 *    reopens it and the skip count restarts. With a canary fraction
 *    configured (halfOpenCanaryFraction > 0), HalfOpen instead admits
 *    a deterministic small fraction of routing decisions as probes —
 *    several canaries may fly at once; the first success closes, any
 *    failure reopens.
 *
 * Wedge detection is orthogonal: a pod that *holds* outstanding work
 * but produces no completion for `wedgeDecisions` consecutive routing
 * decisions is declared wedged and treated as Open (routed around,
 * but not probed — a wedged pod would just swallow the probe). Any
 * completion from the pod is progress and clears the wedge.
 *
 * Not thread-safe: the cluster mutates breakers under its own mutex,
 * exactly like the pods' load table.
 */

#ifndef HEAP_SERVE_HEALTH_H
#define HEAP_SERVE_HEALTH_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace heap::serve {

/** Breaker phase; see the file comment for the transitions. */
enum class BreakerState { Closed, Open, HalfOpen };

/** "closed" / "open" / "half-open". */
const char* breakerStateName(BreakerState s);

/** Per-pod breaker tuning. */
struct BreakerConfig {
    /** Rolling outcome window length (attempt completions). */
    size_t window = 16;
    /** Outcomes required in the window before the failure rate can
     *  trip the breaker (a single early failure is not a pattern). */
    size_t minSamples = 4;
    /** Open when windowFailures / windowCount >= this. */
    double failureThreshold = 0.5;
    /** Open -> HalfOpen: skipped routing decisions before one probe
     *  request is admitted. */
    uint64_t probeAfterSkips = 8;
    /**
     * HalfOpen canary fraction. 0 (the default) keeps the legacy
     * behaviour: exactly one probe in flight, everything else routed
     * around until it resolves. A value f in (0, 1] admits a probe on
     * a deterministic f-fraction of HalfOpen routing decisions — the
     * k-th HalfOpen decision probes when ceil(k * f) exceeds the
     * probes already admitted this episode — so several canaries may
     * be in flight at once and a slow probe cannot stall recovery
     * observation. Any canary failure reopens the breaker; the first
     * canary success closes it.
     */
    double halfOpenCanaryFraction = 0.0;
    /** Wedge detection: routing decisions a pod may hold outstanding
     *  work without completing anything before it is declared wedged.
     *  0 disables wedge detection. */
    uint64_t wedgeDecisions = 256;
};

/** Point-in-time breaker accounting (ClusterMetrics::breakers). */
struct BreakerStats {
    BreakerState state = BreakerState::Closed;
    bool wedged = false;
    // Totals since start.
    uint64_t successes = 0;
    uint64_t failures = 0;
    // Rolling window contents.
    size_t windowCount = 0;
    size_t windowFailures = 0;
    // Transition counters.
    uint64_t opens = 0;      ///< Closed->Open trips + probe-failure reopens
    uint64_t wedgeOpens = 0; ///< staleness detections (also counted in opens)
    uint64_t probes = 0;     ///< probe admissions (Open->HalfOpen)
    uint64_t closes = 0;     ///< recoveries (probe success or wedge cleared)
    uint64_t skippedRouting = 0; ///< decisions that routed around this pod
    /** Probes currently in flight (HalfOpen; > 1 only with a canary
     *  fraction configured). */
    uint64_t probesInFlight = 0;
};

/**
 * One pod's breaker. All methods are called under the cluster mutex;
 * "routing decision" means one ServiceCluster::submit() considering
 * this pod.
 */
class CircuitBreaker {
  public:
    explicit CircuitBreaker(BreakerConfig cfg = {});

    /** Effective state: wedged pods report Open regardless of the
     *  underlying outcome-window state. */
    BreakerState state() const;

    /** Routing-time admission decision. */
    struct Gate {
        bool admit = false;
        bool probe = false; ///< this admission is the HalfOpen probe
    };

    /**
     * One routing decision considers this pod: returns whether to
     * admit, and whether the admission is a probe. Mutates the skip
     * counter and performs the Open -> HalfOpen transition.
     */
    Gate gate();

    /**
     * The probe admitted by gate() was never dispatched (the pod was
     * full/crashed, or another candidate won the request). When it
     * was the only probe in flight, revert to Open with the skip
     * budget refilled, so the next routing decision probes again;
     * with other canaries still flying (fraction mode), stay HalfOpen
     * and let them resolve the episode.
     */
    void cancelProbe();

    /**
     * One attempt on this pod completed. `probe` must be the flag the
     * admitting gate() returned. Clears any wedge (a completion IS
     * progress), feeds the rolling window, and performs the
     * failure-rate trip / probe-resolution transitions.
     */
    void onOutcome(bool ok, bool probe);

    /**
     * Wedge staleness tick, called once per routing decision for
     * every pod: `backlog` is whether the pod currently holds modeled
     * outstanding load. A pod with no backlog cannot be wedged.
     */
    void noteDecision(bool backlog);

    BreakerStats stats() const;

    const BreakerConfig& config() const { return cfg_; }

  private:
    void openLocked();
    /** One HalfOpen routing decision: canary/legacy probe admission. */
    Gate halfOpenGate();

    BreakerConfig cfg_;
    BreakerState state_ = BreakerState::Closed;
    bool wedged_ = false;
    uint64_t probesInFlight_ = 0;
    /** HalfOpen episode counters (canary stride admission). */
    uint64_t halfOpenDecisions_ = 0;
    uint64_t probesAdmitted_ = 0;
    uint64_t skips_ = 0;
    uint64_t staleDecisions_ = 0;
    // Rolling outcome ring (1 = failure).
    std::vector<uint8_t> ring_;
    size_t ringNext_ = 0;
    size_t windowCount_ = 0;
    size_t windowFailures_ = 0;
    // Totals.
    uint64_t successes_ = 0, failures_ = 0;
    uint64_t opens_ = 0, wedgeOpens_ = 0, probes_ = 0, closes_ = 0;
    uint64_t skippedRouting_ = 0;
};

} // namespace heap::serve

#endif // HEAP_SERVE_HEALTH_H
