/**
 * @file
 * ServiceCluster — sharded multi-tenant serving across multiple pods
 * (the ROADMAP's "millions of users" milestone), with a cluster-level
 * failure domain: per-pod circuit breakers, request failover, and
 * deadline-aware load shedding.
 *
 * Each pod is one BootstrapService over its own
 * DistributedBootstrapper (the paper's 8-FPGA group), optionally with
 * a colocated PirService. The cluster keeps one pod table per tenant
 * class and routes flights without knowing their class: submit() and
 * submitPir() only bind a flight to its class and payload. The cluster
 * routes a tenant's requests to a stable preferred pod (consistent
 * hash of the tenant id), which keeps that tenant's bootstrapping
 * keys hot in the pod's BootstrappingKeyCache; when the preferred
 * pod's admission window is full, the request spills to the pod with
 * the fewest outstanding items (the load table counts each attempt's
 * admission units exactly) that still has room. If every
 * pod is full, the request is rejected (cluster-level backpressure —
 * bounded memory, never OOM).
 *
 * Health: every pod carries a CircuitBreaker (serve/health.h) fed by
 * per-attempt outcomes and a backlog staleness detector, and
 * routing consults it — open or wedged pods are routed around, and a
 * deterministic probe admission re-tests an open pod after a fixed
 * number of skipped routing decisions. Probe candidates are tried
 * FIRST: the probe is one request by construction, and carrying it is
 * how an open breaker ever observes a recovery.
 *
 * Failover: each dispatch attempt is a pod request carrying the
 * client's ticket plus a relay (PodRequest::relay) that runs before
 * the ticket settles. When an attempt fails with a retryable PodError
 * (injected fault, crash), the relay keeps the ticket open and the
 * cluster re-submits the SAME payload to the next healthy candidate —
 * on a dedicated failover thread, never from the relay (it may run
 * under the pod lock) — until the
 * FailoverPolicy's attempt or deadline budget runs out. Accounting is
 * exact: one TenantRegistry admission per logical request however
 * many attempts it takes, completion settled exactly once at the
 * terminal outcome, per-attempt load charges refunded by the same
 * relay that observed the attempt. A failed-over request touches
 * the new pod's key cache (a real, counted cache-cold event — the
 * BTS/ARK key traffic the paper's §5 sizing is about).
 *
 * Shedding (opt-in): every pod measures its lane time per rotated
 * item (Pod::msPerItem), and the cluster prices outstanding items at
 * that rate. A request whose deadline cannot be met even by the pod
 * that would finish it first is rejected at admission (deadline
 * shed), and while the cluster's priced backlog is above a threshold
 * requests below a priority floor are rejected (brownout) — both
 * BEFORE the registry admission, so sheds never need refunds, and
 * both with distinct rejection counters. A pod that has not returned
 * a batch yet prices work at 0, so a cold cluster sheds nothing.
 *
 * Chaos (opt-in): a deterministic ChaosSpec (serve/chaos.h) fires
 * pod-level faults — injected failures, wedges, crash/recover — as
 * the cluster's submission counter advances, which is what the
 * availability tests (`ctest -L chaos`) drive. Faults hit every
 * tenant class's pod at the targeted index.
 *
 * Second tenant class (opt-in): with ClusterConfig::pirServer set,
 * every pod index also carries a PirService over the shared
 * encrypted-lookup database, and submitPir() serves lookup flights
 * through the SAME routing, breakers, key caches (per-tenant
 * key footprints), shedding, fair queueing, and failover as
 * bootstrap flights — two tenant classes, one failure domain. Lookup
 * answers
 * are byte-identical across worker counts and failover recomputes
 * because the fold is pure arithmetic on the query.
 *
 * Determinism: routing and failover never change what is computed,
 * only where — every pod carries byte-identical key material in the
 * functional build (same context seed), so a cluster-served bootstrap
 * is byte-identical to the single-pod path even when the serving pod
 * crashed mid-request and the result came from a failover re-compute.
 * tests/cluster_test.cc and tests/failover_identity_test.cc pin this
 * for seeds {7, 21, 42}.
 *
 * Thread-safe: submit() may be called from many client threads. The
 * cluster's own mutex guards its counters, load table, and
 * breakers, and is never held across a pod or registry call, so it
 * cannot deadlock against the pod locks, relays or completion hooks.
 * Lock order: pod lock -> cluster lock -> registry/ticket locks,
 * never the reverse.
 */

#ifndef HEAP_SERVE_CLUSTER_H
#define HEAP_SERVE_CLUSTER_H

#include <array>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "serve/chaos.h"
#include "serve/health.h"
#include "serve/keycache.h"
#include "serve/pir_service.h"
#include "serve/service.h"
#include "serve/tenant.h"

namespace heap::serve {

/** Retry budget for failed-over requests. */
struct FailoverPolicy {
    /** Total dispatch attempts per logical request (>= 1). 1 disables
     *  failover: the first retryable failure is terminal. */
    uint32_t maxAttempts = 3;
    /** Delay before a failed-over request is re-dispatched. 0 retries
     *  immediately (the deterministic default for tests). A pod's
     *  failures share one gate while it is closed: a retry from a pod
     *  with a retry still waiting gets that retry's gate, so a crash
     *  flush (the pod's whole backlog failing through back-to-back
     *  hooks) comes due, and re-dispatches, in one sweep. */
    double backoffMs = 0.0;
    /** Abandon retries once the remaining deadline budget is below
     *  one request's cost at the failing pod's measured rate (the
     *  retry could only miss). */
    bool respectDeadline = true;
};

/** Deadline-aware admission control (opt-in; off by default). */
struct SheddingPolicy {
    bool enabled = false;
    /** Deadline shed: reject when the request's deadline is shorter
     *  than slackFactor * min over pods of (the pod's outstanding
     *  items + this request's) at the pod's measured ms per item —
     *  i.e. its slack is negative. Requests without a deadline are
     *  never deadline-shed. */
    double slackFactor = 1.0;
    /** Brownout: once the cluster's outstanding items, priced at
     *  each pod's measured rate, reach this many milliseconds,
     *  requests whose effective priority (tenant base + submission)
     *  is below brownoutMinPriority are rejected. 0 disables the
     *  brownout. */
    double brownoutLoadMs = 0.0;
    int brownoutMinPriority = 0;
};

/** Cluster construction knobs. */
struct ClusterConfig {
    /** Per-pod service configuration (workers, admission cap, batch
     *  cap, stage bounds). Applied to every pod. */
    ServiceConfig pod;
    /** Per-pod bootstrapping-key cache capacity, in bytes (residency
     *  accounting, not a real allocation). The default is 8 GiB of
     *  pod key memory — roughly four of the paper's ~1.8 GB
     *  scheme-switching key sets per pod. A tenant without a declared
     *  footprint is charged the pods' BootstrapKeys::bytes(). */
    size_t keyCacheBytes = size_t{8} << 30;
    /** Per-pod circuit-breaker tuning (applied to every pod). */
    BreakerConfig breaker;
    FailoverPolicy failover;
    SheddingPolicy shedding;
    /** Optional deterministic fault schedule, applied to the pods as
     *  the cluster's submission counter advances. */
    std::optional<ChaosSpec> chaos;
    /**
     * Optional second tenant class: the shared encrypted-lookup
     * database (borrowed, must outlive the cluster). When set, every
     * pod carries a colocated PirService over this server next to its
     * BootstrapService, and submitPir() routes lookup flights through
     * the same breakers, key caches, failover, and fair queueing as
     * bootstrap flights. Null = bootstrap-only cluster.
     */
    const pir::PirServer* pirServer = nullptr;
    /** Per-pod PIR service configuration (pirServer set). */
    PirServiceConfig pirPod;
};

/** Cluster-wide metrics snapshot (metrics()). */
struct ClusterMetrics {
    // Cluster-level admission.
    uint64_t submitted = 0;        ///< accepted by some pod
    uint64_t rejectedQuota = 0;    ///< tenant quota at admission
    uint64_t rejectedCapacity = 0; ///< every candidate pod full
    uint64_t rejectedUnhealthy = 0; ///< every breaker refused routing
    uint64_t rejectedShedDeadline = 0; ///< negative measured slack
    uint64_t rejectedShedBrownout = 0; ///< below the brownout floor
    // Routing.
    uint64_t routedPreferred = 0; ///< landed on the consistent pod
    uint64_t spilled = 0;         ///< diverted by a full preferred pod
    // Logical requests (cluster flights; a flight may span several
    // pod attempts under failover).
    uint64_t requestsCompleted = 0;
    uint64_t requestsFailed = 0; ///< terminally failed flights
    size_t liveFlights = 0;      ///< accepted, not yet settled
    // Failover.
    uint64_t failovers = 0;         ///< re-dispatches enqueued
    uint64_t failoverSucceeded = 0; ///< flights completed after > 1 attempt
    uint64_t failoverExhausted = 0; ///< retry budget ran out
    /** Re-dispatch sweeps the failover thread ran: each sweep drains
     *  every due retry at once, grouped per last-failed pod, instead
     *  of popping one retry per wakeup. */
    uint64_t failoverSweeps = 0;
    size_t maxRetryBatch = 0; ///< largest single-sweep retry batch
    // Encrypted-lookup tenant class (all zero / empty when no
    // pirServer is configured). Logical PIR flights, also included
    // in submitted / requestsCompleted / requestsFailed above.
    uint64_t pirSubmitted = 0;
    uint64_t pirCompleted = 0;
    uint64_t pirFailed = 0;
    std::vector<ServiceMetrics> pirPods; ///< per-pod PirService
    // Health.
    std::vector<BreakerStats> breakers; ///< one per pod
    uint64_t breakerOpens = 0;  ///< sum of per-pod opens
    uint64_t breakerCloses = 0; ///< sum of per-pod closes
    // Chaos (zero when no schedule was configured).
    ChaosStats chaos;
    // Pod roll-up. completed/failed count POD-LEVEL attempts (a
    // failed-over flight contributes a failure on the crashed pod and
    // a completion on the pod that served it); requestsCompleted /
    // requestsFailed above count logical flights.
    uint64_t completed = 0;
    uint64_t failed = 0;
    std::vector<ServiceMetrics> pods;
    /** Items of attempts placed and not yet settled, per pod (both
     *  tenant classes). */
    std::vector<uint64_t> podOutstandingItems;
    // Key caches.
    std::vector<KeyCacheStats> podKeyCaches;
    KeyCacheStats keyCacheTotal;
    // Tenancy.
    std::vector<TenantStats> tenants;
    /** Weighted max/min served-share ratio (registry; NaN when fewer
     *  than two tenants qualify). */
    double fairnessRatio = std::numeric_limits<double>::quiet_NaN();
};

/**
 * Shards bootstrap requests across pods by tenant. The pods'
 * bootstrappers are borrowed, not owned, and must outlive the
 * cluster; each must be keyed identically (same context seed) for
 * the byte-identity guarantee. The registry is shared (quotas and
 * fairness are cluster-wide) and must outlive the cluster.
 */
class ServiceCluster {
  public:
    ServiceCluster(std::vector<boot::DistributedBootstrapper*> pods,
                   TenantRegistry& registry, ClusterConfig cfg = {});

    /** Drains and joins every pod and the failover thread. */
    ~ServiceCluster();

    ServiceCluster(const ServiceCluster&) = delete;
    ServiceCluster& operator=(const ServiceCluster&) = delete;

    /**
     * Submits one bootstrap for `tenantId` (registered, nonzero).
     * Throws UserError when the tenant is over quota, when the
     * shedding policy rejects the request, or when no healthy pod has
     * room; every rejection is counted (cluster and tenant level) and
     * nothing is queued. opts.priority is added to the tenant's base
     * priority; opts.fairRank and opts.tenantId are overwritten by
     * the cluster. The returned ticket is CLUSTER-owned: it settles
     * with the terminal outcome after failover, not with any single
     * pod attempt, and its report carries servedPod / attempts.
     */
    std::shared_ptr<BootstrapTicket> submit(uint64_t tenantId,
                                            const ckks::Ciphertext& in,
                                            SubmitOptions opts = {});

    /**
     * Submits one encrypted lookup for `tenantId` against the shared
     * PIR database (requires ClusterConfig::pirServer). The same
     * admission pipeline as submit(): shedding, tenant quota and fair
     * rank, breaker-gated routing to the tenant's preferred pod, key
     * cache touch (the tenant's query-key footprint), and failover on
     * retryable pod faults — the answer is byte-identical wherever it
     * is recomputed, because the fold is pure arithmetic on the query.
     * The query is shared, not copied, across attempts.
     */
    std::shared_ptr<PirTicket>
    submitPir(uint64_t tenantId,
              std::shared_ptr<const pir::PirQuery> query,
              SubmitOptions opts = {});

    size_t podCount() const { return tables_[kBootstrap].size(); }

    /** Whether the encrypted-lookup tenant class is configured. */
    bool hasPir() const { return cfg_.pirServer != nullptr; }

    /** Pod i's colocated PIR service (requires hasPir()). */
    PirService&
    pirPod(size_t i)
    {
        return static_cast<PirService&>(*tables_[kLookup].at(i));
    }

    /** Consistent routing target for a tenant (stable across runs:
     *  a fixed 64-bit mix of the id, mod the pod count). */
    size_t preferredPod(uint64_t tenantId) const;

    BootstrapService&
    pod(size_t i)
    {
        return static_cast<BootstrapService&>(*tables_[kBootstrap].at(i));
    }
    const BootstrappingKeyCache&
    keyCache(size_t i) const
    {
        return *caches_.at(i);
    }
    TenantRegistry& registry() { return *registry_; }

    /** One pod's breaker accounting (under the cluster lock). */
    BreakerStats breakerStats(size_t i) const;

    /**
     * Blocks until every accepted flight settled (including pending
     * failover re-dispatches). Requires eventual pod availability: a
     * cluster whose every pod stays crashed or wedged forever cannot
     * finish a drain.
     */
    void drain();

    /** Stops intake on every pod, settles every accepted flight
     *  (failing unplaceable retries), joins workers. Idempotent. */
    void shutdown();

    ClusterMetrics metrics() const;

    /** Blind-rotate items per request (the ring dimension). */
    size_t itemsPerRequest() const { return classes_[kBootstrap].items; }

  private:
    /** Tenant classes: index into tables_ and classes_. */
    static constexpr size_t kBootstrap = 0, kLookup = 1, kClasses = 2;

    /** A tenant class's flight shape and flight accounting. */
    struct ClassInfo {
        size_t items = 0; ///< pod items = admission units per request
        uint64_t submitted = 0, completed = 0, failed = 0; ///< (m_)
    };

    /** One logical client request, alive across failover attempts. */
    struct Flight {
        uint64_t seq = 0; ///< cluster submission index (1-based)
        uint64_t tenantId = 0;
        size_t cls = kBootstrap; ///< tenant class
        /** Builds one attempt's pod request: the shared payload plus
         *  the client's ticket. Bound by submit()/submitPir(). */
        std::function<std::unique_ptr<PodRequest>()> newRequest;
        /** Stamped options (priority/fairRank/tenantId), no hook. */
        SubmitOptions baseOpts;
        std::function<void(const RequestReport&, bool)> userDone;
        size_t keyBytes = 0;
        /** Dispatch attempts so far (guarded by the cluster mutex). */
        uint32_t attempts = 0;
        /** Pod of the last failed attempt; a retry tries every OTHER
         *  pod first ("the next healthy candidate"). Written by the
         *  relay before the retry is enqueued, read by the failover
         *  thread after it is dequeued (the retry queue's mutex
         *  orders the two). */
        int lastPod = -1;
        double submitMs = 0;
        double deadlineAbsMs = std::numeric_limits<double>::infinity();
    };

    /** A failed attempt awaiting re-dispatch. */
    struct Retry {
        std::shared_ptr<Flight> flight;
        std::exception_ptr lastError;
        double notBeforeMs = 0; ///< backoff gate (cluster clock)
    };

    /** Routing candidate admitted by the breaker layer. */
    struct Candidate {
        size_t pod = 0;
        bool probe = false;
        uint64_t items = 0; ///< outstanding-items snapshot at gate time
    };

    enum class Dispatch {
        Placed,    ///< accepted by a pod
        NoRoom,    ///< healthy candidates existed, all full
        NoHealthy, ///< every breaker refused routing
    };

    /**
     * One routing decision: with `gateHealth`, ticks every breaker's
     * staleness detector, gates each pod, and returns the admitted
     * candidates in try order — probes first, then the preferred pod,
     * then the rest by ascending outstanding items. Without it (failover
     * re-dispatch), lists every pod without touching breaker state.
     * The load snapshot is taken under the cluster lock; the sort
     * runs outside it.
     */
    std::vector<Candidate> routeCandidates(uint64_t tenantId,
                                           bool gateHealth);

    /** Outstanding items on pod `pod`, both classes (m_ held). */
    uint64_t podItemsLocked(size_t pod) const;
    /** Pod `pod`'s outstanding items priced at its measured rates
     *  (m_ held). */
    double podLoadMsLocked(size_t pod) const;
    /** One request of class `cls` at pod `pod`'s measured rate; 0
     *  before the pod returns its first batch. Lock-free (the relays
     *  call it under a pod lock). */
    double requestMs(size_t cls, size_t pod) const;

    /** Tries to place one attempt of `flight` on some candidate pod.
     *  `isRetry` selects failover vs initial-routing accounting. */
    Dispatch tryDispatch(const std::shared_ptr<Flight>& flight,
                         bool isRetry);

    /**
     * An attempt's relay (may run under the pod lock): refunds its
     * load, feeds the breaker, and either queues a failover (returns
     * false: the ticket stays open) or closes the flight's books and
     * rewrites the report for the client (returns true).
     */
    bool onAttemptDone(const std::shared_ptr<Flight>& flight,
                       size_t podIdx, bool probe, RequestReport& rep,
                       const std::exception_ptr& err);

    /** Terminal accounting, exactly once per flight, before its
     *  ticket settles; `podIdx` -1 when no pod carried it. */
    void settleFlight(const std::shared_ptr<Flight>& flight,
                      RequestReport& rep, int podIdx, bool ok,
                      bool exhausted);
    /** After the ticket settled: user hook, then the drain count. */
    void flightDone(const std::shared_ptr<Flight>& flight,
                    const RequestReport& rep, bool ok);
    /** Fails a flight no pod can carry (failover thread). */
    void failUnplaced(const std::shared_ptr<Flight>& flight,
                      std::exception_ptr err);

    /** Common admission body of submit()/submitPir(): builds the
     *  flight of tenant class `cls`, then chaos advance, shedding,
     *  registry admission, option stamping, initial dispatch, and
     *  rejection accounting. */
    void submitFlight(
        uint64_t tenantId, size_t cls,
        std::function<std::unique_ptr<PodRequest>()> newRequest,
        SubmitOptions opts);

    void failoverLoop();
    double nowMs() const;

    TenantRegistry* registry_;
    ClusterConfig cfg_;
    size_t podKeyBytes_ = 0; ///< BootstrapKeys::bytes() of the pods
    /** One pod table per tenant class, index = pod; the lookup table
     *  is empty without a configured pirServer. */
    std::array<PodTable, kClasses> tables_;
    std::vector<std::unique_ptr<BootstrappingKeyCache>> caches_;
    std::unique_ptr<ChaosEngine> chaos_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex m_; ///< counters + load table + breakers
    std::condition_variable settleCv_; ///< liveFlights_ drops
    std::array<ClassInfo, kClasses> classes_;
    /** Outstanding items per pod and tenant class: integers, so every
     *  refund is exact. */
    std::vector<std::array<uint64_t, kClasses>> podItems_;
    std::vector<CircuitBreaker> breakers_;
    uint64_t submitSeq_ = 0; ///< submission counter (drives chaos)
    size_t liveFlights_ = 0;
    uint64_t rejectedQuota_ = 0, rejectedCapacity_ = 0;
    uint64_t rejectedUnhealthy_ = 0;
    uint64_t rejectedShedDeadline_ = 0, rejectedShedBrownout_ = 0;
    uint64_t routedPreferred_ = 0, spilled_ = 0;
    uint64_t failovers_ = 0, failoverSucceeded_ = 0,
             failoverExhausted_ = 0;
    uint64_t failoverSweeps_ = 0;
    size_t maxRetryBatch_ = 0;

    // Failover machinery (its own lock: the relays enqueue
    // while possibly holding a pod lock, and must never wait on the
    // dispatch work the failover thread does).
    std::mutex retryM_;
    std::condition_variable retryCv_;
    std::deque<Retry> retryQ_;
    /** Per pod: the backoff gate its latest failures were given. */
    std::vector<double> retryGateMs_;
    bool stopRetry_ = false;
    std::thread failoverThread_;
};

} // namespace heap::serve

#endif // HEAP_SERVE_CLUSTER_H
