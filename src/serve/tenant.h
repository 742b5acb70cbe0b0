/**
 * @file
 * Tenant layer of the serving runtime: the TenantRegistry holds each
 * tenant's identity, weighted-fair share, admission quota, base
 * priority, and modeled bootstrapping-key footprint, and implements
 * the weighted-fair virtual clock whose tags feed the ItemQueue's
 * fairness tier.
 *
 * Fairness model (start-time weighted fair queueing): every tenant t
 * carries a virtual-service counter V_t. Admitting a request of
 * `items` blind-rotate items charges V_t += items / weight_t, and the
 * request enters the scheduler tagged with V_t *before* the charge —
 * so within any contended interval, the number of items a tenant gets
 * served is proportional to its weight, independent of how fast it
 * submits. A tenant that went idle re-enters at the floor of the
 * currently busy tenants' counters (the classic WFQ catch-up rule),
 * so sleeping never banks credit.
 *
 * Quotas are a hard per-tenant in-flight cap enforced at admission —
 * the per-tenant analogue of the service's maxQueuedRequests — so one
 * tenant cannot occupy a whole pod's admission window.
 *
 * Thread-safe: the cluster admits/completes from many threads; all
 * state is guarded by an internal mutex. The completion hooks the
 * cluster installs call back into this registry from service worker
 * threads that may hold the service lock, so nothing here may call
 * into a service.
 */

#ifndef HEAP_SERVE_TENANT_H
#define HEAP_SERVE_TENANT_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace heap::serve {

/** Registration-time description of one tenant. */
struct TenantSpec {
    uint64_t id = 0; ///< nonzero, unique
    std::string name = {};
    /** Weighted-fair share: under contention a tenant receives
     *  service proportional to its weight. Must be > 0. */
    double weight = 1.0;
    /** Hard cap on this tenant's in-flight (admitted, unfinished)
     *  requests across the cluster; exceeding it rejects at
     *  admission. 0 = unlimited. */
    size_t maxInFlight = 0;
    /** Base scheduling priority added to each submission's own. */
    int priority = 0;
    /** Bytes of this tenant's key set that a pod's key cache must
     *  hold; 0 = the keys of the request's class: the pods'
     *  bootstrapping keys (boot::BootstrapKeys::bytes()) for a
     *  bootstrap, the query's RGSW bits
     *  (pir::PirParams::queryBytes()) for a lookup. A tenant that
     *  submits both classes should declare one, since a resident
     *  tenant keeps the charge it was loaded with. */
    size_t keyBytes = 0;
};

/** Point-in-time accounting of one tenant. */
struct TenantStats {
    uint64_t id = 0;
    std::string name;
    double weight = 1.0;
    uint64_t submitted = 0; ///< admitted by quota + capacity
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t rejectedQuota = 0;    ///< refused by maxInFlight
    uint64_t rejectedCapacity = 0; ///< refused by pod admission
    uint64_t rejectedShed = 0;     ///< refused by load shedding
    size_t inFlight = 0;
    uint64_t servedItems = 0; ///< blind-rotate items completed
    double virtualService = 0; ///< the WFQ counter (servedItems-equiv / weight)
};

/** Admission outcome: the fair tag the request enters with. */
struct Admission {
    double fairRank = 0;
};

/**
 * Registry of tenants plus the weighted-fair virtual clock. One
 * registry spans the whole cluster (quotas and fairness are
 * cluster-wide, not per pod).
 */
class TenantRegistry {
  public:
    /** Registers a tenant; throws on a duplicate or invalid spec. */
    void registerTenant(TenantSpec spec);

    bool known(uint64_t id) const;
    size_t count() const;
    std::vector<uint64_t> tenantIds() const;
    const TenantSpec& spec(uint64_t id) const;

    /**
     * Quota check + weighted-fair tagging for one request of `items`
     * blind-rotate items: returns nullopt (and counts the rejection)
     * when the tenant is at its in-flight cap, otherwise charges the
     * virtual clock and returns the tag the request must carry into
     * the scheduler.
     */
    std::optional<Admission> tryAdmit(uint64_t id, size_t items);

    /**
     * Rolls back a tryAdmit whose request was never accepted by any
     * pod (capacity rejection): refunds the virtual-clock charge,
     * releases the in-flight slot, and counts the capacity rejection.
     */
    void cancelAdmit(uint64_t id, size_t items);

    /** Completion bookkeeping for an admitted request. */
    void onComplete(uint64_t id, size_t items, bool ok);

    /** Counts a load-shed rejection (deadline slack or brownout).
     *  Sheds happen BEFORE tryAdmit, so there is nothing to refund —
     *  this only records the outcome against the tenant. */
    void onShed(uint64_t id);

    TenantStats stats(uint64_t id) const;
    std::vector<TenantStats> allStats() const;

    /**
     * Weighted-fairness figure of merit: max over tenants of
     * (servedItems / weight) divided by the min, restricted to
     * tenants with at least `minCompleted` completed requests
     * (occasional tenants are noise, not unfairness). 1.0 = perfectly
     * weighted-proportional service; NaN when fewer than two tenants
     * qualify.
     */
    double fairnessRatio(uint64_t minCompleted = 1) const;

  private:
    struct State {
        TenantSpec spec;
        uint64_t submitted = 0, completed = 0, failed = 0;
        uint64_t rejectedQuota = 0, rejectedCapacity = 0;
        uint64_t rejectedShed = 0;
        size_t inFlight = 0;
        uint64_t servedItems = 0;
        double virtualService = 0;
    };

    const State& at(uint64_t id) const;
    State& at(uint64_t id);
    TenantStats statsLocked(const State& s) const;

    mutable std::mutex m_;
    std::unordered_map<uint64_t, State> tenants_;
};

} // namespace heap::serve

#endif // HEAP_SERVE_TENANT_H
