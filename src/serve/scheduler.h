/**
 * @file
 * Scheduling core of the bootstrap serving runtime, split from the
 * threaded service so the policy is unit-testable in isolation:
 *
 *  - ItemQueue: the continuous-batching work-item queue. Every
 *    admitted request contributes `itemCount` independent
 *    blind-rotate items (Algorithm 2's n LWE extractions); batches
 *    are formed from the *globally* highest-ranked items, so one
 *    batch freely mixes items from different requests and a
 *    straggler request no longer leaves a node idle. Ranking is
 *    weighted-fair credit (the tenant layer's virtual-service tag,
 *    lower first), then priority, then earliest deadline, then
 *    arrival order, with starvation protection: a request skipped by
 *    too many consecutive batch formations is boosted ahead of
 *    everything. Single-tenant callers leave every fair rank at 0, so
 *    the tier is inert and the policy reduces to priority/EDF.
 *
 *  - chooseBatchSize: as large as the pending work and the cap allow
 *    (amortizing the per-batch dispatch/framing overhead), cut so the
 *    batch still fits the tightest pending deadline's slack at the
 *    pod's measured cost per item.
 */

#ifndef HEAP_SERVE_SCHEDULER_H
#define HEAP_SERVE_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace heap::serve {

/** One blind-rotate work item: request + extraction index. */
struct WorkItem {
    uint64_t requestId = 0;
    size_t index = 0;
};

/** A formed batch plus its packing statistics. */
struct PlannedBatch {
    std::vector<WorkItem> items;
    size_t distinctRequests = 0;
};

/**
 * Priority/deadline/aging-ordered pool of pending blind-rotate items.
 * Not thread-safe; the service mutates it under its own lock.
 */
class ItemQueue {
  public:
    /** @param starvationPasses consecutive batch formations a request
     *         may be skipped by before it is boosted to the front. */
    explicit ItemQueue(size_t starvationPasses);

    /**
     * Admits a request's items. `deadlineAbsMs` is the absolute
     * deadline on the caller's clock (infinity when none); requests
     * admitted earlier win ties. `fairRank` is the tenant layer's
     * weighted-fair virtual-service tag (TenantRegistry::tryAdmit):
     * lower ranks are served first, ahead of priority, so a tenant
     * that has consumed more weight-normalized service yields to one
     * that has consumed less. The default 0 keeps every request in
     * one fairness class (the pre-tenant behaviour).
     */
    void addRequest(uint64_t id, int priority, double deadlineAbsMs,
                    size_t itemCount, double fairRank = 0.0);

    bool empty() const { return pendingItems_ == 0; }
    size_t pendingItems() const { return pendingItems_; }
    /** Requests that still have undispatched items (the rotate-stage
     *  queue bound is counted in requests, not items). */
    size_t pendingRequests() const { return pending_.size(); }

    /** Tightest absolute deadline among pending requests (infinity
     *  when none carries one); feeds chooseBatchSize's slack. */
    double minDeadlineAbsMs() const;

    /**
     * Forms the next batch of up to `maxItems` items in rank order
     * (within one request, items go out in ascending index order).
     * Requests left with pending items accrue one starvation pass;
     * included requests reset theirs.
     */
    PlannedBatch formBatch(size_t maxItems);

  private:
    struct Entry {
        uint64_t id = 0;
        int priority = 0;
        double fairRank = 0;
        double deadlineAbsMs = 0;
        uint64_t arrivalSeq = 0;
        size_t nextIndex = 0; ///< first undispatched item
        size_t itemCount = 0;
        size_t passes = 0;    ///< consecutive batches that skipped it
    };

    /** True when a ranks strictly before b under the policy. */
    bool ranksBefore(const Entry& a, const Entry& b) const;

    std::vector<Entry> pending_;
    size_t starvationPasses_;
    size_t pendingItems_ = 0;
    uint64_t arrivalCounter_ = 0;
};

/**
 * Batch size for the next dispatch: min(pendingItems, maxItems), cut
 * to floor(slackMs / msPerItem) when the slack (the tightest pending
 * deadline minus now) is finite and fits at least one item at the
 * measured `msPerItem`. With no measurement (0) or a deadline already
 * lost, the batch stays full and the miss is accounted. Never below 1.
 */
size_t chooseBatchSize(size_t pendingItems, size_t maxItems,
                       double slackMs, double msPerItem);

} // namespace heap::serve

#endif // HEAP_SERVE_SCHEDULER_H
