#include "serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace heap::serve {

ItemQueue::ItemQueue(size_t starvationPasses)
    : starvationPasses_(starvationPasses)
{
    HEAP_CHECK(starvationPasses >= 1, "bad starvation threshold");
}

void
ItemQueue::addRequest(uint64_t id, int priority, double deadlineAbsMs,
                      size_t itemCount, double fairRank)
{
    HEAP_CHECK(itemCount >= 1, "request with no work items");
    HEAP_CHECK(std::isfinite(fairRank), "bad fair rank " << fairRank);
    Entry e;
    e.id = id;
    e.priority = priority;
    e.fairRank = fairRank;
    e.deadlineAbsMs = deadlineAbsMs;
    e.arrivalSeq = arrivalCounter_++;
    e.itemCount = itemCount;
    pending_.push_back(e);
    pendingItems_ += itemCount;
}

double
ItemQueue::minDeadlineAbsMs() const
{
    double min = std::numeric_limits<double>::infinity();
    for (const Entry& e : pending_) {
        min = std::min(min, e.deadlineAbsMs);
    }
    return min;
}

bool
ItemQueue::ranksBefore(const Entry& a, const Entry& b) const
{
    // Starvation boost dominates everything: a request skipped by
    // starvationPasses_ consecutive batches goes first, oldest first,
    // so a stream of high-priority arrivals cannot starve the tail.
    const bool aBoost = a.passes >= starvationPasses_;
    const bool bBoost = b.passes >= starvationPasses_;
    if (aBoost != bBoost) {
        return aBoost;
    }
    if (aBoost) {
        return a.arrivalSeq < b.arrivalSeq;
    }
    // Weighted fairness outranks priority: a tenant that has consumed
    // less weight-normalized service (lower virtual tag) goes first,
    // so one tenant's priority-9 flood cannot crowd out another
    // tenant's share. All-equal tags (the single-tenant case) fall
    // through to the classic priority/EDF order.
    if (a.fairRank != b.fairRank) {
        return a.fairRank < b.fairRank;
    }
    if (a.priority != b.priority) {
        return a.priority > b.priority;
    }
    if (a.deadlineAbsMs != b.deadlineAbsMs) {
        return a.deadlineAbsMs < b.deadlineAbsMs;
    }
    return a.arrivalSeq < b.arrivalSeq;
}

PlannedBatch
ItemQueue::formBatch(size_t maxItems)
{
    HEAP_CHECK(maxItems >= 1, "empty batch requested");
    PlannedBatch batch;
    if (pending_.empty()) {
        return batch;
    }
    std::stable_sort(pending_.begin(), pending_.end(),
                     [&](const Entry& a, const Entry& b) {
                         return ranksBefore(a, b);
                     });
    size_t taken = 0;
    for (Entry& e : pending_) {
        if (taken == maxItems) {
            ++e.passes; // skipped entirely by this batch
            continue;
        }
        const size_t want = e.itemCount - e.nextIndex;
        const size_t grab = std::min(want, maxItems - taken);
        for (size_t k = 0; k < grab; ++k) {
            batch.items.push_back(WorkItem{e.id, e.nextIndex + k});
        }
        e.nextIndex += grab;
        taken += grab;
        ++batch.distinctRequests;
        // Served (even partially): the starvation counter restarts.
        e.passes = 0;
    }
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [](const Entry& e) {
                                      return e.nextIndex == e.itemCount;
                                  }),
                   pending_.end());
    pendingItems_ -= batch.items.size();
    return batch;
}

size_t
chooseBatchSize(size_t pendingItems, size_t maxItems, double slackMs,
                double msPerItem)
{
    HEAP_CHECK(pendingItems >= 1 && maxItems >= 1, "empty batch");
    const size_t size = std::min(pendingItems, maxItems);
    if (!(msPerItem > 0) || !std::isfinite(slackMs)
        || slackMs < msPerItem) {
        return size;
    }
    const double fit = slackMs / msPerItem; // >= 1 here
    return fit < static_cast<double>(size) ? static_cast<size_t>(fit)
                                           : size;
}

} // namespace heap::serve
