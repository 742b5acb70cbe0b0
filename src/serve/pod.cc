#include "serve/pod.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace heap::serve {

Pod::Pod(const char* name, const ServiceConfig& cfg, size_t lanes,
         size_t batchItems)
    : name_(name),
      cfg_(cfg),
      batchItems_(batchItems),
      queue_(cfg.starvationPasses),
      epoch_(std::chrono::steady_clock::now())
{
    HEAP_CHECK(cfg.workers >= 1 && cfg.workers <= 64,
               "bad worker count " << cfg.workers);
    HEAP_CHECK(cfg.maxQueuedRequests >= 1, "bad admission cap");
    HEAP_CHECK(lanes >= 1 && batchItems >= 1, "bad pod shape");
    rotateCap_ = cfg.rotateQueueRequests != 0
                     ? cfg.rotateQueueRequests
                     : std::max<size_t>(8, 2 * cfg.workers);
    finishQ_.setCapacity(cfg.finishQueueRequests != 0
                             ? cfg.finishQueueRequests
                             : std::max<size_t>(2, cfg.workers));
    laneBusy_.assign(lanes, 0);
    laneItems_.assign(lanes, 0);
}

Pod::~Pod()
{
    shutdown();
}

void
Pod::start()
{
    workers_.reserve(cfg_.workers);
    for (size_t i = 0; i < cfg_.workers; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
    }
}

double
Pod::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::exception_ptr
Pod::podDown() const
{
    return std::make_exception_ptr(
        PodError(name_ + " pod crashed: request lost"));
}

void
Pod::submitRequest(std::unique_ptr<PodRequest> req)
{
    if (req->opts.deadlineMs) {
        HEAP_CHECK(*req->opts.deadlineMs >= 0,
                   "negative deadline " << *req->opts.deadlineMs);
    }
    // Shape-check before admission: a malformed request fails loudly
    // at the door, never as a pod fault inside a shared batch.
    admit(*req);
    {
        std::lock_guard<std::mutex> lock(m_);
        if (stopping_) {
            ++rejected_;
            HEAP_FATAL(name_ << " service is shutting down: "
                             << "request rejected");
        }
        if (crashed_) {
            ++rejected_;
            HEAP_FATAL(name_ << " pod crashed: request rejected");
        }
        if (live_.size() >= cfg_.maxQueuedRequests) {
            // Backpressure: bounded queueing, reject-with-error.
            ++rejected_;
            HEAP_FATAL(name_ << " service at capacity (" << live_.size()
                             << " live requests): request rejected");
        }
        PodRequest* p = req.get();
        p->id = nextId_++;
        p->arrivalMs = nowMs();
        p->deadlineAbsMs =
            p->opts.deadlineMs ? p->arrivalMs + *p->opts.deadlineMs
                               : std::numeric_limits<double>::infinity();
        intake_.push(p->id, p->arrivalMs);
        live_.emplace(p->id, std::move(req));
        ++submitted_;
        maxQueueDepth_ = std::max(maxQueueDepth_, live_.size());
    }
    workCv_.notify_all();
}

void
Pod::pause()
{
    std::lock_guard<std::mutex> lock(m_);
    paused_ = true;
}

void
Pod::resume()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        paused_ = false;
    }
    workCv_.notify_all();
}

void
Pod::crash()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        if (!crashed_) {
            crashed_ = true;
            ++crashes_;
        }
        // Flush synchronously: when crash() returns, every request
        // without dispatched compute HAS failed and its hooks have
        // run. Deferring to a worker would make the fault window
        // scheduler-dependent — a crash/recover pair applied a few
        // microseconds apart (chaos events on adjacent submission
        // indices) could fail nothing at all. Requests with batches
        // in flight settle through the worker when the batch returns.
        crashFlushLocked();
    }
    workCv_.notify_all();
}

void
Pod::recover()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        crashed_ = false;
    }
    workCv_.notify_all();
}

bool
Pod::crashed() const
{
    std::lock_guard<std::mutex> lock(m_);
    return crashed_;
}

void
Pod::injectFailures(uint64_t n)
{
    {
        std::lock_guard<std::mutex> lock(m_);
        injectRemaining_ += n;
    }
    workCv_.notify_all();
}

void
Pod::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    HEAP_CHECK(!paused_, "drain() on a paused service cannot finish");
    // inFlight_ covers a finish still handing its result over.
    doneCv_.wait(lock, [&] { return live_.empty() && inFlight_ == 0; });
}

void
Pod::shutdown()
{
    std::vector<std::thread> toJoin;
    {
        std::lock_guard<std::mutex> lock(m_);
        stopping_ = true;
        paused_ = false; // the drain needs the workers running
        if (!joined_) {
            joined_ = true;
            toJoin.swap(workers_);
        }
    }
    workCv_.notify_all();
    // Workers exit only once every accepted request has settled, so
    // joining them IS the drain.
    for (std::thread& t : toJoin) {
        t.join();
    }
}

size_t
Pod::liveRequests() const
{
    std::lock_guard<std::mutex> lock(m_);
    return live_.size();
}

bool
Pod::full() const
{
    std::lock_guard<std::mutex> lock(m_);
    return live_.size() >= cfg_.maxQueuedRequests;
}

size_t
Pod::pickLaneLocked() const
{
    size_t best = laneBusy_.size();
    for (size_t i = 0; i < laneBusy_.size(); ++i) {
        if (!laneBusy_[i]
            && (best == laneBusy_.size()
                || laneItems_[i] < laneItems_[best])) {
            best = i;
        }
    }
    return best;
}

bool
Pod::canFrontLocked() const
{
    // Front entry is gated on the rotate pool's request bound. A
    // crashed pod does no front compute: the crash flush fails the
    // intake directly.
    return !paused_ && !crashed_ && !intake_.empty()
           && queue_.pendingRequests() < rotateCap_;
}

bool
Pod::canDispatchLocked() const
{
    // Gated on room in the finish queue plus a free lane; the gate
    // (not a blocking push) is what keeps a full finish queue from
    // wedging the worker pool.
    return !paused_ && !crashed_ && !queue_.empty()
           && finishQ_.hasRoom()
           && pickLaneLocked() != laneBusy_.size();
}

bool
Pod::crashWorkLocked() const
{
    return crashed_
           && (!intake_.empty() || !queue_.empty() || !finishQ_.empty());
}

bool
Pod::haveRunnableWorkLocked() const
{
    // The finish stage is never gated, not even by pause(): in-flight
    // work always completes.
    return crashWorkLocked() || !finishQ_.empty() || canFrontLocked()
           || canDispatchLocked();
}

bool
Pod::idleLocked() const
{
    // Every stage queue counts: a request resident in one is
    // accepted-but-unsettled work that drain()/shutdown() promise to
    // complete.
    return intake_.empty() && queue_.empty() && finishQ_.empty()
           && inFlight_ == 0;
}

void
Pod::crashFlushLocked()
{
    double readyMs = 0;
    // Intake: nothing computed yet, fail directly.
    while (!intake_.empty()) {
        const uint64_t id = intake_.pop(&readyMs);
        failRequestLocked(live_.at(id).get(), podDown());
    }
    // Rotate pool: settle every undispatched item as failed. Requests
    // whose whole tail was still queued reach zero remaining here;
    // requests with batches in flight keep their outstanding count and
    // fail when the batch returns. Never touching a request with
    // dispatched items is what makes the flush safe against the
    // workers computing those batches right now.
    if (!queue_.empty()) {
        PlannedBatch all = queue_.formBatch(queue_.pendingItems());
        board_.dequeued(Stage::Rotate, all.items.size());
        const double now = nowMs();
        for (const WorkItem& w : all.items) {
            PodRequest* p = live_.at(w.requestId).get();
            if (!p->batchError) {
                p->batchError = podDown();
            }
            if (--p->remaining == 0) {
                finishQ_.push(p, now);
            }
        }
    }
    // Finish queue: every item settled; fail without finishing.
    while (!finishQ_.empty()) {
        PodRequest* p = finishQ_.pop(&readyMs);
        failRequestLocked(p, p->batchError ? p->batchError : podDown());
    }
}

std::unique_ptr<PodRequest>
Pod::closeLocked(PodRequest* p, bool ok, RequestReport& rep)
{
    const double now = nowMs();
    rep.id = p->id;
    rep.totalMs = now - p->arrivalMs;
    rep.queueMs =
        (p->firstDispatchMs >= 0 ? p->firstDispatchMs : now)
        - p->arrivalMs;
    rep.batches = p->batches;
    rep.deadlineMissed = now > p->deadlineAbsMs;
    rep.completionSeq = ++completionSeq_;
    rep.budgetBits = p->budgetBits;
    rep.precisionBits = p->precisionBits;
    if (ok) {
        ++completed_;
        latency_.record(rep.totalMs);
        deadlineMisses_ += rep.deadlineMissed ? 1 : 0;
        minReturnedBudgetBits_ =
            std::min(minReturnedBudgetBits_, p->budgetBits);
        guardTrips_ += p->guardTripped ? 1 : 0;
    } else {
        ++failed_;
    }
    auto it = live_.find(p->id);
    std::unique_ptr<PodRequest> owned = std::move(it->second);
    live_.erase(it);
    return owned;
}

void
Pod::deliver(std::unique_ptr<PodRequest> p, std::exception_ptr err,
             RequestReport rep)
{
    // The ticket's lock nests inside the pod lock only, never the
    // reverse; hooks must not re-enter the pod.
    if (!p->relay || p->relay(rep, err)) {
        const bool ok = err == nullptr;
        p->settle(std::move(err), rep);
        if (p->opts.onDone) {
            p->opts.onDone(rep, ok);
        }
    }
    doneCv_.notify_all();
}

void
Pod::failRequestLocked(PodRequest* p, std::exception_ptr err)
{
    RequestReport rep;
    std::unique_ptr<PodRequest> owned = closeLocked(p, false, rep);
    deliver(std::move(owned), std::move(err), rep);
}

void
Pod::runFront(std::unique_lock<std::mutex>& lock)
{
    double readyMs = 0;
    const uint64_t id = intake_.pop(&readyMs);
    PodRequest* p = live_.at(id).get();
    if (injectRemaining_ > 0) {
        // Chaos fault: this request fails before any compute, with
        // the retryable error the cluster fails over on.
        --injectRemaining_;
        ++injectedFailures_;
        failRequestLocked(p, std::make_exception_ptr(PodError(
                                 "injected pod fault: request failed")));
        return;
    }
    ++inFlight_;
    const double startMs = nowMs();
    board_.taskStarted(Stage::Front, startMs, readyMs);
    lock.unlock();
    size_t items = 0;
    std::exception_ptr err;
    try {
        items = front(*p);
    } catch (...) {
        err = std::current_exception();
    }
    lock.lock();
    --inFlight_;
    board_.taskFinished(Stage::Front, startMs, nowMs());
    if (err) {
        failRequestLocked(p, std::move(err));
    } else if (crashed_) {
        failRequestLocked(p, podDown()); // crashed mid-front: lost
    } else {
        p->remaining = items;
        p->rotateReadyMs = nowMs();
        queue_.addRequest(p->id, p->opts.priority, p->deadlineAbsMs,
                          items, p->opts.fairRank);
        board_.enqueued(Stage::Rotate, items);
    }
}

void
Pod::runDispatch(std::unique_lock<std::mutex>& lock)
{
    // Lane and batch are both decided under the lock, so the
    // scheduler state is consistent; the batch runs off it.
    const size_t lane = pickLaneLocked();
    const double slackMs = queue_.minDeadlineAbsMs() - nowMs();
    PlannedBatch batch = queue_.formBatch(chooseBatchSize(
        queue_.pendingItems(), batchItems_, slackMs, msPerItem()));
    HEAP_ASSERT(!batch.items.empty(), "empty batch formed");

    std::vector<ItemRef> refs;
    refs.reserve(batch.items.size());
    const double now = nowMs();
    double readyMs = now;
    PodRequest* lastReq = nullptr;
    for (const WorkItem& w : batch.items) {
        PodRequest* p = live_.at(w.requestId).get();
        refs.push_back(ItemRef{p, w.index});
        if (p != lastReq) { // items arrive grouped per request
            if (p->firstDispatchMs < 0) {
                p->firstDispatchMs = now;
            }
            ++p->batches;
            readyMs = std::min(readyMs, p->rotateReadyMs);
            lastReq = p;
        }
    }
    ++batches_;
    occupancySum_ += batch.distinctRequests;
    itemsSum_ += batch.items.size();
    laneBusy_[lane] = 1;
    laneItems_[lane] += batch.items.size();
    ++inFlight_;
    board_.dequeued(Stage::Rotate, batch.items.size());
    board_.taskStarted(Stage::Rotate, now, readyMs);
    lock.unlock();

    // Safe without the lock: a request's front happened-before its
    // items were queued, each item is dispatched exactly once, and a
    // request with items in flight is never settled or flushed.
    BatchTraffic traffic;
    std::exception_ptr err;
    try {
        traffic = runBatch(lane, refs);
    } catch (...) {
        err = std::current_exception();
    }

    lock.lock();
    wireOut_ += traffic.wireOut;
    wireIn_ += traffic.wireIn;
    retransmits_ += traffic.retransmits;
    reclaimed_ += traffic.reclaimed ? 1 : 0;
    // Account the rotate task before any request it completes can
    // reach the finish stage: a metrics() snapshot taken after the
    // last ticket settles must already count this batch.
    const double end = nowMs();
    board_.taskFinished(Stage::Rotate, now, end);
    rotatedItems_ += refs.size();
    msPerItem_.store(board_.busyMs(Stage::Rotate)
                         / static_cast<double>(rotatedItems_),
                     std::memory_order_relaxed);
    for (const ItemRef& r : refs) {
        if (err && !r.req->batchError) {
            r.req->batchError = err;
        }
        if (--r.req->remaining == 0) {
            // The push never blocks; dispatch gating keeps the queue
            // near its bound (one batch may complete several
            // requests, briefly overshooting it).
            finishQ_.push(r.req, end);
        }
    }
    --inFlight_;
    laneBusy_[lane] = 0;
}

void
Pod::runFinish(std::unique_lock<std::mutex>& lock)
{
    double readyMs = 0;
    PodRequest* p = finishQ_.pop(&readyMs);
    ++inFlight_;
    const double startMs = nowMs();
    board_.taskStarted(Stage::Finish, startMs, readyMs);
    lock.unlock();
    std::exception_ptr err = p->batchError;
    if (!err) {
        try {
            finish(*p);
        } catch (...) {
            err = std::current_exception();
        }
    }
    lock.lock();
    // Finish accounting runs before the ticket settles, so a metrics()
    // after ticket.wait() always sees the task counted.
    board_.taskFinished(Stage::Finish, startMs, nowMs());
    RequestReport rep;
    std::unique_ptr<PodRequest> owned = closeLocked(p, !err, rep);
    lock.unlock();
    deliver(std::move(owned), std::move(err), rep);
    lock.lock();
    --inFlight_;
    doneCv_.notify_all(); // drain() also waits for the handover
}

void
Pod::workerLoop()
{
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        workCv_.wait(lock, [&] {
            return haveRunnableWorkLocked()
                   || (stopping_ && idleLocked());
        });
        if (stopping_ && idleLocked()) {
            return;
        }
        // Backpressure accounting: a stage with waiting work held
        // back only by its downstream bound, sampled once per
        // executed loop iteration.
        if (!paused_ && !intake_.empty()
            && queue_.pendingRequests() >= rotateCap_) {
            board_.backpressured(Stage::Front);
        }
        if (!paused_ && !queue_.empty() && !finishQ_.hasRoom()) {
            board_.backpressured(Stage::Rotate);
        }

        if (crashWorkLocked()) {
            crashFlushLocked(); // a crashed pod fails its backlog
        } else if (!finishQ_.empty()) {
            runFinish(lock);
        } else if (canFrontLocked()) {
            runFront(lock);
        } else if (canDispatchLocked()) {
            runDispatch(lock);
        }
        workCv_.notify_all();
    }
}

ServiceMetrics
Pod::metrics() const
{
    std::lock_guard<std::mutex> lock(m_);
    ServiceMetrics m;
    m.submitted = submitted_;
    m.completed = completed_;
    m.failed = failed_;
    m.rejected = rejected_;
    m.deadlineMisses = deadlineMisses_;
    m.queueDepth = live_.size();
    m.maxQueueDepth = maxQueueDepth_;
    m.batches = batches_;
    if (batches_ > 0) {
        m.batchOccupancy = static_cast<double>(occupancySum_)
                           / static_cast<double>(batches_);
        m.meanBatchItems = static_cast<double>(itemsSum_)
                           / static_cast<double>(batches_);
    }
    if (latency_.count() > 0) {
        m.p50Ms = latency_.percentile(50);
        m.p95Ms = latency_.percentile(95);
        m.p99Ms = latency_.percentile(99);
        m.meanMs = latency_.mean();
    }
    m.injectedFailures = injectedFailures_;
    m.crashes = crashes_;
    m.wireBytesOut = wireOut_;
    m.wireBytesIn = wireIn_;
    m.retransmits = retransmits_;
    m.reclaimedBatches = reclaimed_;
    m.minReturnedBudgetBits = minReturnedBudgetBits_;
    m.guardTrips = guardTrips_;
    m.pipeline = board_.snapshot();
    return m;
}

} // namespace heap::serve
