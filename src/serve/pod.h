/**
 * @file
 * Pod — the one serving skeleton every workload runs on (HEAP §V's
 * unit of work): admission, the front -> rotate -> finish stage
 * queues, continuous batching across requests, lane choice, the fault
 * alphabet, drain/shutdown, and settle/report/metrics.
 *
 * A workload (BootstrapService, PirService) derives from Pod and fills
 * in four hooks:
 *
 *   admit   : reject a malformed request at submit (UserError)
 *   front   : split a request into independent items (off the lock)
 *   runBatch: compute one batch of items, possibly from several
 *             requests, on one lane (off the lock)
 *   finish  : assemble a request's result once its items settled
 *
 * Stage order: a worker takes the first runnable of finish > front >
 * dispatch. Finishing first returns a request as soon as its last
 * item lands instead of behind a whole new batch; front before
 * dispatch ranks every admitted request in the ItemQueue before the
 * next batch forms (priority/EDF/fair order on a single worker).
 * Backpressure applies at stage entry: front waits while the rotate
 * pool is at its request bound, dispatch waits while the finish queue
 * is full or every lane is busy. Finish is never gated — the
 * pipeline's forward-progress guarantee.
 *
 * Faults (the chaos harness's alphabet): injectFailures() fails the
 * next requests at front entry; pause() holds work (a wedge); crash()
 * synchronously fails everything without dispatched compute and
 * rejects intake until recover(). Failures are retryable PodErrors.
 *
 * Thread-safety: every public method may be called concurrently. The
 * hooks run on the pod's workers; completion hooks may run under the
 * pod lock (lock order: pod -> cluster -> registry/ticket).
 */

#ifndef HEAP_SERVE_POD_H
#define HEAP_SERVE_POD_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/metrics.h"
#include "serve/pipeline.h"
#include "serve/request.h"
#include "serve/scheduler.h"

namespace heap::serve {

/** Pod construction knobs, shared by BootstrapService and
 *  PirService. PirService takes the first four and derives its stage
 *  bounds from workers. */
struct ServiceConfig {
    /** Dispatch worker threads (front phases, batch exchanges, and
     *  finish phases all run on these). */
    size_t workers = 1;
    /** Admission cap: live requests (queued + running) beyond this
     *  are rejected at submit(). Bounds service memory. */
    size_t maxQueuedRequests = 64;
    /** Batch size cap in items; 0 = the workload's default: the ring
     *  dimension N for bootstraps (the largest batch a SecondaryNode
     *  accepts), everything pending for lookups. */
    size_t maxBatchItems = 0;
    /** Batches a pending request may be skipped by before it jumps
     *  the priority order (starvation protection). */
    size_t starvationPasses = 8;
    /** Rotate-stage bound, counted in requests with undispatched
     *  items: front work is gated while the pool is at the bound.
     *  0 = max(8, 2 * workers); PirService accepts only 0. */
    size_t rotateQueueRequests = 0;
    /** Finish-stage queue bound, counted in requests awaiting repack:
     *  batch dispatch is gated while the queue is full.
     *  0 = max(2, workers); PirService accepts only 0. */
    size_t finishQueueRequests = 0;
};

/**
 * Server-side state of one accepted request. Workloads derive (via
 * TicketedRequest) to carry their payload and per-item state; the pod
 * owns the scheduling fields.
 */
struct PodRequest {
    virtual ~PodRequest() = default;

    /** Fulfils the ticket with the finished result, or fails it. */
    virtual void settle(std::exception_ptr err,
                        const RequestReport& rep) = 0;

    SubmitOptions opts;
    /**
     * Optional relay, run before the ticket settles and under the
     * same rules as opts.onDone. It may rewrite the report; returning
     * false leaves the ticket (and opts.onDone) untouched because the
     * caller took the request back — the cluster's failover.
     */
    std::function<bool(RequestReport&, const std::exception_ptr&)>
        relay;

    // Pod bookkeeping.
    uint64_t id = 0;
    double arrivalMs = 0;
    double deadlineAbsMs = 0; ///< infinity when none
    double firstDispatchMs = -1;
    double rotateReadyMs = 0; ///< items became dispatchable
    size_t remaining = 0;     ///< items still outstanding
    size_t batches = 0;
    /** First failure of a batch carrying this request's items; the
     *  request fails with it once every item settles. */
    std::exception_ptr batchError;

    // Noise health of the result, set by the workload's finish.
    double budgetBits = std::numeric_limits<double>::infinity();
    double precisionBits = std::numeric_limits<double>::infinity();
    bool guardTripped = false;
};

/** A request that resolves to a ResultTicket<ResultT>. */
template <typename ResultT> struct TicketedRequest : PodRequest {
    std::shared_ptr<ResultTicket<ResultT>> ticket;
    ResultT result;

    void
    settle(std::exception_ptr err, const RequestReport& rep) override
    {
        if (err) {
            ticket->fail(std::move(err), rep);
        } else {
            ticket->fulfil(std::move(result), rep);
        }
    }
};

/** One item of a dispatched batch: (request, item index). */
struct ItemRef {
    PodRequest* req = nullptr;
    size_t index = 0;
};

/** Link traffic of one batch (zero for lanes without a wire). */
struct BatchTraffic {
    uint64_t wireOut = 0, wireIn = 0, retransmits = 0;
    bool reclaimed = false; ///< a dead secondary's batch ran locally
};

class Pod {
  public:
    virtual ~Pod();

    Pod(const Pod&) = delete;
    Pod& operator=(const Pod&) = delete;

    /**
     * Admits one request: the workload's admit() check, then the
     * admission gates (shutting down, crashed, at capacity), each a
     * counted UserError rejection. Returns once the request is queued.
     */
    void submitRequest(std::unique_ptr<PodRequest> req);

    /** Stops starting front and batch work (intake still accepts up
     *  to capacity); the chaos harness's "wedge". */
    void pause();
    void resume();

    /**
     * Crash: every live request without dispatched compute fails with
     * a retryable PodError before this returns; requests with batches
     * in flight fail when the batch returns (in-flight work is lost).
     * submit rejects until recover().
     */
    void crash();
    void recover();
    bool crashed() const;

    /** Fails the next `n` requests at front entry with a PodError.
     *  Injected failures stack and survive pause/resume. */
    void injectFailures(uint64_t n);

    /** Blocks until every accepted request settled. Must not be
     *  called while paused. */
    void drain();

    /** Stops intake, settles every accepted request, joins the
     *  workers. Idempotent. */
    void shutdown();

    ServiceMetrics metrics() const;

    /** Live requests (queued + running): the admission occupancy. */
    size_t liveRequests() const;
    /** Whether admission control would reject right now. */
    bool full() const;

    /** Dispatch lanes (concurrent batches). */
    size_t lanes() const { return laneBusy_.size(); }

    /**
     * Measured lane time per rotated item: rotate-stage busy ms over
     * the items of every returned batch; 0 until the first batch
     * returns. Deadline batch sizing and the cluster's shedding and
     * failover deadlines price work with it. Lock-free, because the
     * cluster reads it from attempt relays that run under this pod's
     * lock.
     */
    double
    msPerItem() const
    {
        return msPerItem_.load(std::memory_order_relaxed);
    }

    const ServiceConfig& config() const { return cfg_; }

  protected:
    /**
     * @param name        "bootstrap" / "pir", for error messages
     * @param cfg         workers, admission cap, starvation passes,
     *                    stage bounds (0 = derived from the worker
     *                    count)
     * @param lanes       concurrent batch lanes
     * @param batchItems  batch cap in items (resolved, >= 1)
     */
    Pod(const char* name, const ServiceConfig& cfg, size_t lanes,
        size_t batchItems);

    /** Starts the workers; the last statement of the derived
     *  constructor (the hooks must be callable). A derived destructor
     *  must call shutdown() before its members go. */
    void start();

    /** Throws UserError when `req` cannot be served (any pod). */
    virtual void admit(const PodRequest& req) const = 0;
    /** Prepares `req` and returns its item count; throws to fail it. */
    virtual size_t front(PodRequest& req) = 0;
    /** Computes `items` on `lane`, storing each result in its request
     *  (disjoint per item); throws to fail every request in it. */
    virtual BatchTraffic runBatch(size_t lane,
                                  const std::vector<ItemRef>& items) = 0;
    /** Builds the result and its noise fields into `req`; throws to
     *  fail it. */
    virtual void finish(PodRequest& req) = 0;

  private:
    void workerLoop();
    void runFront(std::unique_lock<std::mutex>& lock);
    void runDispatch(std::unique_lock<std::mutex>& lock);
    void runFinish(std::unique_lock<std::mutex>& lock);
    /** Closes the books on `p` (report, counters) and detaches it. */
    std::unique_ptr<PodRequest> closeLocked(PodRequest* p, bool ok,
                                            RequestReport& rep);
    /** Relay, then ticket, then completion hook. */
    void deliver(std::unique_ptr<PodRequest> p, std::exception_ptr err,
                 RequestReport rep);
    void failRequestLocked(PodRequest* p, std::exception_ptr err);
    std::exception_ptr podDown() const;
    size_t pickLaneLocked() const;
    double nowMs() const;
    bool canFrontLocked() const;
    bool canDispatchLocked() const;
    bool haveRunnableWorkLocked() const;
    bool idleLocked() const;
    bool crashWorkLocked() const;
    /** Fails everything queued (intake, rotate pool, finish queue). */
    void crashFlushLocked();

    std::string name_;
    ServiceConfig cfg_;
    size_t batchItems_; ///< batch cap in items
    ItemQueue queue_;
    size_t rotateCap_ = 0; ///< rotate pool bound, in requests

    mutable std::mutex m_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::vector<std::thread> workers_;
    PipelineBoard board_; ///< declared before the queues feeding it
    StageQueue<uint64_t> intake_{Stage::Front, &board_};
    StageQueue<PodRequest*> finishQ_{Stage::Finish, &board_};
    std::unordered_map<uint64_t, std::unique_ptr<PodRequest>> live_;
    std::vector<uint8_t> laneBusy_;
    std::vector<uint64_t> laneItems_; ///< items dispatched per lane
    bool paused_ = false;
    bool crashed_ = false;
    bool stopping_ = false;
    bool joined_ = false;
    uint64_t injectRemaining_ = 0;
    /** Fronts, batches and finishes running off the lock. */
    size_t inFlight_ = 0;
    uint64_t nextId_ = 1;

    // Metrics (guarded by m_).
    std::chrono::steady_clock::time_point epoch_;
    uint64_t submitted_ = 0, completed_ = 0, failed_ = 0,
             rejected_ = 0, deadlineMisses_ = 0, completionSeq_ = 0;
    size_t maxQueueDepth_ = 0;
    uint64_t batches_ = 0, occupancySum_ = 0, itemsSum_ = 0;
    uint64_t rotatedItems_ = 0; ///< items of returned batches
    std::atomic<double> msPerItem_{0.0};
    uint64_t wireOut_ = 0, wireIn_ = 0, retransmits_ = 0,
             reclaimed_ = 0;
    uint64_t injectedFailures_ = 0, crashes_ = 0;
    LatencyReservoir latency_;
    double minReturnedBudgetBits_ =
        std::numeric_limits<double>::infinity();
    uint64_t guardTrips_ = 0;
};

/** A tenant class's pods, indexed by pod. */
using PodTable = std::vector<std::unique_ptr<Pod>>;

} // namespace heap::serve

#endif // HEAP_SERVE_POD_H
