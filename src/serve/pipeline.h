/**
 * @file
 * Staged-pipeline plumbing of the serving pod (serve/pod.h): stage
 * identities, the bounded stage queues sitting between them, and the
 * PipelineBoard that accounts per-stage occupancy, queue depth, and
 * stall time.
 *
 * The pod runs every request through three stages — named for the
 * bootstrap workload; a PIR pod's are group split / group folds /
 * finish fold —
 *
 *   Front  : modulus switch + LWE extraction (Algorithm 2 steps 1-2)
 *   Rotate : blind-rotate batches dispatched across lanes
 *            (primary-local + one per secondary link)
 *   Finish : repack + rescale + analytic output budget (steps 4-5)
 *
 * — connected by bounded queues so repack of batch i overlaps
 * rotation of batch i+1, the software analogue of the compute/
 * communication overlap in HEAP's Section V schedule. Backpressure is
 * enforced at stage *entry* (a worker does not start a stage task
 * unless the downstream queue has room), never by blocking mid-push,
 * so the shared worker pool can never deadlock on a full queue.
 *
 * Nothing here is thread-safe on its own: the pod mutates queues
 * and board under its single mutex, exactly like the ItemQueue.
 */

#ifndef HEAP_SERVE_PIPELINE_H
#define HEAP_SERVE_PIPELINE_H

#include <cstdint>
#include <deque>
#include <limits>

#include "common/check.h"

namespace heap::serve {

/** The three service stages, in dataflow order. */
enum class Stage : size_t {
    Front = 0,  ///< modulus switch + extraction
    Rotate = 1, ///< blind-rotate batch dispatch over lanes
    Finish = 2, ///< repack + rescale + fulfil
};

constexpr size_t kStageCount = 3;

/** Human-readable stage name ("front" / "rotate" / "finish"). */
const char* stageName(Stage s);

/** Point-in-time counters of one stage (see ServiceMetrics). */
struct StageMetrics {
    const char* name = "";
    /** Work units pushed into the stage queue (requests for front and
     *  finish, LWE items for rotate). */
    uint64_t entered = 0;
    /** Stage executions completed (front/finish phases run, rotate
     *  batches dispatched). */
    uint64_t tasks = 0;
    size_t queueDepth = 0;    ///< units currently waiting
    size_t maxQueueDepth = 0; ///< high-water mark since start
    double busyMs = 0;  ///< total wall time spent executing the stage
    double stallMs = 0; ///< total ready-to-started queue wait
    /**
     * busyMs over the pipeline's busy window (first task started to
     * last task finished). Rotate counts every lane, so values above
     * 1.0 mean concurrent lanes; the *sum* across stages above 1.0
     * means stages genuinely overlapped in time.
     */
    double occupancy = 0;
    /** Times a runnable task at this stage was held back because the
     *  downstream queue had no room (backpressure). */
    uint64_t backpressured = 0;
};

/** All three stages plus the overlap summary. */
struct PipelineMetrics {
    StageMetrics stages[kStageCount];
    double windowMs = 0; ///< first task start to last task end
    /** Sum of the per-stage occupancies: > 1.0 proves two stages (or
     *  two rotate lanes) were busy at the same wall-clock time. */
    double overlap = 0;

    const StageMetrics&
    stage(Stage s) const
    {
        return stages[static_cast<size_t>(s)];
    }
};

/**
 * Accounting board for the staged pipeline. The owning service calls
 * the hooks under its lock; timestamps are taken by the caller (its
 * monotonic clock) so the board never touches the clock itself.
 */
class PipelineBoard {
  public:
    /** `units` work units entered the stage queue. */
    void enqueued(Stage s, size_t units);

    /** `units` work units left the stage queue (picked up). */
    void dequeued(Stage s, size_t units);

    /** Absolute queue depth for stages with an external queue (the
     *  rotate stage's ItemQueue tracks its own item count). */
    void setDepth(Stage s, size_t depth);

    /** A worker started a stage task that became ready at `readyMs`. */
    void taskStarted(Stage s, double nowMs, double readyMs);

    /** The task that started at `startMs` finished at `endMs`. */
    void taskFinished(Stage s, double startMs, double endMs);

    /** A runnable task was skipped: downstream queue full. */
    void backpressured(Stage s);

    /** Total execution time of stage `s` so far. */
    double
    busyMs(Stage s) const
    {
        return c_[static_cast<size_t>(s)].busyMs;
    }

    /** Snapshot with occupancies computed over the busy window. */
    PipelineMetrics snapshot() const;

  private:
    struct Counters {
        uint64_t entered = 0;
        uint64_t tasks = 0;
        uint64_t backpressured = 0;
        size_t depth = 0;
        size_t maxDepth = 0;
        double busyMs = 0;
        double stallMs = 0;
    };

    Counters&
    at(Stage s)
    {
        return c_[static_cast<size_t>(s)];
    }

    Counters c_[kStageCount];
    double firstStartMs_ = std::numeric_limits<double>::infinity();
    double lastEndMs_ = 0;
};

/**
 * FIFO stage queue with a capacity and per-entry ready timestamps
 * (feeding the board's stall accounting). Capacity is advisory at
 * *entry*: hasRoom() gates upstream work, push() itself never blocks
 * or fails — in-flight upstream tasks may briefly overshoot the bound
 * by the number of busy lanes (see DESIGN.md "Staged pipeline").
 */
template <typename T>
class StageQueue {
  public:
    StageQueue(Stage stage, PipelineBoard* board)
        : stage_(stage), board_(board)
    {
    }

    void
    setCapacity(size_t cap)
    {
        HEAP_CHECK(cap >= 1, "stage queue capacity must be >= 1");
        cap_ = cap;
    }

    size_t capacity() const { return cap_; }
    bool hasRoom() const { return q_.size() < cap_; }
    bool empty() const { return q_.empty(); }
    size_t size() const { return q_.size(); }

    void
    push(T value, double nowMs)
    {
        q_.push_back(Slot{std::move(value), nowMs});
        board_->enqueued(stage_, 1);
    }

    /** Pops the oldest entry; `*readyMs` gets its push timestamp. */
    T
    pop(double* readyMs)
    {
        HEAP_ASSERT(!q_.empty(), "pop on an empty stage queue");
        Slot s = std::move(q_.front());
        q_.pop_front();
        board_->dequeued(stage_, 1);
        *readyMs = s.readyMs;
        return std::move(s.value);
    }

  private:
    struct Slot {
        T value;
        double readyMs;
    };

    std::deque<Slot> q_;
    Stage stage_;
    PipelineBoard* board_;
    size_t cap_ = std::numeric_limits<size_t>::max();
};

} // namespace heap::serve

#endif // HEAP_SERVE_PIPELINE_H
