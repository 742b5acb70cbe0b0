/**
 * @file
 * Load generation. All load comes from the calling thread: it submits,
 * and the cluster's completion hooks (SubmitOptions::onDone) stamp the
 * finish time. Every request is kept, with three times on the nowMs()
 * clock:
 *
 *   due    - when the request was meant to be sent: its scheduled
 *            arrival (open loop), or the completion that freed its
 *            slot (closed loop);
 *   submit - when the generator actually sent it;
 *   done   - when the completion hook ran.
 *
 * Latency is done - due, so a generator that falls behind is charged
 * to the system, and submit - due is the generator's own lag.
 */

#ifndef HEAPBENCH_LOAD_H
#define HEAPBENCH_LOAD_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "boot/scheme_switch.h"
#include "serve/cluster.h"

namespace heapbench {

enum class RequestClass { Boot, Pir };

/** What to send: the class, the tenant and the pool entry. */
struct Arrival {
    RequestClass cls = RequestClass::Boot;
    uint64_t tenant = 0;
    size_t pool = 0;
    double offsetMs = 0; ///< open loop: due time after the start
};

/** One request and everything measured about it. */
struct Request {
    uint64_t id = 0; ///< 1-based, in send order
    Arrival what;
    double dueMs = 0;
    double submitMs = 0;
    double doneMs = -1;
    bool rejected = false; ///< refused at admission
    bool ok = false;       ///< settled successfully
    bool correct = false;  ///< settled and passed the output checks
    double podQueueMs = 0; ///< RequestReport::queueMs
    double podTotalMs = 0; ///< RequestReport::totalMs
    std::shared_ptr<heap::serve::BootstrapTicket> boot;
    std::shared_ptr<heap::serve::PirTicket> pir;
    /** Output of a direct (unserved) bootstrap call. */
    std::optional<heap::ckks::Ciphertext> direct;

    double latencyMs() const { return doneMs - dueMs; }
};

/** Requests of one run plus its measured window. */
struct LoadRun {
    std::deque<Request> requests;
    double windowStartMs = 0;
    double windowEndMs = 0;
    double windowCpuMs = 0; ///< process CPU time inside the window

    bool
    inWindow(const Request& r) const
    {
        return r.dueMs >= windowStartMs && r.dueMs < windowEndMs;
    }
    double windowSeconds() const
    {
        return (windowEndMs - windowStartMs) / 1e3;
    }
};

/**
 * Closed loop with one caller: back-to-back bootstrap() calls on the
 * pool inputs, round robin, for warmupMs then windowMs.
 */
LoadRun runSequential(const heap::boot::SchemeSwitchBootstrapper& boot,
                      const std::vector<heap::ckks::Ciphertext>& inputs,
                      double warmupMs, double windowMs);

/** Drives a ServiceCluster from the calling thread. */
class ClusterLoad {
  public:
    ClusterLoad(heap::serve::ServiceCluster& cluster,
                const std::vector<heap::ckks::Ciphertext>& bootInputs,
                const std::vector<std::shared_ptr<const heap::pir::PirQuery>>&
                    queries);

    /**
     * Keeps `outstanding` requests in flight; `next(k)` names the k-th
     * request. Stops sending at the end of the window, then waits for
     * every request in flight.
     */
    LoadRun closedLoop(size_t outstanding,
                       const std::function<Arrival(size_t)>& next,
                       double warmupMs, double windowMs);

    /** Sends each arrival at its offset, then waits for all of them.
     *  `schedule` is sorted by offset and spans warmup plus window. */
    LoadRun openLoop(const std::vector<Arrival>& schedule,
                     double warmupMs, double windowMs);

  private:
    /** Sends `r`; a refusal marks it rejected. */
    void send(Request& r);
    /** Blocks until every sent, unrefused request has settled. */
    void drain(const LoadRun& run);

    heap::serve::ServiceCluster& cluster_;
    const std::vector<heap::ckks::Ciphertext>& bootInputs_;
    const std::vector<std::shared_ptr<const heap::pir::PirQuery>>&
        queries_;

    std::mutex m_;
    std::condition_variable cv_;
    std::vector<Request*> settled_; ///< since the generator last looked
    size_t settledTotal_ = 0;
};

} // namespace heapbench

#endif // HEAPBENCH_LOAD_H
