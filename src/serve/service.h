/**
 * @file
 * BootstrapService — the bootstrap serving runtime (the software
 * analogue of operating HEAP's 8-FPGA pod as a shared service).
 *
 * Many client threads submit() level-1 CKKS ciphertexts with a
 * priority and an optional deadline; the service decomposes each
 * request into its n independent blind-rotate work items (Algorithm
 * 2's Extract) and a continuous-batching scheduler packs items from
 * *different* requests into fixed-size batches dispatched over the
 * DistributedBootstrapper's link protocol — so a straggler request no
 * longer leaves secondaries idle between per-request bootstraps.
 *
 * It is the bootstrap workload on the shared pod skeleton
 * (serve/pod.h): front = modswitch + extract, rotate = batch dispatch
 * across the primary-local lane and one lane per secondary link,
 * finish = repack + rescale + fulfil. The pod owns admission, the
 * stage queues and backpressure, batching, faults and metrics.
 *
 * Guarantees:
 *  - Determinism: each returned ciphertext is byte-identical to what
 *    a sequential DistributedBootstrapper::bootstrap() of the same
 *    input under the same keys produces, for every worker count,
 *    batch shape, and link-fault pattern (blind rotation is a pure
 *    per-item function; the repack/finish runs per request in index
 *    order; the output budget is computed analytically on the
 *    primary). tests/serve_test.cc asserts this exactly.
 *  - Backpressure: admission control rejects submissions beyond
 *    maxQueuedRequests with a UserError — queueing is bounded, the
 *    service never OOMs under load.
 *  - Liveness: priority scheduling with starvation protection (see
 *    serve/scheduler.h); deadline misses are accounted, never
 *    dropped.
 *  - Clean shutdown: shutdown()/destruction stops intake, finishes
 *    every accepted request, and joins the workers.
 */

#ifndef HEAP_SERVE_SERVICE_H
#define HEAP_SERVE_SERVICE_H

#include <atomic>
#include <memory>

#include "boot/distributed.h"
#include "serve/pod.h"

namespace heap::serve {

/**
 * Asynchronous, continuously-batched bootstrap server on top of a
 * DistributedBootstrapper. The service logically owns the
 * bootstrapper's link protocol while alive: do not call
 * dist.bootstrap() or mutate its faults/retry policy concurrently
 * with a running service. Lifecycle, faults and metrics are the
 * pod's (serve/pod.h).
 */
class BootstrapService : public Pod {
  public:
    BootstrapService(boot::DistributedBootstrapper& dist,
                     ServiceConfig cfg = {});

    /** Drains accepted work, then joins the workers (shutdown()). */
    ~BootstrapService() override;

    /**
     * Submits one bootstrap request. Throws UserError immediately
     * when the input is malformed (validate()), when the service is
     * shutting down or crashed, or when admission control is at
     * capacity (backpressure — the rejection is counted, nothing is
     * queued). Otherwise returns the ticket the caller blocks on for
     * the refreshed ciphertext; `ticket`, when non-null, is fulfilled
     * instead of a fresh one.
     */
    std::shared_ptr<BootstrapTicket>
    submit(const ckks::Ciphertext& in, SubmitOptions opts = {},
           std::shared_ptr<BootstrapTicket> ticket = nullptr);

    /** Throws UserError unless `in` is a level-1 ciphertext of this
     *  pod's context (same RNS basis, both components). */
    void validate(const ckks::Ciphertext& in) const;

    /** A request for `in` that settles `ticket`, for submitRequest()
     *  (the cluster's per-attempt path). */
    static std::unique_ptr<PodRequest>
    request(const ckks::Ciphertext& in,
            std::shared_ptr<BootstrapTicket> ticket);

  protected:
    void admit(const PodRequest& req) const override;
    size_t front(PodRequest& req) override;
    BatchTraffic runBatch(size_t lane,
                          const std::vector<ItemRef>& items) override;
    void finish(PodRequest& req) override;

  private:
    boot::DistributedBootstrapper* dist_;
    std::atomic<uint64_t> seq_{1}; ///< framing sequence numbers
};

} // namespace heap::serve

#endif // HEAP_SERVE_SERVICE_H
