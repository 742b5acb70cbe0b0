/**
 * @file
 * PirService — the encrypted-lookup serving pod: the second tenant
 * class next to BootstrapService, and the second workload on the
 * shared pod skeleton (serve/pod.h).
 *
 * Many client threads submit() RGSW-packed queries (pir::PirQuery)
 * against one shared pir::PirServer. The front stage splits a query's
 * dimension-0 fold into its firstDimGroups() independent items, the
 * ItemQueue packs items from *different* queries into batches
 * (priority / EDF / weighted-fair order), each lane (one per worker)
 * folds a batch of groups, and the finish stage folds the remaining
 * dimensions and fulfils the ticket.
 *
 * Guarantees (asserted by tests/pir_serve_test.cc):
 *  - Determinism: each returned answer is byte-identical to
 *    PirServer::answer() of the same query — for every worker count,
 *    batch shape, and fault pattern — because the fold is pure
 *    arithmetic (foldFirstGroup per group, finishFold in group
 *    order; no RNG, no data-dependent scheduling effects).
 *  - Isolation: a malformed query is a UserError at submit(), so it
 *    can never fail the queries it would have shared a batch with.
 *  - Backpressure, the fault alphabet, drain and shutdown: the pod's.
 */

#ifndef HEAP_SERVE_PIR_SERVICE_H
#define HEAP_SERVE_PIR_SERVICE_H

#include <memory>

#include "pir/pir.h"
#include "serve/pod.h"

namespace heap::serve {

/**
 * Asynchronous encrypted-lookup server over one immutable
 * pir::PirServer (shared, thread-safe: answer folds are const).
 */
class PirService : public Pod {
  public:
    /**
     * @param server borrowed; must outlive the service.
     * @param cfg    workers (each also a batch lane), admission cap,
     *               batch cap in first-dimension groups (0 = everything
     *               pending, one batch per dispatch) and starvation
     *               passes. The stage bounds are derived from workers:
     *               a nonzero rotateQueueRequests or
     *               finishQueueRequests is a UserError.
     */
    PirService(const pir::PirServer& server, ServiceConfig cfg = {});

    /** Drains accepted work, then joins the workers (shutdown()). */
    ~PirService() override;

    /**
     * Submits one lookup. Throws UserError immediately when the query
     * does not match the server's parameters (pir::PirServer::
     * validateQuery), when the service is shutting down or crashed,
     * or when admission control is at capacity. The query is shared,
     * not copied: the cluster's failover re-submits the same
     * encrypted query to a replica. `ticket`, when non-null, is
     * fulfilled instead of a fresh one.
     */
    std::shared_ptr<PirTicket>
    submit(std::shared_ptr<const pir::PirQuery> query,
           SubmitOptions opts = {},
           std::shared_ptr<PirTicket> ticket = nullptr);

    /** A request for `query` that settles `ticket`, for
     *  submitRequest() (the cluster's per-attempt path). */
    static std::unique_ptr<PodRequest>
    request(std::shared_ptr<const pir::PirQuery> query,
            std::shared_ptr<PirTicket> ticket);

    const pir::PirServer& server() const { return *server_; }

  protected:
    void admit(const PodRequest& req) const override;
    size_t front(PodRequest& req) override;
    BatchTraffic runBatch(size_t lane,
                          const std::vector<ItemRef>& items) override;
    void finish(PodRequest& req) override;

  private:
    const pir::PirServer* server_;
};

} // namespace heap::serve

#endif // HEAP_SERVE_PIR_SERVICE_H
