#include "serve/pir_service.h"

#include <limits>

#include "common/check.h"

namespace heap::serve {

namespace {

/** One lookup: the shared query, then its dimension-0 results. */
struct PirRequest : TicketedRequest<rlwe::Ciphertext> {
    std::shared_ptr<const pir::PirQuery> query;
    std::vector<rlwe::Ciphertext> firstPass; ///< one per group
};

PirRequest&
lookup(PodRequest& r)
{
    return static_cast<PirRequest&>(r);
}

/** The lookup pod derives its stage bounds from the worker count. */
const ServiceConfig&
checkedPirConfig(const ServiceConfig& cfg)
{
    HEAP_CHECK(cfg.rotateQueueRequests == 0 && cfg.finishQueueRequests == 0,
               "PirService derives its stage bounds from workers; "
               "leave rotateQueueRequests and finishQueueRequests at 0");
    return cfg;
}

} // namespace

PirService::PirService(const pir::PirServer& server, ServiceConfig cfg)
    : Pod("pir", checkedPirConfig(cfg), cfg.workers,
          cfg.maxBatchItems == 0 ? std::numeric_limits<size_t>::max()
                                 : cfg.maxBatchItems),
      server_(&server)
{
    start();
}

PirService::~PirService()
{
    shutdown();
}

std::unique_ptr<PodRequest>
PirService::request(std::shared_ptr<const pir::PirQuery> query,
                    std::shared_ptr<PirTicket> ticket)
{
    auto r = std::make_unique<PirRequest>();
    r->ticket = std::move(ticket);
    r->query = std::move(query);
    return r;
}

std::shared_ptr<PirTicket>
PirService::submit(std::shared_ptr<const pir::PirQuery> query,
                   SubmitOptions opts, std::shared_ptr<PirTicket> ticket)
{
    if (ticket == nullptr) {
        ticket = std::make_shared<PirTicket>();
    }
    auto r = request(std::move(query), ticket);
    r->opts = std::move(opts);
    submitRequest(std::move(r));
    return ticket;
}

void
PirService::admit(const PodRequest& req) const
{
    const auto& query = static_cast<const PirRequest&>(req).query;
    HEAP_CHECK(query != nullptr, "null PIR query");
    server_->validateQuery(*query);
}

size_t
PirService::front(PodRequest& req)
{
    const size_t groups = server_->firstDimGroups();
    lookup(req).firstPass.resize(groups);
    return groups;
}

BatchTraffic
PirService::runBatch(size_t, const std::vector<ItemRef>& items)
{
    // Group folds: pure const arithmetic on the shared server.
    for (const ItemRef& r : items) {
        PirRequest& p = lookup(*r.req);
        p.firstPass[r.index] = server_->foldFirstGroup(*p.query, r.index);
    }
    return {};
}

void
PirService::finish(PodRequest& req)
{
    // Remaining-dimension fold over the group results, in group order:
    // the exact tail answer() runs, so the result does not depend on
    // batch shape or worker count.
    PirRequest& p = lookup(req);
    p.result = server_->finishFold(*p.query, std::move(p.firstPass));
    p.budgetBits = server_->answerBudgetBits();
    p.guardTripped = p.budgetBits <= 0;
}

} // namespace heap::serve
