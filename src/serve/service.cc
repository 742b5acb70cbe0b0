#include "serve/service.h"

#include "common/check.h"

namespace heap::serve {

namespace {

/** One bootstrap: the input, then its front-phase state. */
struct BootRequest : TicketedRequest<ckks::Ciphertext> {
    ckks::Ciphertext input;
    boot::FrontPhase fp;
    std::vector<rlwe::Ciphertext> rotated;
};

BootRequest&
boot(PodRequest& r)
{
    return static_cast<BootRequest&>(r);
}

size_t
batchCap(const boot::DistributedBootstrapper& dist,
         const ServiceConfig& cfg)
{
    const size_t n = dist.context().basis()->n();
    HEAP_CHECK(cfg.maxBatchItems <= n,
               "batch cap " << cfg.maxBatchItems
                            << " exceeds the ring dimension " << n);
    return cfg.maxBatchItems == 0 ? n : cfg.maxBatchItems;
}

} // namespace

BootstrapService::BootstrapService(boot::DistributedBootstrapper& dist,
                                   ServiceConfig cfg)
    : Pod("bootstrap", cfg, dist.secondaryCount() + 1,
          batchCap(dist, cfg)),
      dist_(&dist)
{
    // The service owns the link protocol from here on: start from a
    // clean run (empty links, reseeded fault streams).
    dist.resetProtocolRun();
    start();
}

BootstrapService::~BootstrapService()
{
    shutdown();
}

std::unique_ptr<PodRequest>
BootstrapService::request(const ckks::Ciphertext& in,
                          std::shared_ptr<BootstrapTicket> ticket)
{
    auto r = std::make_unique<BootRequest>();
    r->ticket = std::move(ticket);
    r->input = in;
    return r;
}

std::shared_ptr<BootstrapTicket>
BootstrapService::submit(const ckks::Ciphertext& in, SubmitOptions opts,
                         std::shared_ptr<BootstrapTicket> ticket)
{
    if (ticket == nullptr) {
        ticket = std::make_shared<BootstrapTicket>();
    }
    auto r = request(in, ticket);
    r->opts = std::move(opts);
    submitRequest(std::move(r));
    return ticket;
}

void
BootstrapService::validate(const ckks::Ciphertext& in) const
{
    HEAP_CHECK(in.level() == 1,
               "bootstrap expects a level-1 (single limb) ciphertext");
    // A ciphertext of another context fails only deep in the front
    // phase ("basis mismatch"); catch it here, as a user error.
    const math::RnsBasis* basis = dist_->context().basis().get();
    HEAP_CHECK(&in.ct.a.basis() == basis && &in.ct.b.basis() == basis,
               "bootstrap input belongs to another context "
               "(RNS basis mismatch)");
}

void
BootstrapService::admit(const PodRequest& req) const
{
    validate(static_cast<const BootRequest&>(req).input);
}

size_t
BootstrapService::front(PodRequest& req)
{
    // Steps 1-2 + extraction, the exact front phase the sequential
    // bootstrap() runs on the primary (boot layer owns the single
    // implementation — byte-identity by construction).
    BootRequest& p = boot(req);
    p.fp = boot::runFrontPhase(dist_->context(), p.input, 1.0,
                               "serve bootstrap");
    p.rotated.resize(p.fp.items.size());
    return p.rotated.size();
}

BatchTraffic
BootstrapService::runBatch(size_t lane, const std::vector<ItemRef>& items)
{
    std::vector<lwe::LweCiphertext> lwes;
    lwes.reserve(items.size());
    for (const ItemRef& r : items) {
        lwes.push_back(std::move(boot(*r.req).fp.items[r.index]));
    }
    boot::ExchangeStats st{};
    std::vector<rlwe::Ciphertext> accs = dist_->rotateLane(
        lane, seq_.fetch_add(1, std::memory_order_relaxed), lwes, st);
    for (size_t i = 0; i < items.size(); ++i) {
        boot(*items[i].req).rotated[items[i].index] = std::move(accs[i]);
    }
    return BatchTraffic{st.wireOut, st.wireIn, st.retransmits, st.dead};
}

void
BootstrapService::finish(PodRequest& req)
{
    // The sequential path's repack and finish phase: the repack
    // consumes the accumulators in extraction order and the output
    // budget is analytic, so the result does not depend on batch
    // shape, lane, worker count, or link faults.
    BootRequest& p = boot(req);
    const ckks::Context& ctx = dist_->context();
    rlwe::Ciphertext ctKq = tfhe::packRlwes(p.rotated, dist_->packingKeys());
    ckks::Ciphertext out = boot::runFinishPhase(
        ctx, dist_->keys(), p.input, std::move(ctKq), p.fp.ms);
    p.budgetBits = ctx.noiseBudgetBits(out);
    p.precisionBits = ctx.noisePrecisionBits(out);
    p.guardTripped = p.budgetBits <= 0
                     || p.precisionBits <= ctx.noiseGuard().minPrecisionBits;
    p.result = std::move(out);
}

} // namespace heap::serve
