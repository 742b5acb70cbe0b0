/**
 * @file
 * Encrypted-lookup serving tests: PirService answers are
 * byte-identical to the direct PirServer::answer() fold for worker
 * counts {1, 2, 8} and seeds {7, 21, 42}; the pod-level fault
 * alphabet (inject / crash / recover / pause) behaves like the
 * bootstrap pod's; a mixed bootstrap+PIR cluster serves both tenant
 * classes through shared routing/breakers/key caches with exact
 * admission conservation and weight-proportional served items within
 * each class; a lookup tenant without a declared key footprint is
 * charged its query's RGSW bytes in the key cache; every answer
 * reports the server's analytic noise budget; PIR flights fail over
 * byte-identically under a chaos crash; and the failover thread's
 * per-pod sweep batching re-dispatches an accumulated retry backlog
 * in one batch.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "math/primes.h"
#include "serve/cluster.h"

namespace heap::serve {
namespace {

pir::PirParams
pirParams(std::vector<size_t> dims, size_t entries)
{
    const size_t n = 64;
    pir::PirParams p;
    p.basis = std::make_shared<math::RnsBasis>(
        n, math::generateNttPrimes(30, n, 2));
    p.limbs = 2;
    p.dims = std::move(dims);
    p.entries = entries;
    p.payloadCoeffs = 8;
    p.scaleBits = 35;
    p.payloadBits = 16;
    p.gadget = rlwe::GadgetParams{.baseBits = 5, .digitsPerLimb = 6};
    return p;
}

std::vector<uint8_t>
answerBytes(const rlwe::Ciphertext& ct)
{
    ByteWriter w;
    ckks::saveRlwe(ct, w);
    return w.bytes();
}

/** One client-side PIR world: params, key, database, queries. */
struct PirWorld {
    pir::PirParams params;
    std::shared_ptr<rlwe::SecretKey> sk;
    std::vector<std::vector<int64_t>> db;
    std::unique_ptr<pir::PirServer> server;
    std::unique_ptr<pir::PirClient> client;
};

PirWorld
makePirWorld(uint64_t seed)
{
    PirWorld w;
    w.params = pirParams({8, 8}, 64);
    Rng rng(seed);
    w.sk = std::make_shared<rlwe::SecretKey>(
        rlwe::SecretKey::sampleTernary(w.params.basis, rng));
    w.db = pir::randomDatabase(w.params, seed);
    w.server = std::make_unique<pir::PirServer>(w.params, w.db);
    w.client = std::make_unique<pir::PirClient>(w.params, *w.sk);
    return w;
}

std::vector<std::shared_ptr<const pir::PirQuery>>
makeQueries(const PirWorld& w, uint64_t seed,
            const std::vector<size_t>& indices)
{
    Rng rng(seed ^ 0x5151u);
    std::vector<std::shared_ptr<const pir::PirQuery>> out;
    for (const size_t idx : indices) {
        out.push_back(std::make_shared<const pir::PirQuery>(
            w.client->makeQuery(idx, rng)));
    }
    return out;
}

// ---- bootstrap-pod fixture, identical to cluster_test.cc ----------

ckks::CkksParams
serveParams()
{
    ckks::CkksParams p;
    p.n = 64;
    p.limbBits = 30;
    p.levels = 2;
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    p.secretHamming = 16;
    return p;
}

constexpr auto kBrGadget =
    rlwe::GadgetParams{.baseBits = 6, .digitsPerLimb = 6};

struct PodSet {
    std::unique_ptr<ckks::Context> ctx;
    std::unique_ptr<ckks::Evaluator> ev;
    std::vector<std::unique_ptr<boot::DistributedBootstrapper>> dists;
};

PodSet
makePods(uint64_t seed, size_t count, size_t secondaries)
{
    PodSet s;
    s.ctx = std::make_unique<ckks::Context>(serveParams(), seed);
    s.ev = std::make_unique<ckks::Evaluator>(*s.ctx);
    s.dists.push_back(std::make_unique<boot::DistributedBootstrapper>(
        *s.ctx, secondaries, kBrGadget));
    for (size_t i = 1; i < count; ++i) {
        s.dists.push_back(
            std::make_unique<boot::DistributedBootstrapper>(
                *s.dists[0], secondaries));
    }
    return s;
}

std::vector<boot::DistributedBootstrapper*>
distPtrs(PodSet& pods)
{
    std::vector<boot::DistributedBootstrapper*> out;
    for (auto& d : pods.dists) {
        out.push_back(d.get());
    }
    return out;
}

std::vector<ckks::Ciphertext>
makeInputs(const ckks::Context& ctx, ckks::Evaluator& ev, size_t count)
{
    std::vector<ckks::Ciphertext> inputs;
    for (size_t r = 0; r < count; ++r) {
        std::vector<ckks::Complex> z;
        for (size_t i = 0; i < 16; ++i) {
            const double t = static_cast<double>(i);
            const double s = static_cast<double>(r);
            z.emplace_back(0.7 * std::cos(0.2 * t + 0.3 * s),
                           0.4 * std::sin(0.5 * t - 0.1 * s));
        }
        auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
        ev.dropToLevel(ct, 1);
        inputs.push_back(std::move(ct));
    }
    return inputs;
}

/** A tenant id whose consistent-hash preferred pod equals `want`. */
uint64_t
tenantPreferring(const ServiceCluster& cluster, size_t want,
                 uint64_t startId)
{
    for (uint64_t id = startId; id < startId + 1024; ++id) {
        if (cluster.preferredPod(id) == want) {
            return id;
        }
    }
    ADD_FAILURE() << "no tenant id preferring pod " << want;
    return startId;
}

// -------------------------------------------------------------------

TEST(PirService, ByteIdenticalAcrossWorkerCounts)
{
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        const PirWorld w = makePirWorld(seed);
        const std::vector<size_t> indices = {0,  1,  7,  8,
                                             31, 42, 55, 63};
        const auto queries = makeQueries(w, seed, indices);
        // Reference: the monolithic fold, one per query.
        std::vector<std::vector<uint8_t>> ref;
        for (const auto& q : queries) {
            ref.push_back(answerBytes(w.server->answer(*q)));
        }
        for (const size_t workers : {1u, 2u, 8u}) {
            PirService svc(*w.server,
                           ServiceConfig{.workers = workers});
            std::vector<std::shared_ptr<PirTicket>> tickets;
            for (const auto& q : queries) {
                tickets.push_back(svc.submit(q));
            }
            for (size_t i = 0; i < tickets.size(); ++i) {
                const rlwe::Ciphertext ans = tickets[i]->wait();
                EXPECT_EQ(answerBytes(ans), ref[i])
                    << "seed " << seed << " workers " << workers
                    << " query " << i;
                EXPECT_EQ(w.client->decode(ans), w.db[indices[i]]);
                // Every answer reports the server's analytic budget.
                EXPECT_EQ(tickets[i]->report().budgetBits,
                          w.server->answerBudgetBits());
            }
            const ServiceMetrics m = svc.metrics();
            EXPECT_EQ(m.submitted, queries.size());
            EXPECT_EQ(m.completed, queries.size());
            EXPECT_EQ(m.failed, 0u);
            EXPECT_GT(m.batches, 0u);
            EXPECT_GT(m.minReturnedBudgetBits, 0.0);
            EXPECT_EQ(m.guardTrips, 0u);
        }
    }
}

TEST(PirService, RejectsMalformedQueriesAndBackpressure)
{
    const PirWorld w = makePirWorld(7);
    PirService svc(*w.server, ServiceConfig{.workers = 1});
    // Wrong dimension count.
    auto bad = std::make_shared<pir::PirQuery>();
    bad->dimBits.resize(1);
    EXPECT_THROW(svc.submit(bad), UserError);
    // Admission cap.
    PirService tiny(*w.server, ServiceConfig{
                                   .workers = 1,
                                   .maxQueuedRequests = 1,
                               });
    tiny.pause();
    const auto queries = makeQueries(w, 7, {3, 4});
    auto t0 = tiny.submit(queries[0]);
    EXPECT_THROW(tiny.submit(queries[1]), UserError);
    EXPECT_EQ(tiny.metrics().rejected, 1u);
    tiny.resume();
    EXPECT_EQ(w.client->decode(t0->wait()), w.db[3]);
    // The stage bounds are derived from workers, never set.
    EXPECT_THROW(PirService(*w.server,
                            ServiceConfig{.rotateQueueRequests = 4}),
                 UserError);
    EXPECT_THROW(PirService(*w.server,
                            ServiceConfig{.finishQueueRequests = 2}),
                 UserError);
}

TEST(PirService, MalformedQueryNeverFailsItsBatchmates)
{
    const PirWorld w = makePirWorld(42);
    const auto queries = makeQueries(w, 42, {6, 33});
    // A query whose first RGSW bit carries only one limb's gadget
    // rows: shaped right by dimension and bit counts, but it would
    // fail the external product of any batch it rode in.
    pir::PirQuery cut = *queries[0];
    const rlwe::GadgetCiphertext& half = cut.dimBits[0][0].forB;
    const size_t d = static_cast<size_t>(half.params().digitsPerLimb);
    std::vector<rlwe::Ciphertext> rows;
    for (size_t j = 0; j < d; ++j) {
        rows.push_back(half.row(0, j));
    }
    cut.dimBits[0][0].forB =
        rlwe::GadgetCiphertext(std::move(rows), half.params());

    PirService svc(*w.server, ServiceConfig{.workers = 1});
    svc.pause(); // one batch would carry all three
    auto t0 = svc.submit(queries[0]);
    EXPECT_THROW(svc.submit(std::make_shared<const pir::PirQuery>(cut)),
                 UserError);
    auto t1 = svc.submit(queries[1]);
    svc.resume();
    EXPECT_EQ(w.client->decode(t0->wait()), w.db[6]);
    EXPECT_EQ(w.client->decode(t1->wait()), w.db[33]);
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.submitted, 2u);
}

TEST(PirService, FaultAlphabetMatchesBootstrapSemantics)
{
    const PirWorld w = makePirWorld(21);
    const auto queries = makeQueries(w, 21, {5, 9, 17});
    PirService svc(*w.server, ServiceConfig{.workers = 2});

    // Injected fault: exactly the next request fails, retryably.
    svc.injectFailures(1);
    auto t0 = svc.submit(queries[0]);
    EXPECT_THROW(t0->wait(), PodError);

    // Crash with queued work: accepted requests fail with PodError,
    // intake rejects, recover() restores service.
    svc.pause();
    auto t1 = svc.submit(queries[1]);
    svc.crash();
    EXPECT_THROW(t1->wait(), PodError);
    EXPECT_TRUE(svc.crashed());
    EXPECT_THROW(svc.submit(queries[2]), UserError);
    svc.recover();
    svc.resume();
    auto t2 = svc.submit(queries[2]);
    EXPECT_EQ(w.client->decode(t2->wait()), w.db[17]);

    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.injectedFailures, 1u);
    EXPECT_EQ(m.crashes, 1u);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.failed, 2u);
}

TEST(PirCluster, MixedTenantClassesShareTheCluster)
{
    const uint64_t seed = 7;
    auto pods = makePods(seed, 2, 1);
    const PirWorld w = makePirWorld(seed);
    TenantRegistry reg;
    reg.registerTenant(TenantSpec{
        .id = 11, .name = "boots", .weight = 2.0,
        .keyBytes = size_t{1} << 20});
    reg.registerTenant(TenantSpec{
        .id = 12, .name = "lookup", .weight = 1.0,
        .keyBytes = size_t{64} << 10});

    ClusterConfig cfg;
    cfg.pod.workers = 2;
    cfg.pirServer = w.server.get();
    cfg.pirPod.workers = 2;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);

    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 4);
    const std::vector<size_t> indices = {2, 13, 40, 63};
    const auto queries = makeQueries(w, seed, indices);

    // Interleave the two classes.
    std::vector<std::shared_ptr<BootstrapTicket>> boots;
    std::vector<std::shared_ptr<PirTicket>> lookups;
    for (size_t i = 0; i < 4; ++i) {
        boots.push_back(cluster.submit(11, inputs[i]));
        lookups.push_back(cluster.submitPir(12, queries[i]));
    }
    for (auto& t : boots) {
        EXPECT_NO_THROW(t->wait());
    }
    for (size_t i = 0; i < lookups.size(); ++i) {
        const rlwe::Ciphertext ans = lookups[i]->wait();
        EXPECT_EQ(answerBytes(ans),
                  answerBytes(w.server->answer(*queries[i])))
            << "lookup " << i;
        EXPECT_EQ(w.client->decode(ans), w.db[indices[i]]);
        // The cluster relays the serving pod's budget report.
        EXPECT_EQ(lookups[i]->report().budgetBits,
                  w.server->answerBudgetBits());
    }
    EXPECT_GT(w.server->answerBudgetBits(), 0.0);
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.submitted, 8u);
    EXPECT_EQ(m.pirSubmitted, 4u);
    EXPECT_EQ(m.pirCompleted, 4u);
    EXPECT_EQ(m.pirFailed, 0u);
    EXPECT_EQ(m.requestsCompleted, 8u);
    EXPECT_EQ(m.liveFlights, 0u);
    ASSERT_EQ(m.pirPods.size(), 2u);

    // Both classes hit the same per-pod key caches: the lookup
    // tenant's query-key footprint is resident where it was served.
    uint64_t pirPodCompleted = 0;
    for (const ServiceMetrics& pm : m.pirPods) {
        pirPodCompleted += pm.completed;
    }
    EXPECT_EQ(pirPodCompleted, 4u);
    size_t cachedTenants = 0;
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cachedTenants += cluster.keyCache(i).stats().residentTenants;
    }
    EXPECT_GE(cachedTenants, 2u);

    // Exact admission conservation per tenant.
    for (const TenantStats& t : m.tenants) {
        EXPECT_EQ(t.inFlight, 0u) << t.name;
        EXPECT_EQ(t.submitted, t.completed + t.failed) << t.name;
    }
}

TEST(PirCluster, LookupTenantsAreChargedTheirQueryBytes)
{
    // Lookup tenants that declare no key footprint are charged the
    // keys a lookup reads, its query's RGSW bits, not the pods'
    // bootstrapping keys. One request at a time, so nothing spills:
    // each tenant misses once, on its preferred pod, and hits after.
    const uint64_t seed = 42;
    auto pods = makePods(seed, 2, 1);
    const PirWorld w = makePirWorld(seed);
    TenantRegistry reg;
    const std::vector<uint64_t> ids{31, 32, 33};
    for (const uint64_t id : ids) {
        reg.registerTenant(TenantSpec{.id = id});
    }
    ClusterConfig cfg;
    cfg.pirServer = w.server.get();
    ServiceCluster cluster(distPtrs(pods), reg, cfg);

    // 6 bits x 2 halves x (2 limbs x 6 digits) rows x 2 polys x
    // 2 limbs x 64 words.
    const size_t queryBytes = size_t{6} * 2 * 12 * 2 * 2 * 64 * 8;
    ASSERT_EQ(w.params.queryBytes(), queryBytes);
    ASSERT_LT(queryBytes, pods.dists[0]->keys().bytes());

    const auto queries = makeQueries(w, seed, {5, 17, 33, 48, 60, 9});
    for (size_t i = 0; i < queries.size(); ++i) {
        const rlwe::Ciphertext ans =
            cluster.submitPir(ids[i % ids.size()], queries[i])->wait();
        EXPECT_EQ(answerBytes(ans),
                  answerBytes(w.server->answer(*queries[i])))
            << "lookup " << i;
    }
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.pirCompleted, queries.size());
    EXPECT_EQ(m.spilled, 0u);
    EXPECT_EQ(m.keyCacheTotal.misses, ids.size());
    EXPECT_EQ(m.keyCacheTotal.hits, queries.size() - ids.size());
    EXPECT_EQ(m.keyCacheTotal.bytesLoaded, ids.size() * queryBytes);
}

/** Within-class weighted fairness: max over min of served items per
 *  weight across `ids`; NaN when a tenant was never served. */
double
classFairness(const TenantRegistry& reg, const std::vector<uint64_t>& ids)
{
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0;
    for (const uint64_t id : ids) {
        const TenantStats st = reg.stats(id);
        const double share = static_cast<double>(st.servedItems) / st.weight;
        lo = std::min(lo, share);
        hi = std::max(hi, share);
    }
    return lo > 0 ? hi / lo : std::numeric_limits<double>::quiet_NaN();
}

TEST(PirCluster, ServiceIsWeightProportionalWithinEachClass)
{
    // Two tenants per class with weights 1:2, each served in weight
    // proportion: the per-class served-items-per-weight shares must
    // come out exactly equal, although the classes count items in
    // different units (ring slots vs first-dimension groups).
    const uint64_t seed = 21;
    auto pods = makePods(seed, 2, 1);
    const PirWorld w = makePirWorld(seed);
    TenantRegistry reg;
    const std::vector<uint64_t> bootIds{11, 12};
    const std::vector<uint64_t> pirIds{21, 22};
    for (size_t i = 0; i < 2; ++i) {
        const double weight = static_cast<double>(i + 1);
        reg.registerTenant(TenantSpec{.id = bootIds[i], .weight = weight});
        reg.registerTenant(TenantSpec{.id = pirIds[i], .weight = weight});
    }
    ClusterConfig cfg;
    cfg.pod.workers = 2;
    cfg.pirServer = w.server.get();
    cfg.pirPod.workers = 2;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);

    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 3);
    const auto queries = makeQueries(w, seed, {4, 19, 26, 38, 51, 60});
    std::vector<std::shared_ptr<BootstrapTicket>> boots;
    std::vector<std::shared_ptr<PirTicket>> lookups;
    // One bootstrap for weight 1, two for weight 2; lookups 2 and 4.
    boots.push_back(cluster.submit(bootIds[0], inputs[0]));
    for (size_t i = 1; i < 3; ++i) {
        boots.push_back(cluster.submit(bootIds[1], inputs[i]));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
        lookups.push_back(
            cluster.submitPir(pirIds[i < 2 ? 0 : 1], queries[i]));
    }
    for (auto& t : boots) {
        EXPECT_NO_THROW(t->wait());
    }
    for (auto& t : lookups) {
        EXPECT_NO_THROW(t->wait());
    }
    cluster.drain();

    EXPECT_EQ(reg.stats(bootIds[0]).servedItems,
              cluster.itemsPerRequest());
    EXPECT_EQ(reg.stats(pirIds[0]).servedItems,
              2 * w.params.firstDimGroups());
    EXPECT_DOUBLE_EQ(classFairness(reg, bootIds), 1.0);
    EXPECT_DOUBLE_EQ(classFairness(reg, pirIds), 1.0);
    // Across classes the units differ, so the cluster-wide ratio is
    // only bounded: a real ratio, never a bogus value below one.
    const double global = cluster.metrics().fairnessRatio;
    EXPECT_TRUE(std::isnan(global) || global >= 1.0) << global;
}

TEST(PirCluster, ChaosCrashFailsOverByteIdentically)
{
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        auto pods = makePods(seed, 2, 1);
        const PirWorld w = makePirWorld(seed);
        TenantRegistry reg;
        reg.registerTenant(TenantSpec{.id = 5, .name = "lookup"});

        const size_t kQueries = 12;
        ClusterConfig cfg;
        cfg.pod.workers = 1;
        cfg.pirServer = w.server.get();
        cfg.pirPod.workers = 2;
        cfg.failover.maxAttempts = 4;
        // Crash one pod mid-run, recover it later; both tenant
        // classes of the pod go down together.
        ChaosSpec chaos;
        const size_t victim = 0;
        chaos.events.push_back(
            {ChaosEvent::Kind::Crash, victim, kQueries / 3, 0});
        chaos.events.push_back(
            {ChaosEvent::Kind::Recover, victim, kQueries - 2, 0});
        cfg.chaos = chaos;
        ServiceCluster cluster(distPtrs(pods), reg, cfg);

        std::vector<size_t> indices;
        for (size_t i = 0; i < kQueries; ++i) {
            indices.push_back((i * 11) % w.params.entries);
        }
        const auto queries = makeQueries(w, seed, indices);
        std::vector<std::shared_ptr<PirTicket>> tickets;
        for (const auto& q : queries) {
            tickets.push_back(cluster.submitPir(5, q));
        }
        for (size_t i = 0; i < tickets.size(); ++i) {
            // Failover budget covers the single crash: every flight
            // completes, and the answer is byte-identical wherever
            // it was recomputed.
            const rlwe::Ciphertext ans = tickets[i]->wait();
            EXPECT_EQ(answerBytes(ans),
                      answerBytes(w.server->answer(*queries[i])))
                << "seed " << seed << " query " << i;
            EXPECT_EQ(w.client->decode(ans), w.db[indices[i]]);
        }
        cluster.drain();

        const ClusterMetrics m = cluster.metrics();
        EXPECT_EQ(m.requestsCompleted, kQueries);
        EXPECT_EQ(m.pirCompleted, kQueries);
        EXPECT_EQ(m.liveFlights, 0u);
        EXPECT_EQ(m.chaos.crashes, 1u);
        EXPECT_EQ(m.chaos.recoveries, 1u);
        for (const TenantStats& t : m.tenants) {
            EXPECT_EQ(t.inFlight, 0u);
            EXPECT_EQ(t.submitted, t.completed + t.failed);
        }
    }
}

TEST(PirCluster, FailoverSweepBatchesAccumulatedRetries)
{
    const uint64_t seed = 42;
    auto pods = makePods(seed, 2, 1);
    const PirWorld w = makePirWorld(seed);
    TenantRegistry reg;

    ClusterConfig cfg;
    cfg.pod.workers = 1;
    cfg.pirServer = w.server.get();
    cfg.pirPod.workers = 2;
    cfg.failover.maxAttempts = 3;
    // The backoff gate makes the crashed pod's whole backlog DUE at
    // the same sweep: the failover thread must re-dispatch it as one
    // per-pod batch, not one retry per wakeup.
    cfg.failover.backoffMs = 40.0;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    const uint64_t tenant = tenantPreferring(cluster, 0, 100);
    reg.registerTenant(TenantSpec{.id = tenant, .name = "lookup"});

    const std::vector<size_t> indices = {1, 9, 27, 50};
    const auto queries = makeQueries(w, seed, indices);

    // Wedge pod 0's PIR service so the submissions queue there, then
    // crash it: the crash flush fails all four at once and their
    // retries land in the queue together, gated by the backoff.
    cluster.pirPod(0).pause();
    std::vector<std::shared_ptr<PirTicket>> tickets;
    for (const auto& q : queries) {
        tickets.push_back(cluster.submitPir(tenant, q));
    }
    cluster.pirPod(0).crash();

    for (size_t i = 0; i < tickets.size(); ++i) {
        const rlwe::Ciphertext ans = tickets[i]->wait();
        EXPECT_EQ(answerBytes(ans),
                  answerBytes(w.server->answer(*queries[i])))
            << "query " << i;
        EXPECT_EQ(w.client->decode(ans), w.db[indices[i]]);
    }
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.pirCompleted, queries.size());
    EXPECT_EQ(m.failovers, queries.size());
    EXPECT_GE(m.failoverSweeps, 1u);
    // The whole backlog re-dispatched in one sweep.
    EXPECT_EQ(m.maxRetryBatch, queries.size());
    EXPECT_EQ(m.failoverSucceeded, queries.size());
    // Every completion landed on the surviving pod.
    ASSERT_EQ(m.pirPods.size(), 2u);
    EXPECT_EQ(m.pirPods[1].completed, queries.size());
}

} // namespace
} // namespace heap::serve
