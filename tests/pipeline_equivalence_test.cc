/**
 * @file
 * Staged-pipeline equivalence matrix: the BootstrapService's
 * front/rotate/finish pipeline must return ciphertexts byte-identical
 * to sequential DistributedBootstrapper::bootstrap() across every
 * combination of seed {7, 21, 42} x workers {1, 2, 8} x link
 * condition {fault-free, fault cocktail, dead secondary}, while the
 * per-stage accounting proves the stages genuinely overlapped
 * (summed occupancy > 1 with two or more workers) and stayed
 * strictly sequential with one. Plus the drain/shutdown regressions:
 * requests resident in intermediate stage queues at drain or
 * shutdown time must complete — minimum queue bounds force the
 * backpressure paths and must never deadlock. The drain/shutdown
 * cases also run on a PIR pod: both workloads share one pod skeleton.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "math/primes.h"
#include "serve/pir_service.h"
#include "serve/service.h"

namespace heap::serve {
namespace {

// Same miniature parameter set as serve_test.cc / the fault suite.
ckks::CkksParams
pipelineParams()
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

enum class Link { FaultFree, Cocktail, DeadSecondary };

const char*
linkName(Link l)
{
    switch (l) {
    case Link::FaultFree:
        return "fault-free";
    case Link::Cocktail:
        return "fault-cocktail";
    case Link::DeadSecondary:
        return "dead-secondary";
    }
    return "";
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
            z.emplace_back(0.8 * std::cos(0.4 * t + 0.2 * s),
                           0.3 * std::sin(0.3 * t - 0.2 * s));
        }
        auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
        ev.dropToLevel(ct, 1);
        inputs.push_back(std::move(ct));
    }
    return inputs;
}

void
applyLink(boot::DistributedBootstrapper& dist, Link link, uint64_t seed)
{
    if (link == Link::Cocktail) {
        // PR 3's fault cocktail on every link; the retry protocol
        // runs unchanged inside the rotate stage.
        boot::FaultSpec spec;
        spec.drop = 0.2;
        spec.bitflip = 0.15;
        spec.truncate = 0.1;
        spec.duplicate = 0.15;
        spec.reorder = 0.2;
        spec.delay = 0.25;
        spec.seed = seed;
        dist.setFaults(spec);
    } else if (link == Link::DeadSecondary) {
        boot::FaultSpec dead;
        dead.drop = 1.0;
        dist.setSecondaryFaults(1, dead);
    }
}

std::vector<std::vector<uint8_t>>
sequentialBytes(uint64_t ctxSeed, size_t secondaries, size_t count)
{
    ckks::Context ctx(pipelineParams(), ctxSeed);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, secondaries, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, count);
    std::vector<std::vector<uint8_t>> out;
    for (const auto& in : inputs) {
        out.push_back(ckks::saveCiphertext(dist.bootstrap(in)));
    }
    return out;
}

struct PipelineRun {
    std::vector<std::vector<uint8_t>> bytes;
    ServiceMetrics metrics;
};

/**
 * Runs `count` requests through a pipelined service: submitted from
 * four client threads in a seed-shuffled order while paused (so the
 * batch schedule packs across requests), then resumed and awaited.
 */
PipelineRun
pipelineRun(uint64_t ctxSeed, size_t secondaries, size_t count,
            size_t workers, Link link)
{
    // Identical construction order to sequentialBytes(): same ctx
    // seed and RNG call sequence => same keys and same inputs.
    ckks::Context ctx(pipelineParams(), ctxSeed);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, secondaries, kBrGadget);
    applyLink(dist, link, ctxSeed);
    const auto inputs = makeInputs(ctx, ev, count);

    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.maxQueuedRequests = count;
    cfg.maxBatchItems = 48; // < n = 64: batches straddle requests
    BootstrapService svc(dist, cfg);

    svc.pause();
    std::vector<std::shared_ptr<BootstrapTicket>> tickets(count);
    std::vector<size_t> order(count);
    for (size_t r = 0; r < count; ++r) {
        order[r] = r;
    }
    std::shuffle(order.begin(), order.end(),
                 std::mt19937(static_cast<unsigned>(ctxSeed)));
    constexpr size_t kClients = 4;
    std::vector<std::thread> pool;
    for (size_t c = 0; c < kClients; ++c) {
        pool.emplace_back([&, c] {
            for (size_t k = c; k < count; k += kClients) {
                const size_t r = order[k];
                tickets[r] = svc.submit(inputs[r]);
            }
        });
    }
    for (auto& t : pool) {
        t.join();
    }
    svc.resume();

    PipelineRun run;
    run.bytes.resize(count);
    for (size_t r = 0; r < count; ++r) {
        run.bytes[r] = ckks::saveCiphertext(tickets[r]->wait());
    }
    run.metrics = svc.metrics();
    return run;
}

/** Stage accounting that must hold after every complete run. */
void
checkPipelineAccounting(const PipelineRun& run, size_t count,
                        size_t workers, const char* where)
{
    const PipelineMetrics& pm = run.metrics.pipeline;
    const StageMetrics& front = pm.stage(Stage::Front);
    const StageMetrics& rotate = pm.stage(Stage::Rotate);
    const StageMetrics& finish = pm.stage(Stage::Finish);

    // Conservation: every request passes every stage exactly once,
    // every extracted item passes the rotate queue exactly once, and
    // nothing is left resident in any stage queue.
    EXPECT_EQ(front.entered, count) << where;
    EXPECT_EQ(front.tasks, count) << where;
    EXPECT_EQ(rotate.entered, count * 64) << where;
    EXPECT_EQ(rotate.tasks, run.metrics.batches) << where;
    EXPECT_EQ(finish.entered, count) << where;
    EXPECT_EQ(finish.tasks, count) << where;
    EXPECT_EQ(front.queueDepth, 0u) << where;
    EXPECT_EQ(rotate.queueDepth, 0u) << where;
    EXPECT_EQ(finish.queueDepth, 0u) << where;
    EXPECT_GT(pm.windowMs, 0.0) << where;

    // The tentpole claim: with two or more workers the stage/lane
    // busy intervals genuinely overlap in wall-clock time (summed
    // occupancy above 1), while a single worker is provably
    // sequential (the sum can never exceed its busy fraction).
    if (workers >= 2) {
        EXPECT_GT(pm.overlap, 1.0) << where;
    } else {
        EXPECT_LE(pm.overlap, 1.005) << where;
    }
}

TEST(PipelineEquivalence, MatrixByteIdenticalAcrossSeedsWorkersLinks)
{
    constexpr size_t kSecondaries = 2;
    constexpr size_t kRequests = 4;
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        const auto want =
            sequentialBytes(seed, kSecondaries, kRequests);
        for (const size_t workers : {1ul, 2ul, 8ul}) {
            for (const Link link : {Link::FaultFree, Link::Cocktail,
                                    Link::DeadSecondary}) {
                const auto run = pipelineRun(seed, kSecondaries,
                                             kRequests, workers, link);
                const std::string where =
                    "seed " + std::to_string(seed) + ", "
                    + std::to_string(workers) + " workers, "
                    + linkName(link);
                for (size_t r = 0; r < kRequests; ++r) {
                    EXPECT_TRUE(run.bytes[r] == want[r])
                        << where << ", request " << r;
                }
                EXPECT_EQ(run.metrics.completed, kRequests) << where;
                EXPECT_EQ(run.metrics.failed, 0u) << where;
                checkPipelineAccounting(run, kRequests, workers,
                                        where.c_str());
                if (link == Link::DeadSecondary) {
                    EXPECT_GT(run.metrics.reclaimedBatches, 0u)
                        << where;
                }
            }
        }
    }
}

// A single cheap case for CI smoke runs (ctest -R PipelineSmoke):
// byte-identity plus real stage overlap on two workers.
TEST(PipelineSmoke, ByteIdenticalWithStageOverlap)
{
    constexpr uint64_t kSeed = 7;
    const auto want = sequentialBytes(kSeed, 1, 2);
    const auto run = pipelineRun(kSeed, 1, 2, 2, Link::FaultFree);
    for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_TRUE(run.bytes[r] == want[r]) << "request " << r;
    }
    checkPipelineAccounting(run, 2, 2, "smoke");
}

// ---------------------------------------------------------------- //
// Drain/shutdown with requests resident in stage queues            //
// ---------------------------------------------------------------- //

/** Minimum stage bounds force every backpressure path. */
ServiceConfig
tightConfig(size_t workers, size_t count)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.maxQueuedRequests = count;
    cfg.maxBatchItems = 48;
    cfg.rotateQueueRequests = 1; // one request rotating at a time
    cfg.finishQueueRequests = 1; // one request awaiting repack
    return cfg;
}

/** A PIR pod's world: server, client, and `count` queries. */
struct PirRig {
    pir::PirParams params;
    std::vector<std::vector<int64_t>> db;
    std::unique_ptr<pir::PirServer> server;
    std::unique_ptr<rlwe::SecretKey> sk;
    std::unique_ptr<pir::PirClient> client;
    std::vector<size_t> indices;
    std::vector<std::shared_ptr<const pir::PirQuery>> queries;

    PirRig(uint64_t seed, size_t count)
    {
        const size_t n = 64;
        params.basis = std::make_shared<math::RnsBasis>(
            n, math::generateNttPrimes(30, n, 2));
        params.limbs = 2;
        params.dims = {8, 8};
        params.entries = 64;
        params.gadget =
            rlwe::GadgetParams{.baseBits = 5, .digitsPerLimb = 6};
        Rng rng(seed);
        sk = std::make_unique<rlwe::SecretKey>(
            rlwe::SecretKey::sampleTernary(params.basis, rng));
        db = pir::randomDatabase(params, seed);
        server = std::make_unique<pir::PirServer>(params, db);
        client = std::make_unique<pir::PirClient>(params, *sk);
        for (size_t r = 0; r < count; ++r) {
            indices.push_back((r * 13 + 5) % params.entries);
            queries.push_back(std::make_shared<const pir::PirQuery>(
                client->makeQuery(indices.back(), rng)));
        }
    }

    /** Every ticket settled with the exact entry. */
    void
    expectExact(const std::vector<std::shared_ptr<PirTicket>>& tickets)
        const
    {
        for (size_t r = 0; r < tickets.size(); ++r) {
            ASSERT_TRUE(tickets[r]->ready()) << "lookup " << r;
            EXPECT_EQ(client->decode(tickets[r]->wait()),
                      db[indices[r]])
                << "lookup " << r;
        }
    }
};

/** Stage conservation of a drained PIR pod. */
void
checkPirStages(const ServiceMetrics& m, size_t count, size_t groups)
{
    const PipelineMetrics& pm = m.pipeline;
    EXPECT_EQ(m.completed, count);
    EXPECT_EQ(m.failed, 0u);
    for (const Stage s : {Stage::Front, Stage::Finish}) {
        EXPECT_EQ(pm.stage(s).entered, count) << stageName(s);
        EXPECT_EQ(pm.stage(s).tasks, count) << stageName(s);
    }
    EXPECT_EQ(pm.stage(Stage::Rotate).entered, count * groups);
    EXPECT_EQ(pm.stage(Stage::Rotate).tasks, m.batches);
    for (const StageMetrics& st : pm.stages) {
        EXPECT_EQ(st.queueDepth, 0u) << st.name;
    }
}

TEST(PipelineDrain, DrainCompletesWithItemsResidentInStageQueues)
{
    ckks::Context ctx(pipelineParams(), 42);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 4);

    BootstrapService svc(dist, tightConfig(2, 4));
    svc.pause();
    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    for (const auto& in : inputs) {
        tickets.push_back(svc.submit(in));
    }
    // At resume the whole backlog sits in the front queue; with both
    // downstream bounds at 1 the workers must repeatedly stall and
    // hand off between stages. drain() must still complete all four.
    svc.resume();
    svc.drain();
    for (const auto& t : tickets) {
        EXPECT_TRUE(t->ready());
    }
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.completed, 4u);
    EXPECT_EQ(m.failed, 0u);
    checkPipelineAccounting(PipelineRun{{}, m}, 4, 2, "drain");
    // The tight bounds were actually exercised.
    EXPECT_GT(m.pipeline.stage(Stage::Front).backpressured, 0u);

    // The PIR pod: a paused backlog, small batches straddling
    // queries, and a drain that must see every finish through.
    const PirRig rig(42, 4);
    PirService pirSvc(*rig.server, ServiceConfig{
                                       .workers = 2,
                                       .maxQueuedRequests = 4,
                                       .maxBatchItems = 3,
                                   });
    pirSvc.pause();
    std::vector<std::shared_ptr<PirTicket>> lookups;
    for (const auto& q : rig.queries) {
        lookups.push_back(pirSvc.submit(q));
    }
    pirSvc.resume();
    pirSvc.drain();
    rig.expectExact(lookups);
    checkPirStages(pirSvc.metrics(), 4, rig.server->firstDimGroups());
}

TEST(PipelineDrain, ShutdownWhileStagesHoldWork)
{
    ckks::Context ctx(pipelineParams(), 7);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 3);

    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    BootstrapService svc(dist, tightConfig(1, 3));
    for (const auto& in : inputs) {
        tickets.push_back(svc.submit(in));
    }
    // Immediate shutdown: requests are mid-pipeline (front queue,
    // rotate pool, finish queue). Every accepted request must still
    // complete before the workers join; none may be lost in a queue.
    svc.shutdown();
    for (const auto& t : tickets) {
        ASSERT_TRUE(t->ready());
        EXPECT_GT(t->wait().slots, 0u);
    }
    EXPECT_EQ(svc.metrics().completed, 3u);
    EXPECT_EQ(svc.metrics().pipeline.stage(Stage::Finish).queueDepth,
              0u);

    // The PIR pod, shut down with its backlog mid-pipeline.
    const PirRig rig(7, 3);
    std::vector<std::shared_ptr<PirTicket>> lookups;
    PirService pirSvc(*rig.server, ServiceConfig{.workers = 1});
    for (const auto& q : rig.queries) {
        lookups.push_back(pirSvc.submit(q));
    }
    pirSvc.shutdown();
    rig.expectExact(lookups);
    checkPirStages(pirSvc.metrics(), 3, rig.server->firstDimGroups());
}

TEST(PipelineDrain, DestructorDrainsBackloggedStageQueues)
{
    ckks::Context ctx(pipelineParams(), 21);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 2, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 4);

    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    {
        BootstrapService svc(dist, tightConfig(2, 4));
        svc.pause();
        for (const auto& in : inputs) {
            tickets.push_back(svc.submit(in));
        }
        svc.resume();
        // No wait, no explicit shutdown: destruction runs while the
        // stage queues still hold requests.
    }
    for (const auto& t : tickets) {
        EXPECT_TRUE(t->ready());
        EXPECT_GT(t->wait().slots, 0u);
    }

    // The PIR pod, destroyed while its stage queues hold queries.
    const PirRig rig(21, 4);
    std::vector<std::shared_ptr<PirTicket>> lookups;
    {
        PirService pirSvc(*rig.server, ServiceConfig{
                                           .workers = 2,
                                           .maxBatchItems = 5,
                                       });
        pirSvc.pause();
        for (const auto& q : rig.queries) {
            lookups.push_back(pirSvc.submit(q));
        }
        pirSvc.resume();
    }
    rig.expectExact(lookups);
}

} // namespace
} // namespace heap::serve
