/**
 * @file
 * Serving-runtime tests: the scheduler policy in isolation
 * (ItemQueue ranking/starvation, deadline batch sizing), and the
 * BootstrapService end to end — byte-identity of continuously batched
 * multi-client service against sequential per-request bootstrapping
 * (fault-free, fault-injected, and dead-secondary links, for worker
 * counts 1/2/8), backpressure rejection, priority and deadline
 * ordering, deadline-miss accounting, clean shutdown with in-flight
 * work, and the noise-budget health surface.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "serve/service.h"

namespace heap::serve {
namespace {

// Same miniature parameter set as the fault-injection suite: n = 64
// keeps a full bootstrap affordable while exercising every protocol
// path.
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

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------- //
// ItemQueue policy                                                 //
// ---------------------------------------------------------------- //

TEST(ItemQueue, PriorityThenDeadlineThenArrival)
{
    ItemQueue q(8);
    q.addRequest(1, 0, kInf, 2);     // low priority, first arrival
    q.addRequest(2, 5, kInf, 2);     // high priority
    q.addRequest(3, 0, 100.0, 2);    // low priority, tight deadline
    q.addRequest(4, 5, 50.0, 2);     // high priority, tight deadline
    EXPECT_EQ(q.pendingItems(), 8u);
    EXPECT_EQ(q.minDeadlineAbsMs(), 50.0);

    const PlannedBatch b = q.formBatch(8);
    ASSERT_EQ(b.items.size(), 8u);
    EXPECT_EQ(b.distinctRequests, 4u);
    // Rank order: 4 (pri 5, edf), 2 (pri 5), 3 (pri 0, edf), 1.
    const uint64_t wantOrder[] = {4, 4, 2, 2, 3, 3, 1, 1};
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(b.items[i].requestId, wantOrder[i]) << i;
    }
    // Within one request, items go out in ascending index order.
    EXPECT_EQ(b.items[0].index, 0u);
    EXPECT_EQ(b.items[1].index, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(ItemQueue, PartialBatchesResumeWhereTheyLeftOff)
{
    ItemQueue q(8);
    q.addRequest(1, 0, kInf, 5);
    q.addRequest(2, 0, kInf, 5);
    const PlannedBatch b1 = q.formBatch(3);
    ASSERT_EQ(b1.items.size(), 3u);
    EXPECT_EQ(b1.distinctRequests, 1u); // request 1 only
    EXPECT_EQ(q.pendingItems(), 7u);

    const PlannedBatch b2 = q.formBatch(4);
    ASSERT_EQ(b2.items.size(), 4u);
    EXPECT_EQ(b2.distinctRequests, 2u); // tail of 1 + head of 2
    EXPECT_EQ(b2.items[0].requestId, 1u);
    EXPECT_EQ(b2.items[0].index, 3u);
    EXPECT_EQ(b2.items[2].requestId, 2u);
    EXPECT_EQ(b2.items[2].index, 0u);

    const PlannedBatch b3 = q.formBatch(64);
    EXPECT_EQ(b3.items.size(), 3u);
    EXPECT_TRUE(q.empty());
}

TEST(ItemQueue, StarvationBoostOvertakesPriority)
{
    ItemQueue q(2); // boost after 2 consecutive skips
    q.addRequest(1, 0, kInf, 1); // the would-be starved request
    q.addRequest(2, 9, kInf, 1);
    EXPECT_EQ(q.formBatch(1).items[0].requestId, 2u); // skip #1
    q.addRequest(3, 9, kInf, 1);
    EXPECT_EQ(q.formBatch(1).items[0].requestId, 3u); // skip #2
    q.addRequest(4, 9, kInf, 1);
    // Request 1 has now been skipped twice: it must win over the
    // fresh priority-9 arrival.
    EXPECT_EQ(q.formBatch(1).items[0].requestId, 1u);
    EXPECT_EQ(q.formBatch(1).items[0].requestId, 4u);
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------- //
// Deadline batch sizing (chooseBatchSize)                         //
// ---------------------------------------------------------------- //

TEST(BatchPlanner, ModellessFillsToTheCap)
{
    // No measurement yet (0 ms per item): the batch is the cap or the
    // pending work, whatever the slack.
    EXPECT_EQ(chooseBatchSize(500, 48, kInf, 0.0), 48u);
    EXPECT_EQ(chooseBatchSize(500, 48, 0.001, 0.0), 48u);
    EXPECT_EQ(chooseBatchSize(10, 48, kInf, 0.0), 10u);
    // A measurement without a deadline cuts nothing either.
    EXPECT_EQ(chooseBatchSize(500, 48, kInf, 2.0), 48u);
}

TEST(BatchPlanner, SlackCapsTheBatchMonotonically)
{
    constexpr double kMsPerItem = 0.75;
    EXPECT_EQ(chooseBatchSize(512, 512, kInf, kMsPerItem), 512u);

    // Slack ample for the full batch keeps it; otherwise the batch is
    // the number of whole measured items the slack covers.
    EXPECT_EQ(chooseBatchSize(512, 512, 1024 * kMsPerItem, kMsPerItem),
              512u);
    EXPECT_EQ(chooseBatchSize(512, 512, 256 * kMsPerItem, kMsPerItem),
              256u);
    EXPECT_EQ(chooseBatchSize(512, 512, 100.9 * kMsPerItem, kMsPerItem),
              100u);
    EXPECT_EQ(chooseBatchSize(512, 512, kMsPerItem, kMsPerItem), 1u);
    // The cut never exceeds the pending work.
    EXPECT_EQ(chooseBatchSize(10, 512, 256 * kMsPerItem, kMsPerItem),
              10u);

    // Tighter (but still feasible) slack never yields a larger batch,
    // every batch fits its slack, and none is empty.
    size_t prev = 512;
    for (double slack = 1000 * kMsPerItem; slack >= kMsPerItem;
         slack *= 0.9) {
        const size_t s = chooseBatchSize(512, 512, slack, kMsPerItem);
        EXPECT_LE(s, prev) << "slack " << slack;
        EXPECT_GE(s, 1u) << "slack " << slack;
        EXPECT_LE(static_cast<double>(s) * kMsPerItem, slack);
        prev = s;
    }
    // A deadline that cannot be met even by one item is already lost:
    // dispatch the full batch and account the miss.
    EXPECT_EQ(chooseBatchSize(512, 512, 0.0, kMsPerItem), 512u);
    EXPECT_EQ(chooseBatchSize(512, 512, -5.0, kMsPerItem), 512u);
    EXPECT_EQ(chooseBatchSize(512, 512, 0.99 * kMsPerItem, kMsPerItem),
              512u);
    // A zero measurement keeps the full batch at any finite slack.
    EXPECT_EQ(chooseBatchSize(512, 512, 1.0, 0.0), 512u);
}

// ---------------------------------------------------------------- //
// LatencyReservoir                                                 //
// ---------------------------------------------------------------- //

TEST(LatencyReservoir, CachedSortInvalidatesOnRecord)
{
    // Regression for the snapshot-sort fix: percentile() sorts once
    // and caches; a record() between reads must invalidate the cache,
    // and repeated reads must not perturb the reservoir.
    LatencyReservoir r(1024);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> u(0.1, 50.0);
    std::vector<double> samples;
    for (int step = 0; step < 200; ++step) {
        const double v = u(rng);
        r.record(v);
        samples.push_back(v);
        if (step % 7 != 0) {
            continue;
        }
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        for (const double p : {50.0, 95.0, 99.0}) {
            // Freshly computed oracle with the reservoir's own
            // interpolation rule.
            const double rank =
                p / 100.0 * static_cast<double>(sorted.size() - 1);
            const size_t lo = static_cast<size_t>(rank);
            const size_t hi = std::min(lo + 1, sorted.size() - 1);
            const double want =
                sorted[lo]
                + (sorted[hi] - sorted[lo]) * (rank - double(lo));
            EXPECT_DOUBLE_EQ(r.percentile(p), want)
                << "step " << step << " p" << p;
            // A second read off the cached sort is identical.
            EXPECT_DOUBLE_EQ(r.percentile(p), want);
        }
    }
}

TEST(LatencyReservoir, PercentilesAndDecimation)
{
    LatencyReservoir r(16);
    EXPECT_TRUE(std::isnan(r.percentile(50)));
    for (int i = 1; i <= 100; ++i) {
        r.record(static_cast<double>(i));
    }
    EXPECT_EQ(r.count(), 100u);
    EXPECT_GT(r.percentile(95), r.percentile(50));
    EXPECT_GE(r.percentile(100), r.percentile(99));
    EXPECT_GE(r.percentile(50), 1.0);
    EXPECT_LE(r.percentile(100), 100.0);
    EXPECT_GT(r.mean(), 0.0);
}

// ---------------------------------------------------------------- //
// BootstrapService end to end                                      //
// ---------------------------------------------------------------- //

struct ServeFixture : ::testing::Test {
    static constexpr size_t kRequests = 6;

    /** Deterministic per-request payloads (16 slots each). */
    static std::vector<ckks::Ciphertext>
    makeInputs(const ckks::Context& ctx, ckks::Evaluator& ev,
               size_t count)
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

    /** The reference: one sequential bootstrap() per request. */
    static std::vector<std::vector<uint8_t>>
    sequentialBytes(uint64_t ctxSeed, size_t secondaries, size_t count)
    {
        ckks::Context ctx(serveParams(), ctxSeed);
        ckks::Evaluator ev(ctx);
        boot::DistributedBootstrapper dist(ctx, secondaries, kBrGadget);
        const auto inputs = makeInputs(ctx, ev, count);
        std::vector<std::vector<uint8_t>> out;
        for (const auto& in : inputs) {
            out.push_back(ckks::saveCiphertext(dist.bootstrap(in)));
        }
        return out;
    }

    struct ServeRun {
        std::vector<std::vector<uint8_t>> bytes;
        std::vector<RequestReport> reports;
        ServiceMetrics metrics;
    };

    /**
     * The same requests through a BootstrapService, submitted from
     * `clients` concurrent threads in a seed-shuffled order while the
     * service is paused (so the batch schedule deterministically
     * packs across requests), then resumed and awaited.
     */
    static ServeRun
    serviceRun(uint64_t ctxSeed, size_t secondaries, size_t count,
               size_t workers, size_t clients, const boot::FaultSpec* spec,
               long deadSecondary = -1)
    {
        // Identical construction order to sequentialBytes(): same ctx
        // seed and RNG call sequence => same keys and same inputs.
        ckks::Context ctx(serveParams(), ctxSeed);
        ckks::Evaluator ev(ctx);
        boot::DistributedBootstrapper dist(ctx, secondaries, kBrGadget);
        if (spec != nullptr) {
            dist.setFaults(*spec);
        }
        if (deadSecondary >= 0) {
            boot::FaultSpec dead;
            dead.drop = 1.0;
            dist.setSecondaryFaults(static_cast<size_t>(deadSecondary),
                                    dead);
        }
        const auto inputs = makeInputs(ctx, ev, count);

        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.maxQueuedRequests = count;
        // 48 < n = 64: batches straddle request boundaries, so the
        // occupancy assertion below genuinely tests cross-request
        // packing.
        cfg.maxBatchItems = 48;
        BootstrapService svc(dist, cfg);

        svc.pause();
        std::vector<std::shared_ptr<BootstrapTicket>> tickets(count);
        // Seeded arrival process: each client thread submits its
        // shuffled share of the requests concurrently.
        std::vector<size_t> order(count);
        for (size_t r = 0; r < count; ++r) {
            order[r] = r;
        }
        std::shuffle(order.begin(), order.end(),
                     std::mt19937(static_cast<unsigned>(ctxSeed)));
        std::vector<std::thread> pool;
        for (size_t c = 0; c < clients; ++c) {
            pool.emplace_back([&, c] {
                for (size_t k = c; k < count; k += clients) {
                    const size_t r = order[k];
                    tickets[r] = svc.submit(inputs[r]);
                }
            });
        }
        for (auto& t : pool) {
            t.join();
        }
        svc.resume();

        ServeRun run;
        run.bytes.resize(count);
        run.reports.resize(count);
        for (size_t r = 0; r < count; ++r) {
            run.bytes[r] = ckks::saveCiphertext(tickets[r]->wait());
            run.reports[r] = tickets[r]->report();
        }
        run.metrics = svc.metrics();
        return run;
    }
};

TEST_F(ServeFixture, ByteIdenticalToSequentialAcrossWorkersAndFaults)
{
    constexpr size_t kSecondaries = 3;
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        const auto want = sequentialBytes(seed, kSecondaries, kRequests);

        // Fault-free service, 8 concurrent clients, workers 1/2/8.
        for (const size_t workers : {1ul, 2ul, 8ul}) {
            const auto run = serviceRun(seed, kSecondaries, kRequests,
                                        workers, 8, nullptr);
            for (size_t r = 0; r < kRequests; ++r) {
                EXPECT_TRUE(run.bytes[r] == want[r])
                    << "seed " << seed << ", " << workers
                    << " workers, request " << r;
            }
            EXPECT_EQ(run.metrics.completed, kRequests);
            EXPECT_EQ(run.metrics.failed, 0u);
            // The tentpole: batches actually mixed requests.
            EXPECT_GT(run.metrics.batchOccupancy, 1.0)
                << "seed " << seed << ", " << workers << " workers";
        }

        // PR 3's fault cocktail on every link (service-owned retry
        // protocol): outputs must not change.
        boot::FaultSpec spec;
        spec.drop = 0.2;
        spec.bitflip = 0.15;
        spec.truncate = 0.1;
        spec.duplicate = 0.15;
        spec.reorder = 0.2;
        spec.delay = 0.25;
        spec.seed = seed;
        const auto faulted =
            serviceRun(seed, kSecondaries, kRequests, 2, 8, &spec);
        for (size_t r = 0; r < kRequests; ++r) {
            EXPECT_TRUE(faulted.bytes[r] == want[r])
                << "faulted, seed " << seed << ", request " << r;
        }
        EXPECT_GT(faulted.metrics.batchOccupancy, 1.0);
        EXPECT_GE(faulted.metrics.wireBytesOut,
                  faulted.metrics.wireBytesIn > 0 ? 1u : 0u);
    }
}

TEST_F(ServeFixture, DeadSecondaryIsReclaimedWithIdenticalOutputs)
{
    constexpr uint64_t kSeed = 21;
    constexpr size_t kSecondaries = 2;
    const auto want = sequentialBytes(kSeed, kSecondaries, kRequests);
    const auto run = serviceRun(kSeed, kSecondaries, kRequests, 2, 4,
                                nullptr, /*deadSecondary=*/1);
    for (size_t r = 0; r < kRequests; ++r) {
        EXPECT_TRUE(run.bytes[r] == want[r]) << "request " << r;
    }
    // Every batch routed at the dead secondary was reclaimed locally.
    EXPECT_GT(run.metrics.reclaimedBatches, 0u);
    EXPECT_EQ(run.metrics.completed, kRequests);
}

TEST_F(ServeFixture, ReportsSurfaceBudgetHealth)
{
    constexpr uint64_t kSeed = 7;
    ckks::Context ctx(serveParams(), kSeed);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 2);

    BootstrapService svc(dist, {.workers = 2});
    auto t0 = svc.submit(inputs[0]);
    auto t1 = svc.submit(inputs[1]);
    const auto out0 = t0->wait();
    (void)t1->wait();

    const RequestReport rep = t0->report();
    EXPECT_EQ(rep.id, 1u);
    EXPECT_GE(rep.totalMs, rep.queueMs);
    EXPECT_GE(rep.batches, 1u);
    EXPECT_FALSE(rep.deadlineMissed);
    // The report's budget figures match the context's reading of the
    // returned ciphertext: budget health without decrypting.
    EXPECT_DOUBLE_EQ(rep.budgetBits, ctx.noiseBudgetBits(out0));
    EXPECT_DOUBLE_EQ(rep.precisionBits, ctx.noisePrecisionBits(out0));
    EXPECT_TRUE(std::isfinite(rep.budgetBits));
    EXPECT_GT(rep.budgetBits, 0.0);

    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.guardTrips, 0u);
    EXPECT_TRUE(std::isfinite(m.minReturnedBudgetBits));
    EXPECT_LE(m.minReturnedBudgetBits, rep.budgetBits);
    EXPECT_GT(m.p50Ms, 0.0);
    EXPECT_GE(m.p99Ms, m.p50Ms);
}

TEST_F(ServeFixture, BackpressureRejectsBeyondCapacity)
{
    ckks::Context ctx(serveParams(), 7);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 3);

    BootstrapService svc(dist,
                         {.workers = 1, .maxQueuedRequests = 2});
    svc.pause(); // nothing completes: the queue must fill
    auto t0 = svc.submit(inputs[0]);
    auto t1 = svc.submit(inputs[1]);
    EXPECT_THROW(svc.submit(inputs[2]), UserError);
    EXPECT_EQ(svc.metrics().rejected, 1u);
    EXPECT_EQ(svc.metrics().submitted, 2u);
    EXPECT_EQ(svc.metrics().queueDepth, 2u);

    // The accepted requests are unaffected by the rejection.
    svc.resume();
    EXPECT_GT(t0->wait().slots, 0u);
    EXPECT_GT(t1->wait().slots, 0u);
    EXPECT_EQ(svc.metrics().completed, 2u);
    EXPECT_EQ(svc.metrics().maxQueueDepth, 2u);
}

TEST_F(ServeFixture, SubmitValidatesLevelSynchronously)
{
    ckks::Context ctx(serveParams(), 7);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    BootstrapService svc(dist, {.workers = 1});
    const std::vector<double> v(16, 0.25);
    // Freshly encrypted => full level, not the level-1 bootstrap
    // input: rejected at submit, not via a failed ticket.
    const auto ct = ctx.encrypt(std::span<const double>(v));
    EXPECT_THROW(svc.submit(ct), UserError);
}

TEST_F(ServeFixture, SubmitRejectsInputsOfAnotherContext)
{
    ckks::Context ctx(serveParams(), 7);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    // Same parameters and seed, another context: a level-1 input of
    // the right shape whose basis the pod's keys do not share.
    ckks::Context other(serveParams(), 7);
    ckks::Evaluator otherEv(other);
    const auto foreign = makeInputs(other, otherEv, 1);
    const auto inputs = makeInputs(ctx, ev, 1);

    BootstrapService svc(dist, {.workers = 1});
    EXPECT_THROW(svc.submit(foreign[0]), UserError);
    EXPECT_GT(svc.submit(inputs[0])->wait().slots, 0u);
    const ServiceMetrics m = svc.metrics();
    EXPECT_EQ(m.submitted, 1u);
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.failed, 0u);
}

TEST_F(ServeFixture, PriorityOrdersCompletionUnderSingleWorker)
{
    ckks::Context ctx(serveParams(), 21);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 3);

    BootstrapService svc(dist, {.workers = 1});
    svc.pause();
    SubmitOptions lowPri;
    SubmitOptions highPri;
    highPri.priority = 5;
    auto low1 = svc.submit(inputs[0], lowPri);
    auto low2 = svc.submit(inputs[1], lowPri);
    auto high = svc.submit(inputs[2], highPri);
    svc.resume();
    svc.drain();

    // The high-priority request, submitted last, completes first;
    // equal priorities complete in arrival order.
    EXPECT_EQ(high->report().completionSeq, 1u);
    EXPECT_EQ(low1->report().completionSeq, 2u);
    EXPECT_EQ(low2->report().completionSeq, 3u);
}

TEST_F(ServeFixture, EarliestDeadlineBreaksPriorityTies)
{
    ckks::Context ctx(serveParams(), 21);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 2);

    BootstrapService svc(dist, {.workers = 1});
    svc.pause();
    auto relaxed = svc.submit(inputs[0]); // no deadline
    auto urgent = svc.submit(inputs[1], {.deadlineMs = 10.0});
    svc.resume();
    svc.drain();
    EXPECT_EQ(urgent->report().completionSeq, 1u);
    EXPECT_EQ(relaxed->report().completionSeq, 2u);
}

TEST_F(ServeFixture, DeadlineMissIsAccountedNeverDropped)
{
    constexpr uint64_t kSeed = 42;
    const auto want = sequentialBytes(kSeed, 1, 1);

    ckks::Context ctx(serveParams(), kSeed);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 1);

    BootstrapService svc(dist, {.workers = 1});
    // A zero-millisecond deadline is unmeetable: the request must
    // still complete correctly, with the miss accounted.
    auto t = svc.submit(inputs[0], {.deadlineMs = 0.0});
    const auto out = t->wait();
    EXPECT_TRUE(ckks::saveCiphertext(out) == want[0]);
    EXPECT_TRUE(t->report().deadlineMissed);
    EXPECT_EQ(svc.metrics().deadlineMisses, 1u);
    EXPECT_EQ(svc.metrics().completed, 1u);
}

TEST_F(ServeFixture, DeadlineSlackShrinksBatchesAtMeasuredCost)
{
    constexpr uint64_t kSeed = 21;
    const auto want = sequentialBytes(kSeed, 1, 2);

    ckks::Context ctx(serveParams(), kSeed);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 2);

    BootstrapService svc(dist, {.workers = 1});
    constexpr size_t kCap = 64; // maxBatchItems 0 = the ring dimension
    EXPECT_EQ(svc.msPerItem(), 0.0); // nothing measured yet
    // Warm-up: no deadline, so one full batch; its lane time is the
    // pod's first measurement.
    auto warm = svc.submit(inputs[0]);
    EXPECT_TRUE(ckks::saveCiphertext(warm->wait()) == want[0]);
    EXPECT_EQ(warm->report().batches, 1u);
    const double msPerItem = svc.msPerItem();
    ASSERT_GT(msPerItem, 0.0);

    // Slack for half the cap at the measured rate: the first batch is
    // cut to what fits, and the request spans several batches.
    auto t = svc.submit(inputs[1], {.deadlineMs = kCap / 2 * msPerItem});
    EXPECT_TRUE(ckks::saveCiphertext(t->wait()) == want[1]);
    EXPECT_GT(t->report().batches, 1u);
    const ServiceMetrics m = svc.metrics();
    EXPECT_LT(m.meanBatchItems, static_cast<double>(kCap));
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.failed, 0u);
}

TEST_F(ServeFixture, ShutdownDrainsInFlightWorkThenRejects)
{
    constexpr uint64_t kSeed = 7;
    const auto want = sequentialBytes(kSeed, 2, 4);

    ckks::Context ctx(serveParams(), kSeed);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 2, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 4);

    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    {
        BootstrapService svc(dist, {.workers = 2});
        for (const auto& in : inputs) {
            tickets.push_back(svc.submit(in));
        }
        svc.shutdown(); // drains everything accepted
        EXPECT_THROW(svc.submit(inputs[0]), UserError);
        EXPECT_EQ(svc.metrics().rejected, 1u);
        EXPECT_EQ(svc.metrics().completed, 4u);
    } // destruction after shutdown() is a no-op

    for (size_t r = 0; r < tickets.size(); ++r) {
        ASSERT_TRUE(tickets[r]->ready()) << r;
        EXPECT_TRUE(ckks::saveCiphertext(tickets[r]->wait())
                    == want[r])
            << r;
    }
}

TEST_F(ServeFixture, DestructionAloneDrainsAcceptedWork)
{
    ckks::Context ctx(serveParams(), 42);
    ckks::Evaluator ev(ctx);
    boot::DistributedBootstrapper dist(ctx, 1, kBrGadget);
    const auto inputs = makeInputs(ctx, ev, 3);

    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    {
        BootstrapService svc(dist, {.workers = 2});
        for (const auto& in : inputs) {
            tickets.push_back(svc.submit(in));
        }
        // No wait, no shutdown: the destructor must finish the work.
    }
    for (const auto& t : tickets) {
        EXPECT_TRUE(t->ready());
        EXPECT_GT(t->wait().slots, 0u);
    }
}

} // namespace
} // namespace heap::serve
