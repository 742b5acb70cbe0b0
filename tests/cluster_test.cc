/**
 * @file
 * ServiceCluster tests: consistent routing determinism (same tenant
 * -> same pod absent spill), least-loaded spill when the preferred
 * pod is full, quota and cluster-capacity rejection accounting,
 * per-pod key-cache affinity (exactly, and as a high hit rate under a
 * Zipf tenant mix), and byte-identity of cluster-served bootstraps
 * against the single-pod sequential path for seeds {7, 21, 42}.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "serve/cluster.h"

namespace heap::serve {
namespace {

// Same miniature parameter set as serve_test.cc: n = 64 keeps full
// bootstraps affordable while exercising every protocol path.
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

/** A cluster's worth of pods: one context + key generation (the
 *  single-pod reference order: ctx, ev, dist), with pods 1..k-1 as
 *  key replicas of pod 0 — the paper's generate-once, replicate-to-
 *  every-FPGA-group deployment. */
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

/** Deterministic per-request payloads (16 slots each) — identical to
 *  the serve_test fixture's. */
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

/** The single-pod reference: sequential bootstrap() per request. */
std::vector<std::vector<uint8_t>>
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

TEST(Cluster, RoutingIsDeterministicAndCoversEveryPod)
{
    auto podsA = makePods(7, 3, 1);
    auto podsB = makePods(7, 3, 1);
    TenantRegistry regA, regB;
    ServiceCluster a(distPtrs(podsA), regA);
    ServiceCluster b(distPtrs(podsB), regB);

    std::vector<size_t> perPod(3, 0);
    for (uint64_t t = 1; t <= 300; ++t) {
        const size_t pod = a.preferredPod(t);
        ASSERT_LT(pod, 3u);
        // Stable within a cluster and across cluster instances: the
        // map is a pure function of (tenant id, pod count).
        EXPECT_EQ(a.preferredPod(t), pod);
        EXPECT_EQ(b.preferredPod(t), pod);
        ++perPod[pod];
    }
    // The mix spreads tenants across every pod (expected ~100 each).
    for (size_t p = 0; p < 3; ++p) {
        EXPECT_GT(perPod[p], 50u) << "pod " << p;
    }
}

TEST(Cluster, SameTenantStaysOnPreferredPodAbsentSpill)
{
    auto pods = makePods(21, 3, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 7, .keyBytes = 1000});
    ClusterConfig cfg;
    cfg.pod.maxBatchItems = 48;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    const size_t preferred = cluster.preferredPod(7);

    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).pause();
    }
    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 3);
    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    for (const auto& in : inputs) {
        tickets.push_back(cluster.submit(7, in));
    }
    // With room on the preferred pod, nothing spills: the tenant's
    // key stays hot on exactly one pod.
    ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.routedPreferred, 3u);
    EXPECT_EQ(m.spilled, 0u);
    const KeyCacheStats kc = cluster.keyCache(preferred).stats();
    EXPECT_EQ(kc.misses, 1u); // first touch loads the key...
    EXPECT_EQ(kc.hits, 2u);   // ...the rest hit
    EXPECT_EQ(kc.residentTenants, 1u);
    EXPECT_EQ(kc.residentBytes, 1000u);

    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).resume();
    }
    for (auto& t : tickets) {
        EXPECT_GT(t->wait().slots, 0u);
    }
    cluster.shutdown(); // joins workers: completion hooks have run
    EXPECT_EQ(reg.stats(7).completed, 3u);
    EXPECT_EQ(reg.stats(7).inFlight, 0u);
}

TEST(Cluster, SpillsWhenPreferredPodIsFull)
{
    auto pods = makePods(42, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 3});
    ClusterConfig cfg;
    cfg.pod.maxQueuedRequests = 1; // one live request per pod
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).pause();
    }

    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 2);
    auto t0 = cluster.submit(3, inputs[0]); // preferred pod
    auto t1 = cluster.submit(3, inputs[1]); // preferred full: spills
    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.submitted, 2u);
    EXPECT_EQ(m.routedPreferred, 1u);
    EXPECT_EQ(m.spilled, 1u);
    // One live request on each pod.
    EXPECT_EQ(cluster.pod(0).liveRequests(), 1u);
    EXPECT_EQ(cluster.pod(1).liveRequests(), 1u);

    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).resume();
    }
    EXPECT_GT(t0->wait().slots, 0u);
    EXPECT_GT(t1->wait().slots, 0u);
}

TEST(Cluster, QuotaRejectionIsCountedAtClusterAndTenant)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 5, .maxInFlight = 1});
    ServiceCluster cluster(distPtrs(pods), reg);
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).pause();
    }

    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 2);
    auto t0 = cluster.submit(5, inputs[0]);
    EXPECT_THROW(cluster.submit(5, inputs[1]), UserError);
    EXPECT_EQ(cluster.metrics().rejectedQuota, 1u);
    EXPECT_EQ(reg.stats(5).rejectedQuota, 1u);
    EXPECT_EQ(reg.stats(5).inFlight, 1u);
    EXPECT_EQ(reg.stats(5).submitted, 1u);

    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).resume();
    }
    EXPECT_GT(t0->wait().slots, 0u);
}

TEST(Cluster, RejectsWhenEveryPodIsFull)
{
    auto pods = makePods(21, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 9});
    ClusterConfig cfg;
    cfg.pod.maxQueuedRequests = 1;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).pause();
    }

    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 3);
    auto t0 = cluster.submit(9, inputs[0]);
    auto t1 = cluster.submit(9, inputs[1]);
    EXPECT_THROW(cluster.submit(9, inputs[2]), UserError);
    EXPECT_EQ(cluster.metrics().rejectedCapacity, 1u);
    // The failed admission was rolled back: the virtual clock and the
    // in-flight slot reflect only the two accepted requests.
    EXPECT_EQ(reg.stats(9).rejectedCapacity, 1u);
    EXPECT_EQ(reg.stats(9).inFlight, 2u);
    EXPECT_EQ(reg.stats(9).submitted, 2u);

    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).resume();
    }
    EXPECT_GT(t0->wait().slots, 0u);
    EXPECT_GT(t1->wait().slots, 0u);
}

TEST(Cluster, MalformedInputsAreUserErrorsNotCapacityOrPodFaults)
{
    auto pods = makePods(21, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 9});
    ServiceCluster cluster(distPtrs(pods), reg);

    // A top-level (not level-1) input to an idle cluster: the user's
    // mistake, not "every pod full".
    const std::vector<double> v(16, 0.25);
    EXPECT_THROW(
        cluster.submit(9, pods.ctx->encrypt(std::span<const double>(v))),
        UserError);
    EXPECT_EQ(cluster.metrics().rejectedCapacity, 0u);

    // A level-1 input of another context, eight times: rejected at
    // the door, so no pod fails it and no breaker counts it.
    ckks::Context other(serveParams(), 21);
    ckks::Evaluator otherEv(other);
    const auto foreign = makeInputs(other, otherEv, 1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_THROW(cluster.submit(9, foreign[0]), UserError);
    }
    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.rejectedCapacity, 0u);
    EXPECT_EQ(m.submitted, 0u);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(cluster.breakerStats(cluster.preferredPod(9)).failures, 0u);
    EXPECT_EQ(reg.stats(9).submitted, 0u);

    // The cluster still serves well-formed input.
    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 1);
    EXPECT_GT(cluster.submit(9, inputs[0])->wait().slots, 0u);
}

TEST(Cluster, ByteIdenticalToSinglePodPath)
{
    // The determinism guarantee at cluster scale: wherever routing
    // lands a request, the returned ciphertext is byte-identical to a
    // sequential single-pod bootstrap under the same seed.
    constexpr size_t kRequests = 6;
    constexpr size_t kSecondaries = 1;
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        const auto want =
            sequentialBytes(seed, kSecondaries, kRequests);

        auto pods = makePods(seed, 3, kSecondaries);
        TenantRegistry reg;
        for (uint64_t t = 1; t <= kRequests; ++t) {
            reg.registerTenant({.id = t});
        }
        ClusterConfig cfg;
        cfg.pod.maxBatchItems = 48; // batches straddle requests
        ServiceCluster cluster(distPtrs(pods), reg, cfg);

        // Inputs from pod 0's context: every pod carries the same key
        // material, so any pod may serve any request.
        const auto inputs =
            makeInputs(*pods.ctx, *pods.ev, kRequests);
        std::vector<std::shared_ptr<BootstrapTicket>> tickets;
        for (size_t r = 0; r < kRequests; ++r) {
            tickets.push_back(cluster.submit(r + 1, inputs[r]));
        }
        for (size_t r = 0; r < kRequests; ++r) {
            EXPECT_TRUE(ckks::saveCiphertext(tickets[r]->wait())
                        == want[r])
                << "seed " << seed << ", request " << r;
        }
        cluster.shutdown();
        const ClusterMetrics m = cluster.metrics();
        EXPECT_EQ(m.completed, kRequests);
        EXPECT_EQ(m.failed, 0u);
        EXPECT_EQ(m.routedPreferred + m.spilled, kRequests);
        EXPECT_EQ(m.keyCacheTotal.hits + m.keyCacheTotal.misses,
                  kRequests);
    }
}

TEST(Cluster, ClusterSmoke)
{
    // Fast end-to-end pass kept cheap for CI: two pods, weighted
    // tenants, full completion, consistent roll-up accounting.
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1", .weight = 1.0});
    reg.registerTenant({.id = 2, .name = "t2", .weight = 2.0});
    reg.registerTenant({.id = 3, .name = "t3", .weight = 4.0});
    ServiceCluster cluster(distPtrs(pods), reg);
    EXPECT_EQ(cluster.itemsPerRequest(), 64u);

    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 8);
    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    for (size_t r = 0; r < 8; ++r) {
        tickets.push_back(cluster.submit(1 + r % 3, inputs[r]));
    }
    for (auto& t : tickets) {
        EXPECT_GT(t->wait().slots, 0u);
    }
    cluster.shutdown();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.submitted, 8u);
    EXPECT_EQ(m.completed, 8u);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.rejectedQuota + m.rejectedCapacity, 0u);
    EXPECT_EQ(m.pods.size(), 2u);
    EXPECT_EQ(m.keyCacheTotal.hits + m.keyCacheTotal.misses, 8u);
    // Tenants without a declared footprint are charged the pods' real
    // bootstrapping-key bytes on every cache miss.
    EXPECT_GT(m.keyCacheTotal.misses, 0u);
    EXPECT_EQ(m.keyCacheTotal.bytesLoaded,
              m.keyCacheTotal.misses * pods.dists[0]->keys().bytes());
    ASSERT_EQ(m.tenants.size(), 3u);
    uint64_t completed = 0;
    for (const auto& t : m.tenants) {
        EXPECT_EQ(t.inFlight, 0u) << "tenant " << t.id;
        completed += t.completed;
    }
    EXPECT_EQ(completed, 8u);
    // Uncontended completion: fairness is NaN or a sane ratio, never
    // a bogus zero.
    EXPECT_TRUE(std::isnan(m.fairnessRatio) || m.fairnessRatio >= 1.0);
    // Outstanding load fully refunded once everything settled.
    for (const uint64_t items : m.podOutstandingItems) {
        EXPECT_EQ(items, 0u);
    }
}

TEST(Cluster, ZipfTenantMixKeepsPodKeyCachesHot)
{
    // The serving-scale key-residency claim at cluster level: Zipf
    // tenant popularity plus consistent routing keeps each tenant's
    // keys hot on one pod, so the cluster-wide hit rate stays high
    // even though the caches hold a third of the tenants' key sets.
    constexpr size_t kPods = 3;
    constexpr size_t kTenants = 24;
    constexpr size_t kResidentPerPod = 3;
    constexpr size_t kRequests = 24;
    constexpr size_t kKeyBytes = size_t{64} << 20;
    constexpr double kAlpha = 1.6;
    auto pods = makePods(42, kPods, 1);
    TenantRegistry reg;
    for (uint64_t t = 1; t <= kTenants; ++t) {
        reg.registerTenant({.id = t, .keyBytes = kKeyBytes});
    }
    ClusterConfig cfg;
    cfg.keyCacheBytes = kResidentPerPod * kKeyBytes;
    // Every pod is held below, so stale backlogs are intended.
    cfg.breaker.wedgeDecisions = 0;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);

    std::vector<double> cdf;
    double sum = 0;
    for (size_t k = 1; k <= kTenants; ++k) {
        sum += std::pow(static_cast<double>(k), -kAlpha);
        cdf.push_back(sum);
    }
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> u(0.0, sum);

    // Held pods make routing a pure function of the draw sequence:
    // nothing completes (and nothing fills) while requests arrive.
    for (size_t i = 0; i < kPods; ++i) {
        cluster.pod(i).pause();
    }
    // Reference: one LRU per pod, replaying the consistent routing.
    std::vector<std::unique_ptr<BootstrappingKeyCache>> replay;
    for (size_t i = 0; i < kPods; ++i) {
        replay.push_back(std::make_unique<BootstrappingKeyCache>(
            cfg.keyCacheBytes));
    }
    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 4);
    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    for (size_t r = 0; r < kRequests; ++r) {
        const uint64_t tid = static_cast<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u(rng))
            - cdf.begin() + 1);
        replay[cluster.preferredPod(tid)]->touch(tid, kKeyBytes);
        tickets.push_back(cluster.submit(tid, inputs[r % 4]));
    }
    for (size_t i = 0; i < kPods; ++i) {
        cluster.pod(i).resume();
    }
    for (auto& t : tickets) {
        EXPECT_GT(t->wait().slots, 0u);
    }
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.requestsCompleted, kRequests);
    EXPECT_EQ(m.routedPreferred, kRequests);
    std::vector<KeyCacheStats> want;
    for (const auto& c : replay) {
        want.push_back(c->stats());
    }
    const KeyCacheStats ref = sumStats(want);
    const KeyCacheStats& kc = m.keyCacheTotal;
    EXPECT_EQ(kc.hits, ref.hits);
    EXPECT_EQ(kc.misses, ref.misses);
    EXPECT_EQ(kc.evictions, ref.evictions);
    EXPECT_GT(kc.evictions, 0u); // the capacity bound actually bit
    EXPECT_GT(kc.hitRate(), 0.5)
        << "hits " << kc.hits << " misses " << kc.misses;
}

} // namespace
} // namespace heap::serve
