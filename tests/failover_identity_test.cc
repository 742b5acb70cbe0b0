/**
 * @file
 * Availability-under-faults identity tests: with a deterministic
 * chaos schedule wedging and crashing pods mid-run, every accepted
 * request still completes, its result is byte-identical to the
 * fault-free single-pod sequential bootstrap of the same input, and
 * the tenant-registry admission/completion accounting balances
 * exactly — for seeds {7, 21, 42}. This is the cluster analogue of
 * the link layer's fault_injection_test: faults may move work, never
 * change it.
 */

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "ckks/serialize.h"
#include "hw/bootstrap_model.h"
#include "serve/cluster.h"

namespace heap::serve {
namespace {

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

/** Fault-free single-pod reference: sequential bootstrap(). */
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

// A hand-built schedule that GUARANTEES failover work: the tenant's
// preferred pod is wedged from the first submission (so it provably
// holds the early requests), crashes while holding them (failing
// them retryably), and recovers later. Every request must still
// complete, byte-identically.
TEST(FailoverIdentity, CrashedPodFailoverIsByteIdentical)
{
    constexpr size_t kPods = 3;
    constexpr size_t kSecondaries = 1;
    constexpr size_t kRequests = 8;
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        auto pods = makePods(seed, kPods, kSecondaries);
        TenantRegistry reg;
        reg.registerTenant({.id = 1, .name = "t1"});

        ClusterConfig cfg;
        cfg.failover.maxAttempts = 5;
        // The victim is the tenant's consistent routing target, so
        // the early submissions provably land on it.
        const uint64_t victim = [&] {
            ServiceCluster probe(distPtrs(pods), reg, {});
            return static_cast<uint64_t>(probe.preferredPod(1));
        }();
        ChaosSpec spec;
        spec.events.push_back(
            {ChaosEvent::Kind::Wedge, victim, 1, 0});
        spec.events.push_back(
            {ChaosEvent::Kind::Crash, victim, 4, 0});
        spec.events.push_back(
            {ChaosEvent::Kind::Unwedge, victim, 5, 0});
        spec.events.push_back(
            {ChaosEvent::Kind::Recover, victim, 7, 0});
        cfg.chaos = spec;
        ServiceCluster cluster(distPtrs(pods), reg, cfg);

        const auto inputs =
            makeInputs(*pods.ctx, *pods.ev, kRequests);
        std::vector<std::shared_ptr<BootstrapTicket>> tickets;
        for (const auto& in : inputs) {
            tickets.push_back(cluster.submit(1, in));
        }
        cluster.drain();

        const auto ref =
            sequentialBytes(seed, kSecondaries, kRequests);
        uint32_t maxAttempts = 0;
        for (size_t r = 0; r < kRequests; ++r) {
            SCOPED_TRACE(testing::Message() << "request " << r);
            ckks::Ciphertext out;
            ASSERT_NO_THROW(out = tickets[r]->wait());
            EXPECT_EQ(ckks::saveCiphertext(out), ref[r])
                << "failover result diverged from the fault-free "
                   "single-pod bootstrap";
            maxAttempts =
                std::max(maxAttempts, tickets[r]->report().attempts);
        }

        const ClusterMetrics m = cluster.metrics();
        EXPECT_EQ(m.requestsCompleted, kRequests);
        EXPECT_EQ(m.requestsFailed, 0u);
        EXPECT_EQ(m.liveFlights, 0u);
        // The wedged victim held submissions 1-3; crash() fails them
        // synchronously at submission 4; each completes elsewhere on
        // its second attempt. Exact counts — the schedule is
        // deterministic.
        EXPECT_EQ(m.failovers, 3u);
        EXPECT_EQ(m.failoverSucceeded, 3u);
        EXPECT_EQ(m.failoverExhausted, 0u);
        EXPECT_EQ(m.failed, 3u); // pod-level attempt failures
        EXPECT_EQ(maxAttempts, 2u);
        EXPECT_EQ(m.chaos.wedges, 1u);
        EXPECT_EQ(m.chaos.unwedges, 1u);
        EXPECT_EQ(m.chaos.crashes, 1u);
        EXPECT_EQ(m.chaos.recoveries, 1u);
        // Admission/completion conservation: one admission per
        // logical request, settled exactly once, zero leaks.
        const TenantStats ts = reg.stats(1);
        EXPECT_EQ(ts.submitted, kRequests);
        EXPECT_EQ(ts.completed, kRequests);
        EXPECT_EQ(ts.failed, 0u);
        EXPECT_EQ(ts.inFlight, 0u);
    }
}

// The seeded scripted() schedule: crash + wedge windows and failure
// bursts placed by the seed. The counters are schedule-dependent, but
// identity, conservation, and full completion must hold for every
// seed (maxAttempts is sized above the schedule's worst case).
TEST(FailoverIdentity, ScriptedChaosPreservesIdentityAndAccounting)
{
    constexpr size_t kPods = 3;
    constexpr size_t kSecondaries = 1;
    constexpr size_t kRequests = 8;
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        auto pods = makePods(seed, kPods, kSecondaries);
        TenantRegistry reg;
        reg.registerTenant({.id = 1, .name = "t1"});
        ClusterConfig cfg;
        cfg.failover.maxAttempts = 6;
        cfg.chaos = ChaosSpec::scripted(seed, kPods, kRequests);
        ServiceCluster cluster(distPtrs(pods), reg, cfg);

        const auto inputs =
            makeInputs(*pods.ctx, *pods.ev, kRequests);
        std::vector<std::shared_ptr<BootstrapTicket>> tickets;
        for (const auto& in : inputs) {
            tickets.push_back(cluster.submit(1, in));
        }
        cluster.drain();

        const auto ref =
            sequentialBytes(seed, kSecondaries, kRequests);
        for (size_t r = 0; r < kRequests; ++r) {
            SCOPED_TRACE(testing::Message() << "request " << r);
            ckks::Ciphertext out;
            ASSERT_NO_THROW(out = tickets[r]->wait());
            EXPECT_EQ(ckks::saveCiphertext(out), ref[r]);
        }
        const ClusterMetrics m = cluster.metrics();
        EXPECT_EQ(m.requestsCompleted, kRequests);
        EXPECT_EQ(m.requestsFailed, 0u);
        EXPECT_EQ(m.chaos.crashes, 1u);
        EXPECT_EQ(m.chaos.recoveries, 1u);
        const TenantStats ts = reg.stats(1);
        EXPECT_EQ(ts.submitted, kRequests);
        EXPECT_EQ(ts.completed, kRequests);
        EXPECT_EQ(ts.inFlight, 0u);
    }
}

// The scripted schedule against a multi-tenant cluster with a short-
// horizon breaker, driven submit-then-drain: whatever the schedule
// moves, every ticket's outcome agrees with the cluster's flight
// counters, failovers account for every multi-attempt or exhausted
// flight, and each tenant's admissions settle exactly once.
TEST(FailoverIdentity, MultiTenantScriptedChaosBalancesTicketsAndCounters)
{
    constexpr size_t kPods = 3;
    constexpr size_t kTenants = 4;
    constexpr size_t kRequests = 16;
    auto pods = makePods(42, kPods, 1);
    const auto inputs = makeInputs(*pods.ctx, *pods.ev, 4);
    for (const uint64_t seed : {7ull, 21ull, 42ull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        TenantRegistry reg;
        for (uint64_t t = 1; t <= kTenants; ++t) {
            reg.registerTenant({.id = t});
        }
        ClusterConfig cfg;
        cfg.pod.workers = 2;
        cfg.pod.maxBatchItems = 48;
        // One crash plus two bursts of at most two injected failures
        // can fail a flight five times: six attempts always suffice.
        cfg.failover.maxAttempts = 6;
        cfg.breaker.window = 8;
        cfg.breaker.minSamples = 2;
        cfg.breaker.probeAfterSkips = 4;
        cfg.breaker.wedgeDecisions = 24;
        cfg.chaos = ChaosSpec::scripted(seed, kPods, kRequests);
        ServiceCluster cluster(distPtrs(pods), reg, cfg);

        std::vector<std::shared_ptr<BootstrapTicket>> tickets;
        for (size_t r = 0; r < kRequests; ++r) {
            tickets.push_back(
                cluster.submit(1 + r % kTenants, inputs[r % 4]));
        }
        cluster.drain();

        uint64_t completedWaits = 0, failedWaits = 0;
        for (auto& t : tickets) {
            try {
                (void)t->wait();
                ++completedWaits;
            } catch (const PodError&) {
                ++failedWaits;
            }
        }
        const ClusterMetrics m = cluster.metrics();
        EXPECT_EQ(completedWaits, m.requestsCompleted);
        EXPECT_EQ(failedWaits, m.requestsFailed);
        EXPECT_EQ(m.requestsCompleted, kRequests);
        EXPECT_EQ(m.requestsFailed, 0u);
        EXPECT_EQ(m.liveFlights, 0u);
        EXPECT_LE(m.failoverSucceeded + m.failoverExhausted,
                  m.failovers + m.requestsFailed);
        EXPECT_EQ(m.chaos.crashes, 1u);
        EXPECT_EQ(m.chaos.recoveries, 1u);
        EXPECT_EQ(m.chaos.wedges, 1u);
        EXPECT_EQ(m.chaos.unwedges, 1u);
        uint64_t admitted = 0;
        for (const TenantStats& ts : m.tenants) {
            EXPECT_EQ(ts.submitted, ts.completed + ts.failed) << ts.id;
            EXPECT_EQ(ts.inFlight, 0u) << ts.id;
            admitted += ts.submitted;
        }
        EXPECT_EQ(admitted, kRequests);
    }
}

} // namespace
} // namespace heap::serve
