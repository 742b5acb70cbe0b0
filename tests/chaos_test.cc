/**
 * @file
 * Cluster failure-domain tests: circuit-breaker state machine (trip,
 * probe cadence, probe cancellation, wedge detection), pod crash /
 * recover and injected-failure semantics, ticket double-wait
 * regression, scripted chaos determinism, request failover with exact
 * tenant accounting, deadline/brownout load shedding, and
 * breaker-driven routing around crashed and wedged pods.
 */

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"
#include "math/primes.h"
#include "serve/cluster.h"

namespace heap::serve {
namespace {

// Same miniature parameter set as serve_test.cc / cluster_test.cc.
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

ckks::Ciphertext
makeInput(const ckks::Context& ctx, ckks::Evaluator& ev, size_t r)
{
    std::vector<ckks::Complex> z;
    for (size_t i = 0; i < 16; ++i) {
        const double t = static_cast<double>(i);
        const double s = static_cast<double>(r);
        z.emplace_back(0.7 * std::cos(0.2 * t + 0.3 * s),
                       0.4 * std::sin(0.5 * t - 0.1 * s));
    }
    auto ct = ctx.encrypt(std::span<const ckks::Complex>(z));
    ev.dropToLevel(ct, 1);
    return ct;
}

/** One bootstrap straight on every pod (no tenant, no cluster books),
 *  so each pod has measured its lane time per item. */
void
warmPods(ServiceCluster& cluster, PodSet& pods)
{
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).submit(makeInput(*pods.ctx, *pods.ev, 100 + i))
            ->wait();
        ASSERT_GT(cluster.pod(i).msPerItem(), 0.0) << "pod " << i;
    }
}

// ---------------------------------------------------------------------
// CircuitBreaker unit tests (pure state machine, no pods).

BreakerConfig
tightBreaker()
{
    BreakerConfig c;
    c.window = 8;
    c.minSamples = 4;
    c.failureThreshold = 0.5;
    c.probeAfterSkips = 3;
    c.wedgeDecisions = 0; // wedge detection off unless a test wants it
    return c;
}

TEST(Breaker, TripsOnFailureRateThenProbesDeterministically)
{
    CircuitBreaker b(tightBreaker());
    EXPECT_EQ(b.state(), BreakerState::Closed);
    b.onOutcome(true, false);
    b.onOutcome(true, false);
    b.onOutcome(false, false);
    EXPECT_EQ(b.state(), BreakerState::Closed); // 1/3 under threshold
    b.onOutcome(false, false);                  // 2/4 hits 0.5
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.stats().opens, 1u);

    // Deterministic probe cadence: exactly probeAfterSkips skipped
    // decisions, then one probe admission.
    for (int i = 0; i < 3; ++i) {
        const auto g = b.gate();
        EXPECT_FALSE(g.admit) << "skip " << i;
    }
    const auto probe = b.gate();
    EXPECT_TRUE(probe.admit);
    EXPECT_TRUE(probe.probe);
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    EXPECT_EQ(b.stats().probes, 1u);

    // Probe success closes and clears the window.
    b.onOutcome(true, true);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.stats().closes, 1u);
    EXPECT_EQ(b.stats().windowCount, 0u);
}

TEST(Breaker, ProbeFailureReopensAndKeepsProbing)
{
    CircuitBreaker b(tightBreaker());
    for (int i = 0; i < 4; ++i) {
        b.onOutcome(false, false);
    }
    ASSERT_EQ(b.state(), BreakerState::Open);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(b.gate().admit);
    }
    ASSERT_TRUE(b.gate().probe);
    b.onOutcome(false, true); // probe failed
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.stats().opens, 2u);
    // The cadence restarts: another probeAfterSkips skips, then probe.
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(b.gate().admit);
    }
    EXPECT_TRUE(b.gate().probe);
}

TEST(Breaker, CancelledProbeRetriesOnNextDecision)
{
    CircuitBreaker b(tightBreaker());
    for (int i = 0; i < 4; ++i) {
        b.onOutcome(false, false);
    }
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(b.gate().admit);
    }
    ASSERT_TRUE(b.gate().probe);
    // The probe was never dispatched (pod full): the next routing
    // decision must probe again, not wait out a fresh skip budget.
    b.cancelProbe();
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_TRUE(b.gate().probe);
}

TEST(Breaker, WedgeDetectionOpensAndCompletionClears)
{
    BreakerConfig c = tightBreaker();
    c.wedgeDecisions = 5;
    CircuitBreaker b(c);
    // Backlog but no completions for wedgeDecisions decisions.
    for (int i = 0; i < 4; ++i) {
        b.noteDecision(true);
        EXPECT_EQ(b.state(), BreakerState::Closed);
    }
    b.noteDecision(true);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_TRUE(b.stats().wedged);
    EXPECT_EQ(b.stats().wedgeOpens, 1u);
    // A wedged pod is never probed — it would swallow the probe.
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(b.gate().admit);
    }
    // Any completion is progress: the wedge clears.
    b.onOutcome(true, false);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_FALSE(b.stats().wedged);
    EXPECT_GE(b.stats().closes, 1u);
}

TEST(Breaker, NoBacklogNeverWedges)
{
    BreakerConfig c = tightBreaker();
    c.wedgeDecisions = 3;
    CircuitBreaker b(c);
    for (int i = 0; i < 50; ++i) {
        b.noteDecision(false); // idle pod: staleness resets
    }
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.stats().wedgeOpens, 0u);
}

TEST(Breaker, MinSamplesGuardsAgainstEarlyTrip)
{
    CircuitBreaker b(tightBreaker()); // minSamples = 4
    b.onOutcome(false, false);
    b.onOutcome(false, false);
    b.onOutcome(false, false);
    EXPECT_EQ(b.state(), BreakerState::Closed)
        << "3 samples must not trip a minSamples=4 breaker";
}

// ---------------------------------------------------------------------
// HalfOpen canary fraction (halfOpenCanaryFraction > 0).

/** Trips the breaker and consumes the Open skip budget, so the next
 *  gate() is the episode's FIRST HalfOpen decision. */
void
tripAndSkipToHalfOpen(CircuitBreaker& b)
{
    for (int i = 0; i < 4; ++i) {
        b.onOutcome(false, false);
    }
    ASSERT_EQ(b.state(), BreakerState::Open);
    for (uint64_t i = 0; i < b.config().probeAfterSkips; ++i) {
        ASSERT_FALSE(b.gate().admit);
    }
}

TEST(Breaker, CanaryFractionAdmitsDeterministicStride)
{
    BreakerConfig c = tightBreaker();
    c.halfOpenCanaryFraction = 0.25;
    CircuitBreaker b(c);
    tripAndSkipToHalfOpen(b);
    // Decision-by-decision: the k-th HalfOpen decision probes when
    // ceil(k * 0.25) exceeds the admissions so far — decisions 1, 5,
    // 9, 13 probe, everything between routes around.
    for (int k = 1; k <= 13; ++k) {
        const auto g = b.gate();
        const bool shouldProbe = (k - 1) % 4 == 0;
        EXPECT_EQ(g.admit, shouldProbe) << "decision " << k;
        EXPECT_EQ(g.probe, shouldProbe) << "decision " << k;
        EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    }
    EXPECT_EQ(b.stats().probes, 4u);
    EXPECT_EQ(b.stats().probesInFlight, 4u);

    // The FIRST canary success closes the episode, with the other
    // three still flying.
    b.onOutcome(true, true);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.stats().closes, 1u);
    EXPECT_EQ(b.stats().probesInFlight, 0u);
    // Stragglers from the closed episode only feed the totals.
    b.onOutcome(true, true);
    b.onOutcome(false, true);
    EXPECT_EQ(b.state(), BreakerState::Closed);
    EXPECT_EQ(b.stats().closes, 1u);
    EXPECT_EQ(b.stats().opens, 1u);
}

TEST(Breaker, CanaryFailureReopensDespiteOthersInFlight)
{
    BreakerConfig c = tightBreaker();
    c.halfOpenCanaryFraction = 0.5;
    CircuitBreaker b(c);
    tripAndSkipToHalfOpen(b);
    // f = 0.5: decisions 1 and 3 probe, decision 2 routes around.
    EXPECT_TRUE(b.gate().probe);
    EXPECT_FALSE(b.gate().admit);
    EXPECT_TRUE(b.gate().probe);
    EXPECT_EQ(b.stats().probesInFlight, 2u);
    // ANY canary failure reopens, immediately.
    b.onOutcome(false, true);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.stats().opens, 2u);
    EXPECT_EQ(b.stats().probesInFlight, 0u);
    // The surviving canary's late success must not close the reopened
    // breaker — the new episode gets its own probes.
    b.onOutcome(true, true);
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.stats().closes, 0u);
    // And the reopened episode's cadence restarts from the top.
    for (uint64_t i = 0; i < c.probeAfterSkips; ++i) {
        EXPECT_FALSE(b.gate().admit);
    }
    EXPECT_TRUE(b.gate().probe);
}

TEST(Breaker, CanaryCancelRevertsOnlyWhenLastProbeCancelled)
{
    BreakerConfig c = tightBreaker();
    c.halfOpenCanaryFraction = 1.0;
    CircuitBreaker b(c);
    tripAndSkipToHalfOpen(b);
    // f = 1: every HalfOpen decision carries a canary.
    EXPECT_TRUE(b.gate().probe);
    EXPECT_TRUE(b.gate().probe);
    EXPECT_TRUE(b.gate().probe);
    EXPECT_EQ(b.stats().probesInFlight, 3u);
    // Cancelling while other canaries fly stays HalfOpen: they will
    // resolve the episode.
    b.cancelProbe();
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    b.cancelProbe();
    EXPECT_EQ(b.state(), BreakerState::HalfOpen);
    EXPECT_EQ(b.stats().probesInFlight, 1u);
    // Cancelling the LAST probe reverts to Open with the skip budget
    // refilled — the very next decision probes again.
    b.cancelProbe();
    EXPECT_EQ(b.state(), BreakerState::Open);
    EXPECT_EQ(b.stats().probesInFlight, 0u);
    EXPECT_TRUE(b.gate().probe);
}

TEST(Breaker, LegacyZeroFractionAdmitsOneProbeAtATime)
{
    CircuitBreaker b(tightBreaker()); // halfOpenCanaryFraction = 0
    tripAndSkipToHalfOpen(b);
    EXPECT_TRUE(b.gate().probe);
    // Exactly one probe outstanding: every further HalfOpen decision
    // routes around until it resolves.
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(b.gate().admit) << "decision " << i;
    }
    EXPECT_EQ(b.stats().probes, 1u);
    EXPECT_EQ(b.stats().probesInFlight, 1u);
    b.onOutcome(true, true);
    EXPECT_EQ(b.state(), BreakerState::Closed);
}

TEST(Breaker, CanaryFractionValidated)
{
    BreakerConfig c = tightBreaker();
    c.halfOpenCanaryFraction = 1.5;
    EXPECT_THROW(CircuitBreaker{c}, UserError);
    c.halfOpenCanaryFraction = -0.1;
    EXPECT_THROW(CircuitBreaker{c}, UserError);
}

// ---------------------------------------------------------------------
// Chaos schedule determinism.

TEST(Chaos, ScriptedScheduleIsSeedDeterministic)
{
    const ChaosSpec a = ChaosSpec::scripted(42, 3, 24);
    const ChaosSpec b = ChaosSpec::scripted(42, 3, 24);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].pod, b.events[i].pod);
        EXPECT_EQ(a.events[i].atSubmit, b.events[i].atSubmit);
        EXPECT_EQ(a.events[i].count, b.events[i].count);
    }
    // A different seed must produce a different schedule.
    const ChaosSpec c = ChaosSpec::scripted(43, 3, 24);
    bool differs = c.events.size() != a.events.size();
    for (size_t i = 0; !differs && i < a.events.size(); ++i) {
        differs = a.events[i].pod != c.events[i].pod
                  || a.events[i].atSubmit != c.events[i].atSubmit;
    }
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// Pod-level crash / recover and fault injection.

// The pod fault alphabet is one implementation for every workload,
// so its tests run on a bootstrap pod and on a PIR pod alike. A rig
// builds a pod of its workload and its r-th request.

struct BootstrapRig {
    PodSet pods = makePods(7, 1, 1);

    std::unique_ptr<BootstrapService>
    service(size_t workers)
    {
        ServiceConfig cfg;
        cfg.workers = workers;
        return std::make_unique<BootstrapService>(*pods.dists[0], cfg);
    }

    ckks::Ciphertext
    input(size_t r)
    {
        return makeInput(*pods.ctx, *pods.ev, r);
    }
};

struct PirRig {
    pir::PirParams params;
    std::unique_ptr<pir::PirServer> server;
    std::vector<std::shared_ptr<const pir::PirQuery>> queries;

    PirRig()
    {
        const size_t n = 64;
        params.basis = std::make_shared<math::RnsBasis>(
            n, math::generateNttPrimes(30, n, 2));
        params.limbs = 2;
        params.dims = {8, 8};
        params.entries = 64;
        params.gadget =
            rlwe::GadgetParams{.baseBits = 5, .digitsPerLimb = 6};
        Rng rng(7);
        const auto sk = rlwe::SecretKey::sampleTernary(params.basis, rng);
        server = std::make_unique<pir::PirServer>(
            params, pir::randomDatabase(params, 7));
        const pir::PirClient client(params, sk);
        for (size_t r = 0; r < 10; ++r) {
            queries.push_back(std::make_shared<const pir::PirQuery>(
                client.makeQuery(r * 7 % params.entries, rng)));
        }
    }

    std::unique_ptr<PirService>
    service(size_t workers)
    {
        return std::make_unique<PirService>(
            *server, ServiceConfig{.workers = workers});
    }

    std::shared_ptr<const pir::PirQuery>
    input(size_t r)
    {
        return queries.at(r);
    }
};

template <typename Rig>
void
crashFailsLiveWorkAndRejectsUntilRecover(Rig& rig)
{
    auto svc = rig.service(2);

    svc->pause(); // hold the requests so the crash provably hits them
    std::vector<decltype(svc->submit(rig.input(0)))> tickets;
    for (size_t r = 0; r < 3; ++r) {
        tickets.push_back(svc->submit(rig.input(r)));
    }
    svc->crash();
    for (auto& t : tickets) {
        EXPECT_THROW(t->wait(), PodError);
    }
    // Intake rejects while crashed.
    EXPECT_THROW(svc->submit(rig.input(9)), UserError);
    svc->recover();
    svc->resume();
    auto ok = svc->submit(rig.input(4));
    EXPECT_NO_THROW(ok->wait());
    const ServiceMetrics m = svc->metrics();
    EXPECT_EQ(m.crashes, 1u);
    EXPECT_EQ(m.failed, 3u);
    EXPECT_EQ(m.completed, 1u);
}

TEST(ServiceChaos, CrashFailsLiveWorkAndRejectsUntilRecover)
{
    BootstrapRig boot;
    crashFailsLiveWorkAndRejectsUntilRecover(boot);
    PirRig lookup;
    crashFailsLiveWorkAndRejectsUntilRecover(lookup);
}

template <typename Rig>
void
injectedFailuresHitTheNextRequests(Rig& rig)
{
    auto svc = rig.service(1);
    svc->injectFailures(2);
    auto t1 = svc->submit(rig.input(0));
    auto t2 = svc->submit(rig.input(1));
    auto t3 = svc->submit(rig.input(2));
    EXPECT_THROW(t1->wait(), PodError);
    EXPECT_THROW(t2->wait(), PodError);
    EXPECT_NO_THROW(t3->wait());
    const ServiceMetrics m = svc->metrics();
    EXPECT_EQ(m.injectedFailures, 2u);
    EXPECT_EQ(m.failed, 2u);
    EXPECT_EQ(m.completed, 1u);
}

TEST(ServiceChaos, InjectedFailuresHitTheNextRequests)
{
    BootstrapRig boot;
    injectedFailuresHitTheNextRequests(boot);
    PirRig lookup;
    injectedFailuresHitTheNextRequests(lookup);
}

// Regression: wait() used to dereference a moved-out optional on the
// second call (UB). It must throw a clear UserError instead, while a
// FAILED ticket keeps rethrowing its original error on every wait().
TEST(ServiceChaos, TicketDoubleWaitThrowsUserError)
{
    auto pods = makePods(7, 1, 1);
    BootstrapService svc(*pods.dists[0], {});
    auto t = svc.submit(makeInput(*pods.ctx, *pods.ev, 0));
    EXPECT_NO_THROW(t->wait());
    EXPECT_THROW(t->wait(), UserError);

    svc.injectFailures(1);
    auto f = svc.submit(makeInput(*pods.ctx, *pods.ev, 1));
    EXPECT_THROW(f->wait(), PodError);
    EXPECT_THROW(f->wait(), PodError); // error is re-thrown, not UserError
}

// ---------------------------------------------------------------------
// Cluster failover, shedding, and breaker-driven routing.

TEST(ClusterChaos, FailoverCompletesOnAnotherPodWithExactAccounting)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ServiceCluster cluster(distPtrs(pods), reg, {});
    const size_t pref = cluster.preferredPod(1);

    cluster.pod(pref).injectFailures(1);
    auto t = cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 0));
    EXPECT_NO_THROW(t->wait());
    const RequestReport rep = t->report();
    EXPECT_EQ(rep.attempts, 2u);
    EXPECT_EQ(rep.servedPod, static_cast<int>(1 - pref));
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.requestsCompleted, 1u);
    EXPECT_EQ(m.requestsFailed, 0u);
    EXPECT_EQ(m.failovers, 1u);
    EXPECT_EQ(m.failoverSucceeded, 1u);
    EXPECT_EQ(m.liveFlights, 0u);
    // Exactly one admission, settled exactly once, despite 2 attempts.
    const TenantStats ts = reg.stats(1);
    EXPECT_EQ(ts.submitted, 1u);
    EXPECT_EQ(ts.completed, 1u);
    EXPECT_EQ(ts.failed, 0u);
    EXPECT_EQ(ts.inFlight, 0u);
    // The failover landed cache-cold on the other pod: both caches
    // saw the tenant's keys.
    EXPECT_GE(cluster.keyCache(pref).stats().misses, 1u);
    EXPECT_GE(cluster.keyCache(1 - pref).stats().misses, 1u);
}

TEST(ClusterChaos, FailoverBudgetExhaustionIsTerminal)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ClusterConfig cfg;
    cfg.failover.maxAttempts = 1; // failover disabled
    ServiceCluster cluster(distPtrs(pods), reg, cfg);

    cluster.pod(cluster.preferredPod(1)).injectFailures(1);
    auto t = cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 0));
    EXPECT_THROW(t->wait(), PodError);
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.requestsFailed, 1u);
    EXPECT_EQ(m.failoverExhausted, 1u);
    EXPECT_EQ(m.failovers, 0u);
    const TenantStats ts = reg.stats(1);
    EXPECT_EQ(ts.completed, 0u);
    EXPECT_EQ(ts.failed, 1u);
    EXPECT_EQ(ts.inFlight, 0u);
}

TEST(ClusterChaos, FailoverAbandonedWhenBudgetIsBelowOneRequest)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ServiceCluster cluster(distPtrs(pods), reg, {});
    const size_t pref = cluster.preferredPod(1);

    // Warm the tenant's preferred pod with one completed request.
    auto warm = cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 0));
    EXPECT_NO_THROW(warm->wait());
    const double requestMs =
        static_cast<double>(cluster.itemsPerRequest())
        * cluster.pod(pref).msPerItem();
    ASSERT_GT(requestMs, 0.0);

    // The preferred pod fails the next request; its whole deadline is
    // half a measured request, so a retry could only miss: the
    // failure is terminal, with no re-dispatch.
    cluster.pod(pref).injectFailures(1);
    SubmitOptions tight;
    tight.deadlineMs = requestMs / 2;
    auto t = cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 1), tight);
    EXPECT_THROW(t->wait(), PodError);
    EXPECT_EQ(t->report().attempts, 1u);
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.requestsCompleted, 1u);
    EXPECT_EQ(m.requestsFailed, 1u);
    EXPECT_EQ(m.failovers, 0u);
    EXPECT_EQ(m.failoverExhausted, 1u);
    EXPECT_EQ(m.liveFlights, 0u);
    const TenantStats ts = reg.stats(1);
    EXPECT_EQ(ts.submitted, 2u);
    EXPECT_EQ(ts.completed, 1u);
    EXPECT_EQ(ts.failed, 1u);
    EXPECT_EQ(ts.inFlight, 0u);
    for (const uint64_t items : m.podOutstandingItems) {
        EXPECT_EQ(items, 0u);
    }
}

TEST(ClusterChaos, DeadlineShedRejectsNegativeSlack)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ClusterConfig cfg;
    cfg.shedding.enabled = true;
    cfg.shedding.slackFactor = 1.0;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    warmPods(cluster, pods);

    // A request costs n items at the pods' measured rate, far above
    // 0.01 ms: that deadline has negative slack even on an idle pod
    // and must be shed BEFORE any admission.
    SubmitOptions tight;
    tight.deadlineMs = 0.01;
    EXPECT_THROW(
        cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 0), tight),
        UserError);
    // A generous deadline passes.
    SubmitOptions loose;
    loose.deadlineMs = 60000.0;
    auto t =
        cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 1), loose);
    EXPECT_NO_THROW(t->wait());
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.rejectedShedDeadline, 1u);
    EXPECT_EQ(m.rejectedShedBrownout, 0u);
    const TenantStats ts = reg.stats(1);
    EXPECT_EQ(ts.rejectedShed, 1u);
    // The shed never touched the admission accounting.
    EXPECT_EQ(ts.submitted, 1u);
    EXPECT_EQ(ts.inFlight, 0u);
}

TEST(ClusterChaos, DeadlineShedIgnoresCrashedPods)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ClusterConfig cfg;
    cfg.shedding.enabled = true;
    cfg.shedding.slackFactor = 1.0;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    warmPods(cluster, pods);
    const size_t down = cluster.preferredPod(1);
    const size_t up = 1 - down;
    const auto requestMs = [&](size_t pod) {
        return static_cast<double>(cluster.itemsPerRequest())
               * cluster.pod(pod).msPerItem();
    };

    // The tenant's preferred pod is down with an empty load table;
    // the only usable pod is held with four requests outstanding.
    cluster.pod(down).crash();
    cluster.pod(up).pause();
    SubmitOptions loose;
    loose.deadlineMs = 60000.0;
    std::vector<std::shared_ptr<BootstrapTicket>> held;
    for (uint64_t s = 0; s < 4; ++s) {
        held.push_back(
            cluster.submit(1, makeInput(*pods.ctx, *pods.ev, s), loose));
    }
    ASSERT_EQ(cluster.metrics().podOutstandingItems[up],
              4 * cluster.itemsPerRequest());

    // The crashed pod would finish this deadline in time, the usable
    // one, five requests deep, would not: it is shed.
    SubmitOptions tight;
    tight.deadlineMs = 1.1 * requestMs(down);
    ASSERT_LT(*tight.deadlineMs, 5 * requestMs(up));
    EXPECT_THROW(
        cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 9), tight),
        UserError);
    cluster.pod(up).resume();
    for (const auto& t : held) {
        EXPECT_NO_THROW(t->wait());
    }
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.rejectedShedDeadline, 1u);
    EXPECT_EQ(m.requestsCompleted, 4u);
    const TenantStats ts = reg.stats(1);
    EXPECT_EQ(ts.rejectedShed, 1u);
    EXPECT_EQ(ts.submitted, 4u);
    EXPECT_EQ(ts.inFlight, 0u);
}

TEST(ClusterChaos, BrownoutShedsLowPriorityUnderOverload)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ClusterConfig cfg;
    cfg.shedding.enabled = true;
    cfg.shedding.brownoutLoadMs = 0.1; // any outstanding work trips it
    cfg.shedding.brownoutMinPriority = 1;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    // Outstanding items weigh their measured cost: a cold pod's weigh
    // nothing.
    warmPods(cluster, pods);

    // Hold the pods so the load stays outstanding.
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).pause();
    }
    SubmitOptions high;
    high.priority = 2;
    auto t1 =
        cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 0), high);
    // Low-priority work is browned out while load is outstanding...
    SubmitOptions low;
    low.priority = 0;
    EXPECT_THROW(
        cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 1), low),
        UserError);
    // ...but priority at/above the floor still gets in.
    auto t2 =
        cluster.submit(1, makeInput(*pods.ctx, *pods.ev, 2), high);
    for (size_t i = 0; i < cluster.podCount(); ++i) {
        cluster.pod(i).resume();
    }
    EXPECT_NO_THROW(t1->wait());
    EXPECT_NO_THROW(t2->wait());
    cluster.drain();

    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.rejectedShedBrownout, 1u);
    EXPECT_EQ(m.requestsCompleted, 2u);
    EXPECT_EQ(reg.stats(1).rejectedShed, 1u);
    EXPECT_EQ(reg.stats(1).inFlight, 0u);
}

TEST(ClusterChaos, BreakerOpensOnCrashedPodAndReclosesAfterRecovery)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ClusterConfig cfg;
    cfg.breaker.window = 4;
    cfg.breaker.minSamples = 2;
    cfg.breaker.failureThreshold = 0.5;
    cfg.breaker.probeAfterSkips = 2;
    cfg.breaker.wedgeDecisions = 0;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    const size_t pref = cluster.preferredPod(1);

    cluster.pod(pref).crash();
    // Sequential submissions: each routing decision observes the
    // crash deterministically, trips the breaker after minSamples,
    // probes after probeAfterSkips, and every request still completes
    // on the healthy pod.
    for (size_t r = 0; r < 5; ++r) {
        auto t = cluster.submit(1, makeInput(*pods.ctx, *pods.ev, r));
        ASSERT_NO_THROW(t->wait()) << "request " << r;
        EXPECT_EQ(t->report().servedPod,
                  static_cast<int>(1 - pref));
    }
    {
        const BreakerStats bs = cluster.breakerStats(pref);
        EXPECT_EQ(bs.state, BreakerState::Open);
        EXPECT_GE(bs.opens, 1u);
        EXPECT_GE(bs.skippedRouting, 1u);
    }
    cluster.pod(pref).recover();
    // Keep submitting: the probe cadence re-tests the pod, the probe
    // succeeds, and the breaker re-closes.
    bool reclosed = false;
    for (size_t r = 5; r < 15 && !reclosed; ++r) {
        auto t = cluster.submit(1, makeInput(*pods.ctx, *pods.ev, r));
        ASSERT_NO_THROW(t->wait());
        reclosed =
            cluster.breakerStats(pref).state == BreakerState::Closed;
    }
    EXPECT_TRUE(reclosed) << "breaker never re-closed after recovery";
    EXPECT_GE(cluster.breakerStats(pref).probes, 1u);
    EXPECT_GE(cluster.breakerStats(pref).closes, 1u);
    cluster.drain();
    const ClusterMetrics m = cluster.metrics();
    EXPECT_EQ(m.requestsFailed, 0u);
    EXPECT_EQ(reg.stats(1).inFlight, 0u);
}

TEST(ClusterChaos, WedgedPodIsDetectedAndRoutedAround)
{
    auto pods = makePods(7, 2, 1);
    TenantRegistry reg;
    reg.registerTenant({.id = 1, .name = "t1"});
    ClusterConfig cfg;
    cfg.breaker.wedgeDecisions = 3;
    ServiceCluster cluster(distPtrs(pods), reg, cfg);
    const size_t pref = cluster.preferredPod(1);

    // Wedge the preferred pod BEFORE any submission so the first
    // requests deterministically sit in it (pause stops processing,
    // not intake).
    cluster.pod(pref).pause();
    // Routing decision 1 sees no backlog anywhere (a pod with no
    // outstanding work cannot be wedged) and lands on the preferred
    // pod, where the request sits. Decisions 2 and 3 see the backlog
    // but are still under the wedgeDecisions staleness budget, so
    // they land there too; decision 4 crosses it, declares the pod
    // wedged, and routes around it from then on.
    std::vector<std::shared_ptr<BootstrapTicket>> tickets;
    for (size_t r = 0; r < 6; ++r) {
        tickets.push_back(
            cluster.submit(1, makeInput(*pods.ctx, *pods.ev, r)));
    }
    {
        const BreakerStats bs = cluster.breakerStats(pref);
        EXPECT_TRUE(bs.wedged);
        EXPECT_EQ(bs.wedgeOpens, 1u);
    }
    // Unwedging lets the held requests finish; completions clear the
    // wedge.
    cluster.pod(pref).resume();
    for (auto& t : tickets) {
        EXPECT_NO_THROW(t->wait());
    }
    cluster.drain();
    EXPECT_EQ(tickets[0]->report().servedPod, static_cast<int>(pref));
    EXPECT_EQ(tickets[5]->report().servedPod,
              static_cast<int>(1 - pref))
        << "post-detection submissions must route around the wedge";
    const BreakerStats bs = cluster.breakerStats(pref);
    EXPECT_FALSE(bs.wedged);
    EXPECT_EQ(cluster.metrics().requestsFailed, 0u);
    EXPECT_EQ(reg.stats(1).inFlight, 0u);
}

} // namespace
} // namespace heap::serve
