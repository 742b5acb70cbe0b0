#include "serve/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace heap::serve {

namespace {

/** splitmix64 finalizer: a fixed, platform-independent mix so the
 *  tenant -> pod map is stable across runs and hosts. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

ServiceCluster::ServiceCluster(
    std::vector<boot::DistributedBootstrapper*> pods,
    TenantRegistry& registry, ClusterConfig cfg)
    : registry_(&registry),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now())
{
    HEAP_CHECK(!pods.empty(), "cluster with no pods");
    for (const auto* p : pods) {
        HEAP_CHECK(p != nullptr, "null pod bootstrapper");
    }
    HEAP_CHECK(cfg_.failover.maxAttempts >= 1,
               "failover needs at least one attempt");
    HEAP_CHECK(cfg_.failover.backoffMs >= 0,
               "negative failover backoff");
    const size_t n = pods[0]->context().basis()->n();
    for (const auto* p : pods) {
        HEAP_CHECK(p->context().basis()->n() == n,
                   "pods disagree on the ring dimension");
    }
    // A tenant that declares no key footprint is charged the keys its
    // class reads: the pods' bootstrapping keys (every pod holds the
    // same set), or a lookup's query, whose RGSW bits are its keys.
    classes_[kBootstrap].items = n;
    classes_[kBootstrap].keyBytes = pods[0]->keys().bytes();
    if (cfg_.pirServer != nullptr) {
        const pir::PirParams& pp = cfg_.pirServer->params();
        classes_[kLookup].items = pp.firstDimGroups();
        classes_[kLookup].keyBytes = pp.queryBytes();
    }
    for (auto* p : pods) {
        tables_[kBootstrap].push_back(
            std::make_unique<BootstrapService>(*p, cfg_.pod));
        if (cfg_.pirServer != nullptr) {
            tables_[kLookup].push_back(std::make_unique<PirService>(
                *cfg_.pirServer, cfg_.pirPod));
        }
        caches_.push_back(std::make_unique<BootstrappingKeyCache>(
            cfg_.keyCacheBytes));
        breakers_.emplace_back(cfg_.breaker);
    }
    podItems_.assign(pods.size(), {});
    retryGateMs_.assign(pods.size(), 0.0);
    if (cfg_.chaos) {
        chaos_ = std::make_unique<ChaosEngine>(*cfg_.chaos);
    }
    failoverThread_ = std::thread([this] { failoverLoop(); });
}

ServiceCluster::~ServiceCluster()
{
    shutdown();
}

double
ServiceCluster::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

size_t
ServiceCluster::preferredPod(uint64_t tenantId) const
{
    return static_cast<size_t>(mix64(tenantId) % podCount());
}

BreakerStats
ServiceCluster::breakerStats(size_t i) const
{
    std::lock_guard<std::mutex> lock(m_);
    return breakers_.at(i).stats();
}

uint64_t
ServiceCluster::podItemsLocked(size_t pod) const
{
    return podItems_[pod][kBootstrap] + podItems_[pod][kLookup];
}

double
ServiceCluster::requestMs(size_t cls, size_t pod) const
{
    return static_cast<double>(classes_[cls].items)
           * tables_[cls][pod]->msPerItem();
}

double
ServiceCluster::podLoadMsLocked(size_t pod) const
{
    double ms = 0;
    for (size_t k = 0; k < kClasses; ++k) {
        if (podItems_[pod][k] != 0) {
            ms += static_cast<double>(podItems_[pod][k])
                  * tables_[k][pod]->msPerItem();
        }
    }
    return ms;
}

std::vector<ServiceCluster::Candidate>
ServiceCluster::routeCandidates(uint64_t tenantId, bool gateHealth)
{
    const size_t preferred = preferredPod(tenantId);
    std::vector<Candidate> cands;
    cands.reserve(podCount());
    {
        std::lock_guard<std::mutex> lock(m_);
        if (gateHealth) {
            for (size_t i = 0; i < podCount(); ++i) {
                breakers_[i].noteDecision(podItemsLocked(i) != 0);
            }
            for (size_t i = 0; i < podCount(); ++i) {
                const CircuitBreaker::Gate g = breakers_[i].gate();
                if (g.admit) {
                    cands.push_back(
                        Candidate{i, g.probe, podItemsLocked(i)});
                }
            }
        } else {
            // Failover re-dispatch: breaker state is driven ONLY by
            // client routing decisions and attempt outcomes, both
            // deterministic in count — the failover thread's sweeps
            // are timing-dependent and must not tick the skip or
            // staleness counters. Retries consider every pod (the
            // dispatch loop skips crashed/full ones) so an all-open
            // moment cannot strand a flight.
            for (size_t i = 0; i < podCount(); ++i) {
                cands.push_back(Candidate{i, false, podItemsLocked(i)});
            }
        }
    }
    // Sort OUTSIDE the lock, over the load snapshot taken under it:
    // probes first (carrying the probe is how an open breaker ever
    // observes recovery), then the tenant's preferred pod, then the
    // rest by ascending outstanding items.
    std::stable_sort(cands.begin(), cands.end(),
                     [&](const Candidate& a, const Candidate& b) {
                         if (a.probe != b.probe) {
                             return a.probe;
                         }
                         const bool ap = a.pod == preferred;
                         const bool bp = b.pod == preferred;
                         if (ap != bp) {
                             return ap;
                         }
                         return a.items < b.items;
                     });
    return cands;
}

ServiceCluster::Dispatch
ServiceCluster::tryDispatch(const std::shared_ptr<Flight>& flight,
                            bool isRetry)
{
    std::vector<Candidate> cands =
        routeCandidates(flight->tenantId, /*gateHealth=*/!isRetry);
    if (cands.empty()) {
        return Dispatch::NoHealthy;
    }
    if (isRetry && flight->lastPod >= 0 && cands.size() > 1) {
        // "The next healthy candidate": the pod that just failed the
        // request goes last, not first — it stays eligible only as
        // the final fallback.
        std::stable_partition(
            cands.begin(), cands.end(), [&](const Candidate& c) {
                return static_cast<int>(c.pod) != flight->lastPod;
            });
    }
    const size_t preferred = preferredPod(flight->tenantId);
    const size_t items = classes_[flight->cls].items;
    for (size_t c = 0; c < cands.size(); ++c) {
        const size_t podIdx = cands[c].pod;
        const bool probe = cands[c].probe;
        Pod& pod = *tables_[flight->cls][podIdx];
        if (pod.crashed()) {
            if (!isRetry) {
                // Observing a crash at a routing decision IS a health
                // outcome: it opens the breaker without waiting for
                // live requests to fail, and resolves a probe as
                // failed (the pod has not recovered), keeping the
                // probe cadence. Retry sweeps skip silently (see
                // routeCandidates).
                std::lock_guard<std::mutex> lock(m_);
                breakers_[podIdx].onOutcome(/*ok=*/false, probe);
            }
            continue;
        }
        if (pod.full()) {
            // Full is not unhealthy: release the probe (if any) so
            // the next routing decision re-probes, and move on.
            if (probe) {
                std::lock_guard<std::mutex> lock(m_);
                breakers_[podIdx].cancelProbe();
            }
            continue;
        }
        std::unique_ptr<PodRequest> req = flight->newRequest();
        req->opts = flight->baseOpts;
        if (std::isfinite(flight->deadlineAbsMs)) {
            // Re-base the deadline on the remaining cluster budget so
            // a failed-over attempt keeps an honest EDF position.
            req->opts.deadlineMs =
                std::max(0.0, flight->deadlineAbsMs - nowMs());
        }
        req->relay = [this, flight, podIdx,
                      probe](RequestReport& rep,
                             const std::exception_ptr& err) {
            return onAttemptDone(flight, podIdx, probe, rep, err);
        };
        req->opts.onDone = [this, flight](const RequestReport& rep,
                                          bool ok) {
            flightDone(flight, rep, ok);
        };
        {
            // Charge the load and count the attempt before the pod
            // can complete it: the relay's refund then always
            // balances, and its attempts read is never stale.
            std::lock_guard<std::mutex> lock(m_);
            podItems_[podIdx][flight->cls] += items;
            ++flight->attempts;
        }
        try {
            pod.submitRequest(std::move(req));
        } catch (const UserError&) {
            // Lost the admission race (the pod filled or crashed
            // between the probe above and submit): refund and try the
            // next candidate. The request never ran, so this is the
            // only accounting path for the attempt.
            std::lock_guard<std::mutex> lock(m_);
            podItems_[podIdx][flight->cls] -= items;
            --flight->attempts;
            if (probe) {
                breakers_[podIdx].cancelProbe();
            }
            continue;
        }
        // The attempt is on exactly one pod: account the key touch
        // (a failover lands cache-cold on the new pod — a real,
        // counted key-traffic event) and the routing outcome.
        caches_[podIdx]->touch(flight->tenantId, flight->keyBytes);
        {
            std::lock_guard<std::mutex> lock(m_);
            if (!isRetry) {
                if (podIdx == preferred) {
                    ++routedPreferred_;
                } else {
                    ++spilled_;
                }
            }
            // Probe admissions further down the candidate list were
            // never carried: revert them so the next routing decision
            // probes again.
            for (size_t r = c + 1; r < cands.size(); ++r) {
                if (cands[r].probe) {
                    breakers_[cands[r].pod].cancelProbe();
                }
            }
        }
        return Dispatch::Placed;
    }
    return Dispatch::NoRoom;
}

bool
ServiceCluster::onAttemptDone(const std::shared_ptr<Flight>& flight,
                              size_t podIdx, bool probe,
                              RequestReport& rep,
                              const std::exception_ptr& err)
{
    // May run under the pod's lock: cluster lock, registry, and
    // ticket locks only — never back into a pod.
    uint32_t attempts = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        podItems_[podIdx][flight->cls] -= classes_[flight->cls].items;
        breakers_[podIdx].onOutcome(err == nullptr, probe);
        attempts = flight->attempts;
    }
    bool retryable = false;
    if (err) {
        try {
            std::rethrow_exception(err);
        } catch (const PodError&) {
            retryable = true;
        } catch (...) {
            // UserError / InternalError / anything else would fail
            // identically on every replica: terminal.
        }
    }
    bool deadlineOk = true;
    if (cfg_.failover.respectDeadline
        && std::isfinite(flight->deadlineAbsMs)) {
        deadlineOk = nowMs() + requestMs(flight->cls, podIdx)
                     <= flight->deadlineAbsMs;
    }
    if (retryable && attempts < cfg_.failover.maxAttempts
        && deadlineOk) {
        flight->lastPod = static_cast<int>(podIdx);
        {
            std::lock_guard<std::mutex> lock(m_);
            ++failovers_;
        }
        {
            // Never re-dispatch from here — this relay may hold the
            // failing pod's lock, and submitting to another pod nests
            // pod locks (deadlock). The failover thread re-dispatches.
            // A retry's own gate would open microseconds after the
            // previous one's, and a sweep that wakes at the earlier
            // gate would split the pod's backlog: join the pod's gate
            // while it is closed (see FailoverPolicy::backoffMs).
            std::lock_guard<std::mutex> lock(retryM_);
            const double now = nowMs();
            double& gate = retryGateMs_[podIdx];
            if (gate <= now) {
                gate = now + cfg_.failover.backoffMs;
            }
            retryQ_.push_back(Retry{flight, err, gate});
        }
        retryCv_.notify_all();
        return false;
    }
    settleFlight(flight, rep, static_cast<int>(podIdx), err == nullptr,
                 /*exhausted=*/retryable);
    return true;
}

void
ServiceCluster::settleFlight(const std::shared_ptr<Flight>& flight,
                             RequestReport& rep, int podIdx, bool ok,
                             bool exhausted)
{
    const double now = nowMs();
    rep.servedPod = podIdx;
    rep.totalMs = now - flight->submitMs;
    if (std::isfinite(flight->deadlineAbsMs)) {
        rep.deadlineMissed = now > flight->deadlineAbsMs;
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        rep.attempts = flight->attempts;
        ClassInfo& k = classes_[flight->cls];
        ++(ok ? k.completed : k.failed);
        if (ok && flight->attempts > 1) {
            ++failoverSucceeded_;
        }
        if (exhausted) {
            ++failoverExhausted_;
        }
    }
    // Exactly one registry completion per logical request, at the
    // terminal outcome — attempts in between were invisible to the
    // tenant accounting (admit/refund conservation).
    registry_->onComplete(flight->tenantId, classes_[flight->cls].items,
                          ok);
}

void
ServiceCluster::flightDone(const std::shared_ptr<Flight>& flight,
                           const RequestReport& rep, bool ok)
{
    if (flight->userDone) {
        flight->userDone(rep, ok);
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        HEAP_ASSERT(liveFlights_ >= 1, "settle without a live flight");
        --liveFlights_;
    }
    settleCv_.notify_all();
}

void
ServiceCluster::failUnplaced(const std::shared_ptr<Flight>& flight,
                             std::exception_ptr err)
{
    RequestReport rep;
    rep.id = flight->seq;
    settleFlight(flight, rep, -1, /*ok=*/false, /*exhausted=*/true);
    flight->newRequest()->settle(std::move(err), rep);
    flightDone(flight, rep, false);
}

void
ServiceCluster::failoverLoop()
{
    std::unique_lock<std::mutex> lock(retryM_);
    for (;;) {
        retryCv_.wait(lock,
                      [&] { return stopRetry_ || !retryQ_.empty(); });
        if (retryQ_.empty()) {
            if (stopRetry_) {
                return;
            }
            continue;
        }
        const bool stopping = stopRetry_;
        const double now = nowMs();
        // Sweep: drain EVERY due retry at once instead of popping one
        // per wakeup — under a pod crash the queue holds that pod's
        // whole backlog, and a per-retry wakeup/dispatch round trip
        // each would serialize the recovery. Not-yet-due retries stay
        // queued; the earliest backoff gate bounds the next sleep.
        std::vector<Retry> sweep;
        double nextDueMs = std::numeric_limits<double>::infinity();
        {
            std::deque<Retry> notDue;
            while (!retryQ_.empty()) {
                Retry r = std::move(retryQ_.front());
                retryQ_.pop_front();
                if (!stopping && r.notBeforeMs > now) {
                    nextDueMs = std::min(nextDueMs, r.notBeforeMs);
                    notDue.push_back(std::move(r));
                } else {
                    sweep.push_back(std::move(r));
                }
            }
            retryQ_ = std::move(notDue);
        }
        if (sweep.empty()) {
            // Backoff gate: sleep until the earliest opens (or new
            // work / shutdown wakes us).
            retryCv_.wait_for(lock,
                              std::chrono::duration<double, std::milli>(
                                  nextDueMs - now));
            continue;
        }
        // Group the sweep per last-failed pod (stable, so enqueue
        // order is preserved within a group): a crashed pod's whole
        // backlog re-dispatches as one contiguous batch, and each
        // group's "failed pod goes last" candidate order stays
        // coherent across its members. Per-retry admission and
        // refund accounting is untouched — tryDispatch charges and
        // refunds exactly as the one-at-a-time loop did.
        std::stable_sort(sweep.begin(), sweep.end(),
                         [](const Retry& a, const Retry& b) {
                             return a.flight->lastPod
                                    < b.flight->lastPod;
                         });
        {
            std::lock_guard<std::mutex> cl(m_);
            ++failoverSweeps_;
            maxRetryBatch_ = std::max(maxRetryBatch_, sweep.size());
        }
        lock.unlock();
        std::vector<Retry> requeue;
        for (Retry& r : sweep) {
            if (stopping) {
                // Pods are shut down: nothing can carry the retry.
                failUnplaced(r.flight, r.lastError);
                continue;
            }
            if (tryDispatch(r.flight, /*isRetry=*/true)
                != Dispatch::Placed) {
                const Flight& f = *r.flight;
                bool abandon = false;
                if (cfg_.failover.respectDeadline
                    && std::isfinite(f.deadlineAbsMs)) {
                    const size_t last = static_cast<size_t>(f.lastPod);
                    abandon = nowMs() + requestMs(f.cls, last)
                              > f.deadlineAbsMs;
                }
                if (abandon) {
                    failUnplaced(r.flight, r.lastError);
                } else {
                    // No pod can take it right now (full, crashed,
                    // or breaker-open). Room opens as pods drain or
                    // chaos recovers them: re-enqueue with a small
                    // pacing delay instead of spinning.
                    r.notBeforeMs =
                        nowMs()
                        + std::max(cfg_.failover.backoffMs, 0.2);
                    requeue.push_back(std::move(r));
                }
            }
        }
        lock.lock();
        for (Retry& r : requeue) {
            retryQ_.push_back(std::move(r));
        }
    }
}

void
ServiceCluster::submitFlight(
    uint64_t tenantId, size_t cls,
    std::function<std::unique_ptr<PodRequest>()> newRequest,
    SubmitOptions opts)
{
    HEAP_CHECK(tenantId != 0, "tenant id 0 is reserved");
    auto flight = std::make_shared<Flight>();
    flight->tenantId = tenantId;
    flight->cls = cls;
    flight->newRequest = std::move(newRequest);
    const TenantSpec& spec = registry_->spec(tenantId);
    // Key-cache charge: the tenant's declared footprint, else its
    // class's key bytes. Validated before admission so a
    // misconfigured tenant cannot leak an in-flight slot or poison
    // the candidate loop.
    const size_t keyBytes =
        spec.keyBytes != 0 ? spec.keyBytes : classes_[cls].keyBytes;
    HEAP_CHECK(keyBytes <= cfg_.keyCacheBytes,
               "tenant " << tenantId << " key footprint (" << keyBytes
                         << " B) exceeds the pod key cache ("
                         << cfg_.keyCacheBytes << " B)");
    flight->keyBytes = keyBytes;

    // The chaos schedule advances on the submission counter — BEFORE
    // routing, so "crash pod 0 before the 12th submit" is observed by
    // the 12th submit's routing decision. Both tenant classes drive
    // the same counter: a mixed workload's fault interleaving is
    // still a pure function of the submission order.
    uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(m_);
        seq = ++submitSeq_;
    }
    if (chaos_) {
        chaos_->advance(seq, tables_);
    }
    flight->seq = seq;

    const int effPriority = opts.priority + spec.priority;
    if (cfg_.shedding.enabled) {
        // Outstanding items priced at each pod's measured rate; a
        // pod that has not returned a batch yet prices work at 0. The
        // earliest completion counts only pods routing could place
        // the request on: a crashed pod or an open breaker is routed
        // around, so its (refunded, empty) load table must not let
        // through a request every usable pod would miss. Crash state
        // is read before the cluster lock, which never nests a pod's.
        std::vector<char> crashed(podCount());
        for (size_t i = 0; i < podCount(); ++i) {
            crashed[i] = tables_[cls][i]->crashed();
        }
        double minDoneMs = std::numeric_limits<double>::infinity();
        double totalLoadMs = 0;
        {
            std::lock_guard<std::mutex> lock(m_);
            for (size_t i = 0; i < podCount(); ++i) {
                const double l = podLoadMsLocked(i);
                totalLoadMs += l;
                if (!crashed[i]
                    && breakers_[i].state() != BreakerState::Open) {
                    minDoneMs = std::min(minDoneMs, l + requestMs(cls, i));
                }
            }
        }
        // Sheds run BEFORE tryAdmit: a shed request was never
        // admitted, so there is nothing to refund.
        if (cfg_.shedding.brownoutLoadMs > 0
            && totalLoadMs >= cfg_.shedding.brownoutLoadMs
            && effPriority < cfg_.shedding.brownoutMinPriority) {
            {
                std::lock_guard<std::mutex> lock(m_);
                ++rejectedShedBrownout_;
            }
            registry_->onShed(tenantId);
            HEAP_FATAL("brownout: cluster load "
                       << totalLoadMs << " ms >= "
                       << cfg_.shedding.brownoutLoadMs
                       << " ms and priority " << effPriority
                       << " is below the floor "
                       << cfg_.shedding.brownoutMinPriority
                       << ": request shed");
        }
        // With no usable pod, routing rejects the request as
        // unhealthy; the deadline shed has nothing to price.
        if (opts.deadlineMs && std::isfinite(minDoneMs)) {
            const double doneMs = cfg_.shedding.slackFactor * minDoneMs;
            if (*opts.deadlineMs < doneMs) {
                {
                    std::lock_guard<std::mutex> lock(m_);
                    ++rejectedShedDeadline_;
                }
                registry_->onShed(tenantId);
                HEAP_FATAL("deadline shed: "
                           << *opts.deadlineMs
                           << " ms deadline is under the measured "
                           << doneMs
                           << " ms completion (negative slack): "
                           << "request shed");
            }
        }
    }

    const size_t items = classes_[flight->cls].items;
    const auto adm = registry_->tryAdmit(tenantId, items);
    if (!adm) {
        {
            std::lock_guard<std::mutex> lock(m_);
            ++rejectedQuota_;
        }
        HEAP_FATAL("tenant " << tenantId
                             << " over its in-flight quota: "
                             << "request rejected");
    }
    opts.tenantId = tenantId;
    opts.priority = effPriority;
    opts.fairRank = adm->fairRank;

    flight->userDone = std::move(opts.onDone);
    opts.onDone = nullptr;
    flight->baseOpts = std::move(opts);
    flight->submitMs = nowMs();
    if (flight->baseOpts.deadlineMs) {
        flight->deadlineAbsMs =
            flight->submitMs + *flight->baseOpts.deadlineMs;
    }

    {
        std::lock_guard<std::mutex> lock(m_);
        ++liveFlights_;
    }
    const Dispatch d = tryDispatch(flight, /*isRetry=*/false);
    if (d != Dispatch::Placed) {
        // Total rejection of the initial dispatch: the ONLY place the
        // admission is cancelled rather than completed.
        registry_->cancelAdmit(tenantId, items);
        {
            std::lock_guard<std::mutex> lock(m_);
            --liveFlights_;
            if (d == Dispatch::NoHealthy) {
                ++rejectedUnhealthy_;
            } else {
                ++rejectedCapacity_;
            }
        }
        settleCv_.notify_all();
        if (d == Dispatch::NoHealthy) {
            HEAP_FATAL("no healthy pod (every breaker open): tenant "
                       << tenantId << " request rejected");
        }
        HEAP_FATAL("cluster at capacity (every pod full): tenant "
                   << tenantId << " request rejected");
    }
    {
        std::lock_guard<std::mutex> lock(m_);
        ++classes_[flight->cls].submitted;
    }
}

std::shared_ptr<BootstrapTicket>
ServiceCluster::submit(uint64_t tenantId, const ckks::Ciphertext& in,
                       SubmitOptions opts)
{
    // Shape-check at the cluster door: a malformed input is a
    // UserError here, never a pod failure or a capacity rejection.
    pod(0).validate(in);
    auto ticket = std::make_shared<BootstrapTicket>();
    submitFlight(
        tenantId, kBootstrap,
        [in, ticket] { return BootstrapService::request(in, ticket); },
        std::move(opts));
    return ticket;
}

std::shared_ptr<PirTicket>
ServiceCluster::submitPir(uint64_t tenantId,
                          std::shared_ptr<const pir::PirQuery> query,
                          SubmitOptions opts)
{
    HEAP_CHECK(hasPir(), "cluster has no encrypted-lookup tenant class "
                         "(ClusterConfig::pirServer is null)");
    HEAP_CHECK(query != nullptr, "null PIR query");
    cfg_.pirServer->validateQuery(*query);
    auto ticket = std::make_shared<PirTicket>();
    submitFlight(
        tenantId, kLookup,
        [query, ticket] { return PirService::request(query, ticket); },
        std::move(opts));
    return ticket;
}

void
ServiceCluster::drain()
{
    std::unique_lock<std::mutex> lock(m_);
    settleCv_.wait(lock, [&] { return liveFlights_ == 0; });
}

void
ServiceCluster::shutdown()
{
    // Pods first: every accepted attempt settles during the pod
    // shutdowns, so every relay runs and every failover
    // decision is enqueued BEFORE the failover thread is told to
    // stop — no retry can arrive after the thread exits.
    for (PodTable& table : tables_) {
        for (auto& pod : table) {
            pod->shutdown();
        }
    }
    {
        std::lock_guard<std::mutex> lock(retryM_);
        stopRetry_ = true;
    }
    retryCv_.notify_all();
    if (failoverThread_.joinable()) {
        failoverThread_.join();
    }
}

ClusterMetrics
ServiceCluster::metrics() const
{
    ClusterMetrics m;
    {
        std::lock_guard<std::mutex> lock(m_);
        m.rejectedQuota = rejectedQuota_;
        m.rejectedCapacity = rejectedCapacity_;
        m.rejectedUnhealthy = rejectedUnhealthy_;
        m.rejectedShedDeadline = rejectedShedDeadline_;
        m.rejectedShedBrownout = rejectedShedBrownout_;
        m.routedPreferred = routedPreferred_;
        m.spilled = spilled_;
        m.liveFlights = liveFlights_;
        m.failovers = failovers_;
        m.failoverSucceeded = failoverSucceeded_;
        m.failoverExhausted = failoverExhausted_;
        m.failoverSweeps = failoverSweeps_;
        m.maxRetryBatch = maxRetryBatch_;
        for (const ClassInfo& k : classes_) {
            m.submitted += k.submitted;
            m.requestsCompleted += k.completed;
            m.requestsFailed += k.failed;
        }
        m.pirSubmitted = classes_[kLookup].submitted;
        m.pirCompleted = classes_[kLookup].completed;
        m.pirFailed = classes_[kLookup].failed;
        for (size_t i = 0; i < podCount(); ++i) {
            m.podOutstandingItems.push_back(podItemsLocked(i));
        }
        m.breakers.reserve(breakers_.size());
        for (const CircuitBreaker& b : breakers_) {
            m.breakers.push_back(b.stats());
            m.breakerOpens += m.breakers.back().opens;
            m.breakerCloses += m.breakers.back().closes;
        }
    }
    if (chaos_) {
        m.chaos = chaos_->stats();
    }
    std::vector<ServiceMetrics>* podMetrics[kClasses] = {&m.pods,
                                                         &m.pirPods};
    for (size_t k = 0; k < kClasses; ++k) {
        for (const auto& pod : tables_[k]) {
            podMetrics[k]->push_back(pod->metrics());
            m.completed += podMetrics[k]->back().completed;
            m.failed += podMetrics[k]->back().failed;
        }
    }
    m.podKeyCaches.reserve(caches_.size());
    for (const auto& c : caches_) {
        m.podKeyCaches.push_back(c->stats());
    }
    m.keyCacheTotal = sumStats(m.podKeyCaches);
    m.tenants = registry_->allStats();
    m.fairnessRatio = registry_->fairnessRatio();
    return m;
}

} // namespace heap::serve
