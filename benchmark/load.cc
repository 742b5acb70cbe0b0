#include "load.h"

#include <thread>

#include "common/check.h"
#include "report.h"

namespace heapbench {

using namespace heap;

LoadRun
runSequential(const boot::SchemeSwitchBootstrapper& boot,
              const std::vector<ckks::Ciphertext>& inputs,
              double warmupMs, double windowMs)
{
    LoadRun run;
    const double t0 = nowMs();
    const double windowFrom = t0 + warmupMs;
    const double windowTo = windowFrom + windowMs;
    run.windowStartMs = -1;
    double cpu0 = 0;
    for (;;) {
        const double now = nowMs();
        if (now >= windowTo) {
            break;
        }
        // The window opens with the first call sent after warmup and
        // closes when the last call sent inside it returns, so its CPU
        // time and its calls cover the same work.
        if (run.windowStartMs < 0 && now >= windowFrom) {
            run.windowStartMs = now;
            cpu0 = processCpuMs();
        }
        Request& r = run.requests.emplace_back();
        r.id = run.requests.size();
        r.what.pool = (r.id - 1) % inputs.size();
        r.dueMs = now;
        r.submitMs = now;
        try {
            r.direct = boot.bootstrap(inputs[r.what.pool]);
            r.ok = true;
        } catch (const std::exception&) {
            r.ok = false;
        }
        r.doneMs = nowMs();
    }
    run.windowEndMs = run.requests.back().doneMs;
    run.windowCpuMs = processCpuMs() - cpu0;
    return run;
}

ClusterLoad::ClusterLoad(
    serve::ServiceCluster& cluster,
    const std::vector<ckks::Ciphertext>& bootInputs,
    const std::vector<std::shared_ptr<const pir::PirQuery>>& queries)
    : cluster_(cluster), bootInputs_(bootInputs), queries_(queries)
{
}

void
ClusterLoad::send(Request& r)
{
    serve::SubmitOptions opts;
    Request* rp = &r;
    // Runs on a pod worker, possibly under the pod lock: only stamps
    // the request and wakes the generator. Notifying under our lock
    // keeps `this` alive until the hook is done with it.
    opts.onDone = [this, rp](const serve::RequestReport& rep, bool ok) {
        const double t = nowMs();
        std::lock_guard<std::mutex> lock(m_);
        rp->doneMs = t;
        rp->ok = ok;
        rp->podQueueMs = rep.queueMs;
        rp->podTotalMs = rep.totalMs;
        settled_.push_back(rp);
        ++settledTotal_;
        cv_.notify_all();
    };
    r.submitMs = nowMs();
    try {
        if (r.what.cls == RequestClass::Boot) {
            r.boot = cluster_.submit(r.what.tenant,
                                     bootInputs_.at(r.what.pool),
                                     std::move(opts));
        } else {
            r.pir = cluster_.submitPir(r.what.tenant,
                                       queries_.at(r.what.pool),
                                       std::move(opts));
        }
    } catch (const UserError&) {
        r.rejected = true;
        r.doneMs = r.submitMs;
    }
}

void
ClusterLoad::drain(const LoadRun& run)
{
    size_t accepted = 0;
    for (const Request& r : run.requests) {
        accepted += r.rejected ? 0 : 1;
    }
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return settledTotal_ >= accepted; });
    settled_.clear();
    settledTotal_ = 0;
}

LoadRun
ClusterLoad::closedLoop(size_t outstanding,
                        const std::function<Arrival(size_t)>& next,
                        double warmupMs, double windowMs)
{
    LoadRun run;
    const double t0 = nowMs();
    run.windowStartMs = t0 + warmupMs;
    run.windowEndMs = run.windowStartMs + windowMs;
    size_t sent = 0;
    // Sends one request due at `due`; a refused one is resent after a
    // pause, as a new request, until the window closes.
    const auto launch = [&](double due) {
        for (;;) {
            Request& r = run.requests.emplace_back();
            r.id = run.requests.size();
            r.what = next(sent++);
            r.dueMs = due;
            send(r);
            if (!r.rejected || nowMs() >= run.windowEndMs) {
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    for (size_t i = 0; i < outstanding; ++i) {
        launch(nowMs());
    }
    double cpu0 = -1;
    std::vector<Request*> freed;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(m_);
            const double until =
                cpu0 < 0 ? run.windowStartMs : run.windowEndMs;
            cv_.wait_until(lock, steadyAt(until),
                           [&] { return !settled_.empty(); });
            freed.swap(settled_);
        }
        const double now = nowMs();
        if (cpu0 < 0 && now >= run.windowStartMs) {
            cpu0 = processCpuMs();
        }
        if (now >= run.windowEndMs) {
            run.windowCpuMs = processCpuMs() - cpu0;
            break;
        }
        for (const Request* r : freed) {
            launch(r->doneMs);
        }
        freed.clear();
    }
    drain(run);
    return run;
}

LoadRun
ClusterLoad::openLoop(const std::vector<Arrival>& schedule,
                      double warmupMs, double windowMs)
{
    LoadRun run;
    const double t0 = nowMs();
    run.windowStartMs = t0 + warmupMs;
    run.windowEndMs = run.windowStartMs + windowMs;
    double cpu0 = -1;
    for (const Arrival& a : schedule) {
        const double due = t0 + a.offsetMs;
        if (cpu0 < 0 && due >= run.windowStartMs) {
            sleepUntilMs(run.windowStartMs);
            cpu0 = processCpuMs();
        }
        sleepUntilMs(due);
        Request& r = run.requests.emplace_back();
        r.id = run.requests.size();
        r.what = a;
        r.dueMs = due;
        send(r);
    }
    if (cpu0 < 0) {
        sleepUntilMs(run.windowStartMs);
        cpu0 = processCpuMs();
    }
    sleepUntilMs(run.windowEndMs);
    run.windowCpuMs = processCpuMs() - cpu0;
    drain(run);
    return run;
}

} // namespace heapbench
