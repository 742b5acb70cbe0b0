/**
 * @file
 * heapbench: the repository benchmark. One invocation runs one
 * workload for a fixed window and prints every metric as
 * `name value unit`, then, as its last line, one JSON object
 * {"correct", "attempted", "failed", "metrics"}.
 *
 *   heapbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out FILE] [--trace-file FILE] [--rev REV]
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 repeats the
 * workload, then replays every library layer through its public
 * calls (layers.h) and reports the per-layer metrics; the spans go to
 * --trace-file as Chrome trace-event JSON.
 *
 * Every output is checked (fixture.h): a wrong or failed one makes
 * "correct" false and the exit code 1.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "boot/distributed.h"
#include "boot/scheme_switch.h"
#include "fixture.h"
#include "layers.h"
#include "load.h"
#include "math/simd.h"
#include "report.h"
#include "serve/cluster.h"

#ifndef HEAPBENCH_BUILD_TYPE
#define HEAPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace heap;
using namespace heapbench;

enum class Shape { Sequential, Closed, Open };

const char*
shapeName(Shape s)
{
    switch (s) {
    case Shape::Sequential:
        return "closed_loop_1_caller";
    case Shape::Closed:
        return "closed_loop";
    case Shape::Open:
        return "open_loop_fixed_rates";
    }
    return "?";
}

/** The fixed constants of one workload. None is calibrated at run
 *  time; all are echoed into the result file. */
struct Workload {
    const char* name;
    Shape shape;
    size_t outstanding; ///< closed loop: requests kept in flight
    double bootRps;     ///< open loop: bootstrap arrival rate
    double pirQps;      ///< open loop: lookup arrival rate
    size_t pods;
    size_t podWorkers;    ///< ServiceConfig::workers
    size_t pirWorkers;    ///< PirServiceConfig::workers
    size_t maxBatchItems; ///< bootstrap batch cap
    size_t pirRingN;      ///< lookup ring; 0 = no lookup database
    size_t bootTenants;
    size_t pirTenants;
};

constexpr size_t kLookupRingN = 1024; ///< pir_lookup's ring

// Why these four: BENCHMARK.json and README.md. mixed_open runs one
// bootstrap and one lookup worker per pod, four threads in all: with
// more threads than cores, a lookup's latency depended on whether a
// bootstrap held the cores, and its median jumped between the two
// modes from run to run.
constexpr Workload kWorkloads[] = {
    {"boot_single", Shape::Sequential, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    {"boot_serve", Shape::Closed, 8, 0, 0, 2, 2, 1, 48, 0, 16, 0},
    {"pir_lookup", Shape::Closed, 8, 0, 0, 2, 1, 2, 0, kLookupRingN, 0,
     16},
    {"mixed_open", Shape::Open, 0, 1.0, 40, 2, 1, 1, 48, 64, 8, 8},
};

constexpr size_t kPoolSize = 8;    ///< distinct inputs / queries
constexpr size_t kSecondaries = 1; ///< per pod
/** setup_s is the median of this many set-ups; the first few of a
 *  process run cold and slow, so they must stay a minority. */
constexpr size_t kSetupRepeats = 15;
constexpr double kWarmupMs = 2000;
constexpr double kBootLimitMs = 2000; ///< mixed_open latency limits
constexpr double kPirLimitMs = 100;

/** The traced replays run the workload's own shapes: boot_single's
 *  workers, or a pod's lanes (its primary and secondaries), and the
 *  lookup ring; a workload without lookups replays pir_lookup's. */
ReplayShape
replayShape(const Workload& w)
{
    return ReplayShape{
        .rotateShares =
            w.shape == Shape::Sequential ? kBootWorkers : 1 + kSecondaries,
        .pirRingN = w.pirRingN != 0 ? w.pirRingN : kLookupRingN};
}

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    std::string out;
    std::string traceFile;
    std::string rev = "unknown";
};

bool
parseOptions(int argc, char** argv, Options& o)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::stoull(val);
        } else if (key == "--seconds") {
            o.seconds = std::stod(val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1") {
                return false;
            }
            o.trace = val == "1";
        } else if (key == "--out") {
            o.out = val;
        } else if (key == "--trace-file") {
            o.traceFile = val;
        } else if (key == "--rev") {
            o.rev = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

/** Output checks of one run. */
struct Verdict {
    size_t sent = 0;
    size_t rejected = 0;
    size_t failed = 0; ///< tickets that settled with an error
    size_t wrong = 0;  ///< settled, but an output check failed
    double worstSlotError = 0;
};

/** Everything one workload run produced. */
struct RunOutput {
    std::vector<double> setupMs;
    LoadRun load;
    Verdict verdict;
    std::optional<serve::ClusterMetrics> cluster;
    double fairnessBoot = 0;
    double fairnessPir = 0;
};

/** What the checks compare against. */
struct Expected {
    const ckks::Context* ctx = nullptr;
    const std::vector<BootInput>* inputs = nullptr;
    const std::vector<ckks::Ciphertext>* refs = nullptr;
    const PirDatabase* db = nullptr;
    const PirQueries* queries = nullptr;
};

/** Checks every settled output, then drops it. */
Verdict
verify(LoadRun& run, const Expected& e)
{
    Verdict v;
    for (Request& r : run.requests) {
        ++v.sent;
        if (r.rejected) {
            ++v.rejected;
            continue;
        }
        if (!r.ok) {
            ++v.failed;
            continue;
        }
        if (r.what.cls == RequestClass::Boot) {
            const ckks::Ciphertext out =
                r.direct ? std::move(*r.direct) : r.boot->wait();
            const double err =
                slotError(*e.ctx, out, e.inputs->at(r.what.pool).message);
            v.worstSlotError = std::max(v.worstSlotError, err);
            r.correct = err <= kMaxSlotError
                        && sameBytes(out, e.refs->at(r.what.pool));
        } else {
            r.correct = e.queries->exact(*e.db, r.what.pool, r.pir->wait());
        }
        v.wrong += r.correct ? 0 : 1;
        r.direct.reset();
        r.boot.reset();
        r.pir.reset();
    }
    return v;
}

std::vector<ckks::Ciphertext>
ciphertexts(const std::vector<BootInput>& inputs)
{
    std::vector<ckks::Ciphertext> cts;
    for (const BootInput& in : inputs) {
        cts.push_back(in.ct);
    }
    return cts;
}

/**
 * Reference outputs, computed outside setup_s: `make(t)` builds
 * thread t's bootstrapper, which serves the inputs i == t (mod 4).
 */
template <typename Make>
std::vector<ckks::Ciphertext>
references(const std::vector<BootInput>& inputs, const Make& make)
{
    std::vector<ckks::Ciphertext> refs(inputs.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            auto boot = make(t);
            for (size_t i = t; i < inputs.size(); i += 4) {
                refs[i] = boot->bootstrap(inputs[i].ct);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    return refs;
}

RunOutput
runBootSingle(const Options& opt)
{
    struct Setup {
        std::unique_ptr<ckks::Context> ctx;
        std::unique_ptr<boot::SchemeSwitchBootstrapper> boot;
    };
    RunOutput out;
    std::unique_ptr<Setup> s;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
        s.reset();
        const double t0 = nowMs();
        s = std::make_unique<Setup>();
        s->ctx = std::make_unique<ckks::Context>(bootParams(), opt.seed);
        s->boot = std::make_unique<boot::SchemeSwitchBootstrapper>(
            *s->ctx, brGadget());
        s->boot->setWorkers(kBootWorkers);
        out.setupMs.push_back(nowMs() - t0);
    }
    const std::vector<BootInput> inputs =
        makeBootPool(*s->ctx, opt.seed, kPoolSize);
    // Copies share the keys; each runs the serial (workers = 1) path.
    const auto refs = references(inputs, [&](size_t) {
        auto copy =
            std::make_unique<boot::SchemeSwitchBootstrapper>(*s->boot);
        copy->setWorkers(1);
        return copy;
    });
    out.load = runSequential(*s->boot, ciphertexts(inputs), kWarmupMs,
                             opt.seconds * 1e3);
    out.verdict = verify(out.load, Expected{s->ctx.get(), &inputs, &refs});
    return out;
}

/** Within-class weighted fairness: max over min of served items per
 *  weight, over tenants that completed a request; 0 with fewer than
 *  two such tenants. */
double
fairness(const serve::TenantRegistry& reg, uint64_t firstId, size_t count)
{
    double lo = 0, hi = 0;
    size_t n = 0;
    for (uint64_t id = firstId; id < firstId + count; ++id) {
        const serve::TenantStats st = reg.stats(id);
        if (st.completed == 0) {
            continue;
        }
        const double share = static_cast<double>(st.servedItems) / st.weight;
        lo = n == 0 ? share : std::min(lo, share);
        hi = n == 0 ? share : std::max(hi, share);
        ++n;
    }
    return n >= 2 && lo > 0 ? hi / lo : 0.0;
}

/** Tenant weight: 1 for closed loops; 1, 2, 1, 2, ... for the open
 *  loop, whose arrivals are split in the same proportion. */
double
tenantWeight(const Workload& w, size_t k)
{
    return w.shape == Shape::Open && k % 2 == 1 ? 2.0 : 1.0;
}

/** Open-loop arrivals over `totalMs`, per class at its fixed rate:
 *  time is cut into slots of 1 / rate with one arrival in each, so
 *  every window of a run, and of every seed, carries the same number
 *  of arrivals. A lookup falls at a uniform random time in its slot.
 *  A bootstrap falls at one seeded phase of every slot: a window holds
 *  only 25, random times now and then put two on one pod at once and
 *  slowed both, and their median spread run to run by 0.21 of itself,
 *  against 0.13 at fixed intervals. Tenants are drawn in weight
 *  proportion. */
std::vector<Arrival>
openSchedule(const Workload& w, uint64_t seed, double totalMs)
{
    Rng rng(seed * 0x94d049bb133111ebULL + 3);
    std::vector<Arrival> all;
    const auto addClass = [&](RequestClass cls, double rate,
                              uint64_t firstTenant, size_t tenants) {
        const double slotMs = 1e3 / rate;
        const auto count = static_cast<size_t>(totalMs / slotMs);
        const double phase = rng.uniformReal();
        double weightSum = 0;
        for (size_t k = 0; k < tenants; ++k) {
            weightSum += tenantWeight(w, k);
        }
        for (size_t i = 0; i < count; ++i) {
            Arrival a;
            a.cls = cls;
            const double at =
                cls == RequestClass::Boot ? phase : rng.uniformReal();
            a.offsetMs = (static_cast<double>(i) + at) * slotMs;
            a.pool = rng.uniform(kPoolSize);
            double pick = rng.uniformReal() * weightSum;
            size_t k = 0;
            while (k + 1 < tenants && pick >= tenantWeight(w, k)) {
                pick -= tenantWeight(w, k);
                ++k;
            }
            a.tenant = firstTenant + k;
            all.push_back(a);
        }
    };
    addClass(RequestClass::Boot, w.bootRps, 1, w.bootTenants);
    addClass(RequestClass::Pir, w.pirQps, 1 + w.bootTenants, w.pirTenants);
    std::sort(all.begin(), all.end(),
              [](const Arrival& a, const Arrival& b) {
                  return a.offsetMs < b.offsetMs;
              });
    return all;
}

RunOutput
runServing(const Workload& w, const Options& opt)
{
    // Members are destroyed in reverse: the cluster goes first.
    struct Setup {
        std::unique_ptr<ckks::Context> ctx;
        std::vector<std::unique_ptr<boot::DistributedBootstrapper>> pods;
        std::optional<PirDatabase> pir;
        std::unique_ptr<serve::TenantRegistry> registry;
        std::unique_ptr<serve::ServiceCluster> cluster;
    };
    const size_t tenants = w.bootTenants + w.pirTenants;
    RunOutput out;
    std::unique_ptr<Setup> s;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
        s.reset();
        const double t0 = nowMs();
        s = std::make_unique<Setup>();
        s->ctx = std::make_unique<ckks::Context>(bootParams(), opt.seed);
        s->pods.push_back(std::make_unique<boot::DistributedBootstrapper>(
            *s->ctx, kSecondaries, brGadget()));
        while (s->pods.size() < w.pods) {
            s->pods.push_back(
                std::make_unique<boot::DistributedBootstrapper>(
                    *s->pods.front(), kSecondaries));
        }
        if (w.pirRingN != 0) {
            s->pir = makePirDatabase(w.pirRingN, opt.seed);
        }
        s->registry = std::make_unique<serve::TenantRegistry>();
        for (size_t k = 0; k < tenants; ++k) {
            const size_t inClass = k < w.bootTenants ? k : k - w.bootTenants;
            s->registry->registerTenant(serve::TenantSpec{
                .id = k + 1,
                .name = "tenant-" + std::to_string(k + 1),
                .weight = tenantWeight(w, inClass)});
        }
        serve::ClusterConfig cfg;
        cfg.pod.workers = w.podWorkers;
        cfg.pod.maxBatchItems = w.maxBatchItems;
        if (s->pir) {
            cfg.pirServer = s->pir->server.get();
            cfg.pirPod.workers = w.pirWorkers;
        }
        std::vector<boot::DistributedBootstrapper*> pods;
        for (auto& p : s->pods) {
            pods.push_back(p.get());
        }
        s->cluster = std::make_unique<serve::ServiceCluster>(
            pods, *s->registry, cfg);
        out.setupMs.push_back(nowMs() - t0);
    }

    const std::vector<BootInput> inputs =
        makeBootPool(*s->ctx, opt.seed, kPoolSize);
    std::vector<ckks::Ciphertext> refs;
    if (w.bootTenants != 0) {
        // Replicas of pod 0 carry its keys, so their sequential
        // bootstrap() is the reference every pod must match.
        refs = references(inputs, [&](size_t) {
            return std::make_unique<boot::DistributedBootstrapper>(
                *s->pods.front(), kSecondaries);
        });
    }
    std::optional<PirQueries> queries;
    std::vector<std::shared_ptr<const pir::PirQuery>> queryPool;
    if (s->pir) {
        queries = makePirQueries(*s->pir, opt.seed, kPoolSize);
        queryPool = queries->queries;
    }

    const std::vector<ckks::Ciphertext> cts = ciphertexts(inputs);
    ClusterLoad load(*s->cluster, cts, queryPool);
    const double windowMs = opt.seconds * 1e3;
    if (w.shape == Shape::Open) {
        out.load = load.openLoop(
            openSchedule(w, opt.seed, kWarmupMs + windowMs), kWarmupMs,
            windowMs);
    } else {
        const RequestClass cls = w.bootTenants != 0 ? RequestClass::Boot
                                                    : RequestClass::Pir;
        out.load = load.closedLoop(
            w.outstanding,
            [&](size_t k) {
                return Arrival{cls, 1 + k % tenants, k % kPoolSize, 0};
            },
            kWarmupMs, windowMs);
    }
    out.cluster = s->cluster->metrics();
    out.fairnessBoot = fairness(*s->registry, 1, w.bootTenants);
    out.fairnessPir =
        fairness(*s->registry, 1 + w.bootTenants, w.pirTenants);
    out.verdict = verify(
        out.load, Expected{s->ctx.get(), &inputs, &refs,
                           s->pir ? &*s->pir : nullptr,
                           queries ? &*queries : nullptr});
    return out;
}

double
safeRatio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Latency and lag samples of the window, by class. */
struct WindowSamples {
    std::vector<double> boot, pir, lag;
    std::vector<double> bootQueue, bootService, pirQueue;
    size_t sent = 0;
    size_t rejected = 0;
    size_t withinLimit = 0;
    size_t completed = 0; ///< correct, settled inside the window
    double lastDoneMs = 0; ///< when the last of them settled
};

/** `served`: requests went through the cluster, so their
 *  RequestReports carry pod queue and service times. */
WindowSamples
windowSamples(const LoadRun& run, bool served)
{
    WindowSamples s;
    for (const Request& r : run.requests) {
        if (r.correct && r.doneMs >= run.windowStartMs
            && r.doneMs <= run.windowEndMs) {
            ++s.completed;
            s.lastDoneMs = std::max(s.lastDoneMs, r.doneMs);
        }
        if (!run.inWindow(r)) {
            continue;
        }
        ++s.sent;
        s.rejected += r.rejected ? 1 : 0;
        s.lag.push_back(r.submitMs - r.dueMs);
        if (!r.correct) {
            continue;
        }
        const double ms = r.latencyMs();
        if (r.what.cls == RequestClass::Boot) {
            s.boot.push_back(ms);
            if (served) {
                s.bootQueue.push_back(r.podQueueMs);
                s.bootService.push_back(r.podTotalMs);
            }
            s.withinLimit += ms <= kBootLimitMs ? 1 : 0;
        } else {
            s.pir.push_back(ms);
            s.pirQueue.push_back(r.podQueueMs);
            s.withinLimit += ms <= kPirLimitMs ? 1 : 0;
        }
    }
    return s;
}

void
addPercentiles(MetricList& m, const std::string& prefix,
               const std::vector<double>& v)
{
    if (v.empty()) {
        return;
    }
    m.add(prefix + "_p50_ms", percentile(v, 50), "ms", v.size());
    m.add(prefix + "_p90_ms", percentile(v, 90), "ms", v.size());
    m.add(prefix + "_p99_ms", percentile(v, 99), "ms", v.size());
}

/**
 * Adds the p-th latency percentile of each request class, combined by
 * geometric mean, with the smallest class's sample count. A class
 * enters only with at least ten samples beyond its percentile; when
 * none has, the larger class stands alone. On a one-class workload
 * this is that class's percentile. On mixed_open the median covers
 * both classes, so a slowdown of either moves it although lookups far
 * outnumber bootstraps; its few bootstraps have no p90.
 */
void
addClassLatency(MetricList& m, const std::string& name,
                const WindowSamples& s, double p)
{
    std::vector<const std::vector<double>*> classes;
    for (const std::vector<double>* v : {&s.boot, &s.pir}) {
        if ((1 - p / 100) * static_cast<double>(v->size()) >= 10) {
            classes.push_back(v);
        }
    }
    if (classes.empty()) {
        classes.push_back(s.boot.size() >= s.pir.size() ? &s.boot : &s.pir);
    }
    double logSum = 0;
    size_t fewest = classes.front()->size();
    for (const std::vector<double>* v : classes) {
        logSum += std::log(percentile(*v, p));
        fewest = std::min(fewest, v->size());
    }
    m.add(name, std::exp(logSum / static_cast<double>(classes.size())),
          "ms", fewest);
}

/** The BENCHMARK.json end-to-end metrics. */
void
endToEnd(const RunOutput& run, const WindowSamples& s, MetricList& m)
{
    m.add("setup_s", median(run.setupMs) / 1e3, "s", run.setupMs.size());
    addClassLatency(m, "latency_p50_ms", s, 50);
    addClassLatency(m, "latency_p90_ms", s, 90);
    // Completions per second, from the window's start to the last one.
    m.add("goodput_rps",
          safeRatio(static_cast<double>(s.completed) * 1e3,
                    s.lastDoneMs - run.load.windowStartMs),
          "req/s", s.completed);
    m.add("peak_rss_mb", peakRssMb(), "MB");
}

/** Per-class and accounting figures kept in the result file only. */
void
details(const Workload& w, const RunOutput& run, const WindowSamples& s,
        MetricList& m)
{
    addPercentiles(m, "boot", s.boot);
    addPercentiles(m, "pir", s.pir);
    if (w.shape == Shape::Open) {
        m.add("slo_attain_frac",
              safeRatio(static_cast<double>(s.withinLimit),
                        static_cast<double>(s.sent)),
              "ratio", s.sent);
    }
    const Verdict& v = run.verdict;
    m.add("reject_frac",
          safeRatio(static_cast<double>(s.rejected),
                    static_cast<double>(s.sent)),
          "ratio", s.sent);
    m.add("error_frac",
          safeRatio(static_cast<double>(v.wrong + v.failed),
                    static_cast<double>(v.sent)),
          "ratio", v.sent);
    m.add("worst_slot_error", v.worstSlotError, "abs");
    m.add("window_requests", static_cast<double>(s.sent), "count");
}

/** serve.*, cluster.*, proc.* and loadgen.* of a traced run; zeros
 *  for a layer the workload does not exercise. */
void
runLayers(const RunOutput& run, const WindowSamples& s, MetricList& m)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    m.add("proc.cpu_util",
          run.load.windowCpuMs / (run.load.windowSeconds() * 1e3 * nproc),
          "ratio");
    m.add("proc.cpu_ms_per_req",
          safeRatio(run.load.windowCpuMs, static_cast<double>(s.completed)),
          "ms", s.completed);
    m.add("loadgen.lag_p99_ms", percentile(s.lag, 99), "ms", s.lag.size());

    serve::ClusterMetrics c;
    if (run.cluster) {
        c = *run.cluster;
    }
    double done = 0, batches = 0, items = 0, occupancy = 0, wire = 0;
    double overlap = 0, busyPods = 0;
    double busy[serve::kStageCount] = {}, stall[serve::kStageCount] = {};
    for (const serve::ServiceMetrics& p : c.pods) {
        const double b = static_cast<double>(p.batches);
        done += static_cast<double>(p.completed);
        batches += b;
        items += p.meanBatchItems * b;
        occupancy += p.batchOccupancy * b;
        wire += static_cast<double>(p.wireBytesOut + p.wireBytesIn);
        for (size_t k = 0; k < serve::kStageCount; ++k) {
            busy[k] += p.pipeline.stages[k].busyMs;
            stall[k] += p.pipeline.stages[k].stallMs;
        }
        if (p.batches > 0) {
            overlap += p.pipeline.overlap;
            busyPods += 1;
        }
    }
    m.add("serve.batches_per_req", safeRatio(batches, done), "count");
    m.add("serve.mean_batch_items", safeRatio(items, batches), "count");
    m.add("serve.batch_occupancy", safeRatio(occupancy, batches), "count");
    for (size_t k = 0; k < serve::kStageCount; ++k) {
        const std::string stage =
            serve::stageName(static_cast<serve::Stage>(k));
        m.add("serve." + stage + ".busy_ms_per_req",
              safeRatio(busy[k], done), "ms");
        m.add("serve." + stage + ".stall_ms_per_req",
              safeRatio(stall[k], done), "ms");
    }
    m.add("serve.stage_overlap", safeRatio(overlap, busyPods), "ratio");
    const auto p50 = [](const std::vector<double>& v) {
        return v.empty() ? 0.0 : median(v);
    };
    m.add("serve.queue_wait_p50_ms", p50(s.bootQueue), "ms",
          s.bootQueue.size());
    m.add("serve.service_p50_ms", p50(s.bootService), "ms",
          s.bootService.size());
    m.add("serve.wire_bytes_per_req", safeRatio(wire, done), "B");
    double pirBatches = 0, pirItems = 0;
    for (const serve::ServiceMetrics& p : c.pirPods) {
        pirBatches += static_cast<double>(p.batches);
        pirItems += p.meanBatchItems * static_cast<double>(p.batches);
    }
    m.add("serve.pir.mean_batch_items", safeRatio(pirItems, pirBatches),
          "count");
    m.add("serve.pir.queue_wait_p50_ms", p50(s.pirQueue), "ms",
          s.pirQueue.size());

    m.add("cluster.spilled_frac",
          safeRatio(static_cast<double>(c.spilled),
                    static_cast<double>(c.submitted)),
          "ratio");
    m.add("cluster.keycache_hit_rate", c.keyCacheTotal.hitRate(), "ratio");
    m.add("cluster.fairness_ratio_boot", run.fairnessBoot, "ratio");
    m.add("cluster.fairness_ratio_pir", run.fairnessPir, "ratio");
    m.add("cluster.failovers", static_cast<double>(c.failovers), "count");
    m.add("cluster.rejected",
          static_cast<double>(c.rejectedQuota + c.rejectedCapacity
                              + c.rejectedUnhealthy + c.rejectedShedDeadline
                              + c.rejectedShedBrownout),
          "count");
}

/** Request spans (due -> done, with the generator lag and the time in
 *  the system as children) from the stamps the run already took. */
void
requestSpans(const LoadRun& run, Tracer& t)
{
    for (const Request& r : run.requests) {
        if (r.rejected) {
            continue;
        }
        const char* name =
            r.what.cls == RequestClass::Boot ? "request.boot"
                                             : "request.pir";
        const int64_t id = t.add(name, r.dueMs, r.doneMs, -1, r.id);
        t.add("loadgen.lag", r.dueMs, r.submitMs, id, r.id);
        t.add("in_system", r.submitMs, r.doneMs, id, r.id);
    }
}

/** Mean cost of recording one span, in ms. */
double
spanCostMs()
{
    Tracer probe;
    constexpr int kSpans = 20000;
    const double t0 = nowMs();
    for (int i = 0; i < kSpans; ++i) {
        probe.add("x", 0, 1, -1, static_cast<uint64_t>(i));
    }
    return (nowMs() - t0) / kSpans;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::string
metricsJson(const std::vector<Metric>& ms, bool withSamples)
{
    std::string s = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        s += (i ? ", " : "") + jsonString(ms[i].name) + ": {\"value\": "
             + jsonNumber(ms[i].value) + ", \"unit\": "
             + jsonString(ms[i].unit);
        if (withSamples) {
            s += ", \"samples\": " + std::to_string(ms[i].samples);
        }
        s += "}";
    }
    return s + "}";
}

std::string
resultFile(const Workload& w, const Options& opt, bool correct,
           size_t attempted, size_t failed, const MetricList& reported,
           const MetricList& extra)
{
    const char* threads = std::getenv("HEAP_THREADS");
    std::string s = "{\n";
    s += "  \"workload\": " + jsonString(w.name) + ",\n";
    s += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
    s += "  \"trace\": " + std::string(opt.trace ? "1" : "0") + ",\n";
    s += "  \"meta\": {\"nproc\": "
         + std::to_string(std::thread::hardware_concurrency())
         + ", \"cpu_model\": " + jsonString(cpuModel())
         + ", \"simd\": "
         + jsonString(math::simdLevelName(math::activeSimdLevel()))
         + ", \"heap_threads\": "
         + jsonString(threads != nullptr ? threads : "unset")
         + ", \"build_type\": " + jsonString(HEAPBENCH_BUILD_TYPE)
         + ", \"git_rev\": " + jsonString(opt.rev) + "},\n";
    s += "  \"constants\": {\"load\": " + jsonString(shapeName(w.shape))
         + ", \"window_s\": " + jsonNumber(opt.seconds)
         + ", \"warmup_ms\": " + jsonNumber(kWarmupMs)
         + ", \"outstanding\": " + std::to_string(w.outstanding)
         + ", \"boot_rps\": " + jsonNumber(w.bootRps)
         + ", \"pir_qps\": " + jsonNumber(w.pirQps)
         + ", \"pods\": " + std::to_string(w.pods)
         + ", \"secondaries\": " + std::to_string(kSecondaries)
         + ", \"pod_workers\": " + std::to_string(w.podWorkers)
         + ", \"pir_workers\": " + std::to_string(w.pirWorkers)
         + ", \"max_batch_items\": " + std::to_string(w.maxBatchItems)
         + ", \"pir_ring_n\": " + std::to_string(w.pirRingN)
         + ", \"boot_tenants\": " + std::to_string(w.bootTenants)
         + ", \"pir_tenants\": " + std::to_string(w.pirTenants)
         + ", \"pool\": " + std::to_string(kPoolSize)
         + ", \"setup_repeats\": " + std::to_string(kSetupRepeats)
         + ", \"single_workers\": " + std::to_string(kBootWorkers)
         + ", \"boot_limit_ms\": " + jsonNumber(kBootLimitMs)
         + ", \"pir_limit_ms\": " + jsonNumber(kPirLimitMs) + "},\n";
    s += "  \"correct\": " + std::string(correct ? "true" : "false")
         + ",\n";
    s += "  \"attempted\": " + std::to_string(attempted) + ",\n";
    s += "  \"failed\": " + std::to_string(failed) + ",\n";
    s += "  \"metrics\": " + metricsJson(reported.all(), true) + ",\n";
    s += "  \"detail\": " + metricsJson(extra.all(), true) + "\n}\n";
    return s;
}

void
printMetrics(const MetricList& m)
{
    for (const Metric& x : m.all()) {
        std::printf("%-34s %14s %s", x.name.c_str(),
                    jsonNumber(x.value).c_str(), x.unit.c_str());
        if (x.samples > 0) {
            std::printf("  (n=%zu)", x.samples);
        }
        std::printf("\n");
    }
}

int
run(const Options& opt)
{
    const Workload* w = nullptr;
    for (const Workload& cand : kWorkloads) {
        if (opt.workload == cand.name) {
            w = &cand;
        }
    }
    if (w == nullptr) {
        std::fprintf(stderr, "heapbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const double t0 = nowMs();
    RunOutput out = w->shape == Shape::Sequential ? runBootSingle(opt)
                                                  : runServing(*w, opt);
    const WindowSamples samples =
        windowSamples(out.load, out.cluster.has_value());
    const Verdict& v = out.verdict;
    bool correct = v.wrong == 0 && v.failed == 0 && samples.completed > 0;

    MetricList reported, extra;
    details(*w, out, samples, extra);
    if (!opt.trace) {
        endToEnd(out, samples, reported);
    } else {
        Tracer tracer;
        runLayers(out, samples, reported);
        requestSpans(out.load, tracer);
        const double replayStart = nowMs();
        const bool same =
            replayLayers(opt.seed, replayShape(*w), tracer, reported);
        correct = correct && same;
        extra.add("replay_matches_library", same ? 1 : 0, "bool");
        const double tracedMs =
            out.load.windowEndMs - out.load.windowStartMs + nowMs()
            - replayStart;
        reported.add("trace.overhead_frac",
                     static_cast<double>(tracer.size()) * spanCostMs()
                         / tracedMs,
                     "ratio");
        if (!opt.traceFile.empty()
            && !tracer.writeChromeJson(opt.traceFile)) {
            std::fprintf(stderr, "heapbench: cannot write %s\n",
                         opt.traceFile.c_str());
            return 2;
        }
    }
    extra.add("run_wall_s", (nowMs() - t0) / 1e3, "s");

    std::printf("workload %s  seed %llu  window %.3g s  trace %d\n", w->name,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    printMetrics(reported);
    printMetrics(extra);
    // Refusals are not failures: the closed loops resend them, and
    // reject_frac counts them.
    const size_t failed = v.failed + v.wrong;
    if (!opt.out.empty()) {
        std::ofstream f(opt.out);
        f << resultFile(*w, opt, correct, v.sent, failed, reported, extra);
        if (!f) {
            std::fprintf(stderr, "heapbench: cannot write %s\n",
                         opt.out.c_str());
            return 2;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", v.sent, failed,
                metricsJson(reported.all(), false).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    try {
        if (!parseOptions(argc, argv, opt)) {
            std::fprintf(stderr,
                         "usage: heapbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--out FILE] "
                         "[--trace-file FILE] [--rev REV]\n");
            return 2;
        }
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "heapbench: %s\n", e.what());
        return 2;
    }
}
