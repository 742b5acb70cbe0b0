#include "layers.h"

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "boot/algorithm2.h"
#include "boot/distributed.h"
#include "boot/scheme_switch.h"
#include "common/parallel.h"
#include "fixture.h"
#include "hw/bootstrap_model.h"
#include "hw/pir_model.h"
#include "tfhe/blind_rotate.h"

namespace heapbench {

using namespace heap;

namespace {

/** Median per-call time of `fn` in ms over `reps` timed batches, each
 *  running at least `minMs`, after one untimed call. */
double
perCallMs(const std::function<void()>& fn, int reps, double minMs)
{
    fn();
    std::vector<double> perCall;
    for (int r = 0; r < reps; ++r) {
        size_t calls = 0;
        const double t0 = nowMs();
        double elapsed = 0;
        do {
            fn();
            ++calls;
            elapsed = nowMs() - t0;
        } while (elapsed < minMs);
        perCall.push_back(elapsed / static_cast<double>(calls));
    }
    return median(perCall);
}

/** perCallMs under a span named after the metric. */
double
timedLayer(Tracer& tracer, int64_t parent, const std::string& name,
           const std::function<void()>& fn, int reps, double minMs)
{
    ScopedSpan span(tracer, name, parent);
    return perCallMs(fn, reps, minMs);
}

math::RnsPoly
randomPoly(std::shared_ptr<const math::RnsBasis> basis, size_t limbs,
           Rng& rng)
{
    math::RnsPoly p(basis, limbs);
    for (size_t i = 0; i < limbs; ++i) {
        for (uint64_t& w : p.limb(i)) {
            w = rng.uniform(basis->modulus(i));
        }
    }
    return p;
}

rlwe::Ciphertext
freshCoeffCiphertext(const rlwe::SecretKey& sk, size_t limbs, Rng& rng)
{
    rlwe::Ciphertext ct = rlwe::encryptZero(sk, limbs, rng);
    ct.toCoeff();
    return ct;
}

constexpr size_t kLinkItems = 48;   ///< boot_serve's batch size
constexpr int kBootReplays = 5;
constexpr int kSlowReplays = 3;     ///< speedup, link exchange
constexpr int kPirReplays = 12;

/** rotateLocal over `items` cut into `shares` contiguous parts that
 *  run through parallelFor, each under a span; the accumulators come
 *  back in item order. */
std::vector<rlwe::Ciphertext>
rotateInShares(const boot::DistributedBootstrapper& dist,
               std::span<const lwe::LweCiphertext> items, size_t shares,
               Tracer& tracer, int64_t parent)
{
    const size_t n = items.size();
    const size_t share = (n + shares - 1) / shares;
    std::vector<rlwe::Ciphertext> rotated(n);
    parallelFor(0, shares, 1, [&](size_t k) {
        const size_t lo = std::min(n, k * share);
        const size_t hi = std::min(n, lo + share);
        ScopedSpan s(tracer, "boot.rotate.share", parent);
        auto accs = dist.rotateLocal(items.subspan(lo, hi - lo));
        std::move(accs.begin(), accs.end(), rotated.begin() + lo);
    });
    return rotated;
}

/** Front / rotate in `shares` parts / repack / finish of one
 *  bootstrap, each a child span of one root; returns the output. */
ckks::Ciphertext
replayBootstrap(const ckks::Context& ctx,
                const boot::DistributedBootstrapper& dist,
                const ckks::Ciphertext& in, size_t shares, Tracer& tracer,
                int64_t parent, int64_t* root)
{
    const auto basis = ctx.basis();
    ScopedSpan all(tracer, "boot.replay", parent);
    *root = all.id();
    std::optional<boot::FrontPhase> fp;
    {
        ScopedSpan s(tracer, "boot.front", all.id());
        fp = boot::runFrontPhase(ctx, in, 1.0, "heapbench replay");
    }
    std::vector<rlwe::Ciphertext> rotated;
    {
        ScopedSpan s(tracer, "boot.rotate", all.id());
        rotated = rotateInShares(dist, fp->items, shares, tracer, s.id());
    }
    std::optional<rlwe::Ciphertext> ctKq;
    {
        ScopedSpan s(tracer, "boot.repack", all.id());
        ctKq = tfhe::packRlwes(rotated, dist.packingKeys());
    }
    ScopedSpan s(tracer, "boot.finish", all.id());
    ckks::Ciphertext out = boot::finishBootstrap(
        std::move(*ctKq), fp->ms, *basis, in.scale, in.slots);
    out.budget = boot::bootstrapOutputBudget(
        ctx, in, dist.bootBlindRotateSigma(), *basis);
    return out;
}

/** Median over `ids` of one statistic of each span. */
double
medianOver(const std::vector<int64_t>& ids,
           const std::function<double(int64_t)>& stat)
{
    std::vector<double> v;
    for (const int64_t id : ids) {
        v.push_back(stat(id));
    }
    return median(v);
}

} // namespace

bool
replayLayers(uint64_t seed, const ReplayShape& shape, Tracer& tracer,
             MetricList& out)
{
    bool same = true;
    ScopedSpan root(tracer, "layers.replay");
    Rng rng(seed ^ 0x5bd1e995ULL);

    // ---- bootstrap side: N = 64 ----------------------------------
    ckks::Context ctx(bootParams(), seed);
    const auto basis = ctx.basis();
    boot::DistributedBootstrapper dist(ctx, 1, brGadget());
    boot::SchemeSwitchBootstrapper ss(ctx, brGadget());
    ss.setWorkers(shape.rotateShares);
    const BootInput in = std::move(makeBootPool(ctx, seed, 1).front());

    math::RnsPoly p64 = randomPoly(basis, basis->size(), rng);
    out.add("math.ntt_roundtrip_n64_us",
            1e3 * timedLayer(tracer, root.id(), "math.ntt_roundtrip_n64",
                             [&] {
                                 p64.toEval();
                                 p64.toCoeff();
                             },
                             5, 20),
            "us");

    const rlwe::RgswCiphertext brkLike = rlwe::rgswEncryptConstant(
        ctx.secretKey(), 1, brGadget(), rng, ctx.noiseParams());
    const rlwe::Ciphertext acc64 =
        freshCoeffCiphertext(ctx.secretKey(), basis->size(), rng);
    out.add("rlwe.ext_product_n64_us",
            1e3 * timedLayer(tracer, root.id(), "rlwe.ext_product_n64",
                             [&] {
                                 (void)rlwe::externalProduct(acc64,
                                                             brkLike);
                             },
                             5, 30),
            "us");

    const boot::FrontPhase fp =
        boot::runFrontPhase(ctx, in.ct, 1.0, "heapbench replay");
    const std::span<const lwe::LweCiphertext> items(fp.items);
    out.add("tfhe.blind_rotate_ms",
            timedLayer(tracer, root.id(), "tfhe.blind_rotate",
                       [&] { (void)dist.rotateLocal(items.first(1)); },
                       5, 30),
            "ms");
    std::vector<rlwe::Ciphertext> rotated = dist.rotateLocal(items);
    out.add("tfhe.repack_ms",
            timedLayer(tracer, root.id(), "tfhe.repack",
                       [&] {
                           (void)tfhe::packRlwes(rotated,
                                                 dist.packingKeys());
                       },
                       3, 30),
            "ms");

    // Phase split of one bootstrap, replayed from the public pieces;
    // the composition must reproduce bootstrap() byte for byte.
    const ckks::Ciphertext reference = dist.bootstrap(in.ct);
    const boot::DistributedTraffic traffic = dist.lastTraffic();
    std::vector<int64_t> replays;
    for (int r = 0; r < kBootReplays; ++r) {
        int64_t id = -1;
        const ckks::Ciphertext got = replayBootstrap(
            ctx, dist, in.ct, shape.rotateShares, tracer, root.id(), &id);
        same = same && sameBytes(got, reference);
        replays.push_back(id);
    }
    const auto childDuration = [&](int64_t rootId,
                                   const std::string& name) {
        return tracer.childDurationMs(rootId, name);
    };
    const double frontMs = medianOver(
        replays, [&](int64_t id) { return childDuration(id, "boot.front"); });
    const double rotateMs = medianOver(
        replays, [&](int64_t id) { return childDuration(id, "boot.rotate"); });
    const double repackMs = medianOver(
        replays, [&](int64_t id) { return childDuration(id, "boot.repack"); });
    const double finishMs = medianOver(
        replays, [&](int64_t id) { return childDuration(id, "boot.finish"); });
    const double replayMs = medianOver(
        replays, [&](int64_t id) { return tracer.durationMs(id); });
    out.add("boot.front_ms", frontMs, "ms");
    out.add("boot.rotate_ms", rotateMs, "ms");
    out.add("boot.repack_ms", repackMs, "ms");
    out.add("boot.finish_ms", finishMs, "ms");
    out.add("boot.replay_ms", replayMs, "ms");
    out.add("boot.rotate_share", rotateMs / replayMs, "ratio");
    out.add("boot.unaccounted_frac",
            medianOver(replays,
                       [&](int64_t id) {
                           return tracer.selfMs(id) / tracer.durationMs(id);
                       }),
            "ratio");

    // Scaling of the rotation to every pool thread, whatever the
    // workload uses: one share against four, in adjacent pairs.
    const auto timeShares = [&](size_t shares) {
        ScopedSpan s(tracer, "boot.rotate_" + std::to_string(shares)
                                 + "shares",
                     root.id());
        const double t0 = nowMs();
        (void)rotateInShares(dist, items, shares, tracer, s.id());
        return nowMs() - t0;
    };
    std::vector<double> speedup;
    for (int r = 0; r < kSlowReplays; ++r) {
        const double oneShare = timeShares(1);
        speedup.push_back(oneShare / timeShares(4));
    }
    out.add("boot.rotate_speedup_4t", median(speedup), "x");

    std::vector<double> stepRotate;
    for (int r = 0; r < 3; ++r) {
        ScopedSpan s(tracer, "boot.scheme_switch_bootstrap", root.id());
        (void)ss.bootstrap(in.ct);
        stepRotate.push_back(ss.lastStepTimes().blindRotateMs);
    }
    out.add("boot.step_rotate_ms", median(stepRotate), "ms");

    // One serving batch over the link protocol against the same batch
    // rotated locally: what framing, serialization and CRC cost.
    const auto batch = items.first(kLinkItems);
    std::vector<double> overhead;
    dist.resetProtocolRun();
    for (int r = 0; r < kSlowReplays; ++r) {
        boot::ExchangeStats st;
        double linkedMs = 0;
        {
            ScopedSpan s(tracer, "boot.exchange_rotate", root.id());
            const double t0 = nowMs();
            (void)dist.exchangeRotate(0, static_cast<uint64_t>(r + 1),
                                      batch, st);
            linkedMs = nowMs() - t0;
        }
        ScopedSpan s(tracer, "boot.rotate_local", root.id());
        const double t0 = nowMs();
        (void)dist.rotateLocal(batch);
        overhead.push_back(linkedMs / (nowMs() - t0) - 1.0);
    }
    out.add("boot.link_overhead_frac", median(overhead), "ratio");
    out.add("boot.wire_bytes_per_req",
            static_cast<double>(traffic.wireBytesOut
                                + traffic.wireBytesIn),
            "B");

    // ---- N = 1024 kernels, the pir_lookup shape ---------------------
    const PirDatabase db1024 = makePirDatabase(1024, seed);
    const PirQueries q1024 = makePirQueries(db1024, seed, 1);
    math::RnsPoly p1024 =
        randomPoly(db1024.params.basis, db1024.params.limbs, rng);
    out.add("math.ntt_roundtrip_n1024_us",
            1e3 * timedLayer(tracer, root.id(),
                             "math.ntt_roundtrip_n1024",
                             [&] {
                                 p1024.toEval();
                                 p1024.toCoeff();
                             },
                             5, 20),
            "us");
    const rlwe::RgswCiphertext& bit =
        q1024.queries.front()->dimBits.front().front();
    const rlwe::Ciphertext ct0 =
        freshCoeffCiphertext(*q1024.sk, db1024.params.limbs, rng);
    const rlwe::Ciphertext ct1 =
        freshCoeffCiphertext(*q1024.sk, db1024.params.limbs, rng);
    out.add("rlwe.ext_product_n1024_us",
            1e3 * timedLayer(tracer, root.id(), "rlwe.ext_product_n1024",
                             [&] { (void)rlwe::externalProduct(ct0, bit); },
                             5, 30),
            "us");
    out.add("tfhe.cmux_n1024_us",
            1e3 * timedLayer(tracer, root.id(), "tfhe.cmux_n1024",
                             [&] { (void)tfhe::cmux(bit, ct0, ct1); }, 5,
                             30),
            "us");

    // ---- lookup replay, at the workload's ring ----------------------
    const PirDatabase db = makePirDatabase(shape.pirRingN, seed);
    const PirQueries q = makePirQueries(db, seed, 1);
    const pir::PirQuery& query = *q.queries.front();

    // answer() and its replay alternate, each going first in every
    // other round, so warm caches favour neither. The host's speed
    // drifts by more than the gap being measured, so the unaccounted
    // share is the median over adjacent pairs.
    const pir::PirServer& server = *db.server;
    const rlwe::Ciphertext expected = server.answer(query);
    same = same && q.exact(db, 0, expected);
    std::vector<double> answerMs, groupMs, finishFoldMs, unaccounted;
    const auto timeAnswer = [&] {
        ScopedSpan s(tracer, "pir.answer", root.id());
        const double t0 = nowMs();
        const rlwe::Ciphertext answer = server.answer(query);
        answerMs.push_back(nowMs() - t0);
        same = same && sameWords(answer, expected);
    };
    const auto timeReplay = [&] {
        ScopedSpan all(tracer, "pir.replay", root.id());
        std::vector<rlwe::Ciphertext> firstPass;
        double groups = 0;
        for (size_t g = 0; g < server.firstDimGroups(); ++g) {
            ScopedSpan s(tracer, "pir.fold_group", all.id());
            const double t0 = nowMs();
            firstPass.push_back(server.foldFirstGroup(query, g));
            groups += nowMs() - t0;
        }
        ScopedSpan s(tracer, "pir.finish_fold", all.id());
        const double t0 = nowMs();
        const rlwe::Ciphertext folded =
            server.finishFold(query, std::move(firstPass));
        groupMs.push_back(groups);
        finishFoldMs.push_back(nowMs() - t0);
        same = same && sameWords(folded, expected);
    };
    for (int r = 0; r < kPirReplays; ++r) {
        if (r % 2 == 0) {
            timeAnswer();
            timeReplay();
        } else {
            timeReplay();
            timeAnswer();
        }
        unaccounted.push_back(
            1.0 - (groupMs.back() + finishFoldMs.back()) / answerMs.back());
    }
    out.add("pir.answer_ms", median(answerMs), "ms");
    out.add("pir.fold_group_ms",
            median(groupMs) / static_cast<double>(server.firstDimGroups()),
            "ms");
    out.add("pir.finish_fold_ms", median(finishFoldMs), "ms");
    out.add("pir.unaccounted_frac", median(unaccounted), "ratio");

    // ---- modeled accelerator: the paper's fully packed 8-FPGA case
    // and the replayed lookup shape, as fixed references -------------
    const hw::FpgaConfig cfg;
    const hw::HeapParams hp;
    const hw::BootstrapBreakdown model =
        hw::BootstrapModel(cfg, hp, 8).bootstrap(4096);
    out.add("hw.boot_front_ms", model.modSwitchMs, "ms");
    out.add("hw.boot_rotate_ms", model.blindRotateMs, "ms");
    out.add("hw.boot_finish_ms", model.finishMs, "ms");
    hw::PirShape lookup;
    lookup.ringN = shape.pirRingN;
    lookup.limbs = db.params.limbs;
    lookup.digitsPerLimb = db.params.gadget.digitsPerLimb;
    lookup.dims = db.params.dims;
    out.add("hw.pir_fold_ms", hw::PirModel(cfg, hp).answer(lookup).foldMs,
            "ms");
    return same;
}

} // namespace heapbench
