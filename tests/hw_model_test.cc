/**
 * @file
 * Hardware-model tests: the modeled numbers must land on the paper's
 * reported values (Tables II-VII shapes) — resource counts exactly,
 * timings within stated tolerances — and must scale structurally
 * (FPGA count, slot count, n_t), including the pod autoscaling
 * oracle.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "hw/app_model.h"
#include "hw/bootstrap_model.h"
#include "hw/fab_model.h"
#include "hw/pir_model.h"
#include "hw/reference.h"

namespace heap::hw {
namespace {

/** |model/paper - 1| */
double
relErr(double model, double paper)
{
    return std::abs(model / paper - 1.0);
}

struct HwFixture : ::testing::Test {
    FpgaConfig cfg;
    HeapParams params;
};

TEST_F(HwFixture, ParameterSetMatchesSectionIIIC)
{
    EXPECT_EQ(params.logQ(), 216u);
    // RLWE ciphertext ~0.44 MB.
    EXPECT_NEAR(params.rlweBytes() / 1e6, 0.44, 0.02);
    // LWE ciphertext ~2.3 KB.
    EXPECT_NEAR(params.lweBytes() / 1e3, 2.3, 0.1);
}

TEST_F(HwFixture, ResourceModelReproducesTableII)
{
    ResourceModel rm(cfg, params);
    // Memory layout constants of Figures 2-3.
    EXPECT_EQ(rm.uramBlocksPerRlwe(), 12u);
    EXPECT_EQ(rm.bramBlocksPerRlwe(), 192u);
    EXPECT_EQ(rm.uramRlweCapacity(), 80u);
    EXPECT_EQ(rm.bramRlweCapacity(), 20u);

    const auto u = rm.utilization();
    EXPECT_EQ(u.dsp, 6144u);
    EXPECT_EQ(u.uram, 960u);
    EXPECT_EQ(u.bram, 3840u);
    EXPECT_LT(relErr(static_cast<double>(u.lut), 1012000), 0.03);
    EXPECT_LT(relErr(static_cast<double>(u.ff), 1936000), 0.03);
}

TEST_F(HwFixture, KeySizesMatchSectionIIIC)
{
    // Our structural key-size formula gives ~2.1 MB/key (the paper
    // reports 3.52 MB; see EXPERIMENTS.md) — same order, and the
    // headline "an order of magnitude less key traffic than the
    // ~32 GB of conventional bootstrapping" holds either way.
    EXPECT_GT(params.brkBytes(), 1e6);
    EXPECT_LT(params.brkBytes(), 5e6);
    EXPECT_GT(HeapParams::conventionalKeyBytes()
                  / params.brkTotalBytes(),
              10.0);
}

TEST_F(HwFixture, BasicOpsLandNearTableIII)
{
    const OpCostModel ops(cfg, params);
    const auto& rows = ref::table3();
    // Add 0.001 ms, Mult 0.028 ms, Rescale 0.010 ms, Rotate 0.025 ms.
    EXPECT_LT(relErr(ops.addMs(), rows[0].heapMs), 0.5);
    EXPECT_LT(relErr(ops.multMs(), rows[1].heapMs), 0.5);
    EXPECT_LT(relErr(ops.rescaleMs(), rows[2].heapMs), 0.8);
    EXPECT_LT(relErr(ops.rotateMs(), rows[3].heapMs), 0.5);
    // BlindRotate within ~3x of 0.060 ms; the 156x-vs-TFHE-library
    // shape must survive regardless.
    EXPECT_LT(ops.blindRotateMs(), 3.0 * rows[4].heapMs);
    EXPECT_GT(rows[4].tfheMs / ops.blindRotateMs(), 30.0);
}

TEST_F(HwFixture, OperationOrderingMatchesPaper)
{
    const OpCostModel ops(cfg, params);
    // Add << Rescale < Rotate < Mult, as in Table III.
    EXPECT_LT(ops.addMs(), ops.rescaleMs());
    EXPECT_LT(ops.rescaleMs(), ops.rotateMs());
    EXPECT_LT(ops.rotateMs(), ops.multMs());
}

TEST_F(HwFixture, NttThroughputNearTableIV)
{
    const OpCostModel ops(cfg, params);
    const double got = ops.nttThroughputOpsPerSec();
    EXPECT_LT(relErr(got, 210e3), 0.25);
    // Faster than FAB (103K) and HEAX (90K).
    EXPECT_GT(got / 103e3, 1.5);
    EXPECT_GT(got / 90e3, 1.8);
}

TEST_F(HwFixture, BootstrapTimelineMatchesSectionVIE)
{
    const BootstrapModel bm(cfg, params, 8);
    const auto b = bm.bootstrap(4096);
    const auto anchors = ref::bootstrapStages();
    EXPECT_NEAR(b.modSwitchMs, anchors.modSwitchMs, 1e-4);
    EXPECT_NEAR(b.blindRotateMs, anchors.blindRotateMs, 0.01);
    EXPECT_NEAR(b.finishMs, anchors.finishMs, 0.01);
    EXPECT_NEAR(b.totalMs, 1.5, 0.1);
    // BlindRotate dominates the timeline.
    EXPECT_GT(b.blindRotateMs / b.totalMs, 0.8);
}

TEST_F(HwFixture, BootstrapScalesWithFpgasAndSlots)
{
    const BootstrapModel one(cfg, params, 1);
    const BootstrapModel eight(cfg, params, 8);
    // 8 FPGAs process the blind rotations ~8x faster.
    EXPECT_NEAR(one.bootstrap(4096).blindRotateMs
                    / eight.bootstrap(4096).blindRotateMs,
                8.0, 0.2);
    // Sparser packing => fewer LWE ciphertexts => faster (Table VI
    // discussion).
    EXPECT_LT(eight.bootstrap(256).totalMs,
              eight.bootstrap(4096).totalMs);
    EXPECT_LT(eight.bootstrap(1024).totalMs,
              eight.bootstrap(4096).totalMs);
}

TEST_F(HwFixture, BatchCostTermsScaleForTheServingScheduler)
{
    BootstrapModel bm(cfg, params, 8);
    // Compute term: strictly monotone in the batch size, and at the
    // anchor batch (512 cts on one FPGA) it reproduces the measured
    // BlindRotate stage time.
    EXPECT_GT(bm.blindRotateBatchMs(64), bm.blindRotateBatchMs(1));
    EXPECT_GT(bm.blindRotateBatchMs(512), bm.blindRotateBatchMs(64));
    EXPECT_NEAR(bm.blindRotateBatchMs(512), 1.3303, 0.01);
    // Communication term: monotone, and never free (the per-batch
    // CMAC framing overhead survives even a 1-ct batch).
    EXPECT_GT(bm.batchCommMs(64), bm.batchCommMs(1));
    EXPECT_GT(bm.batchCommMs(1), 0.0);
    // Link loss inflates the wire time of the same batch.
    const double clean = bm.batchCommMs(64);
    bm.setLinkLossRate(0.2);
    EXPECT_GT(bm.batchCommMs(64), clean);
    EXPECT_NEAR(bm.batchCommMs(64) / clean, 1.0 / 0.8, 0.2);
}

TEST_F(HwFixture, TMultPerSlotNearTableV)
{
    const BootstrapModel bm(cfg, params, 8);
    const double t = bm.tMultPerSlotUs(4096);
    // Paper: 0.031 us.
    EXPECT_LT(relErr(t, 0.031), 0.3);
    // Beats FAB by an order of magnitude; loses to ARK/SHARP in
    // wall-clock (Table V shape).
    EXPECT_GT(0.477 / t, 10.0);
    EXPECT_LT(0.014 / t, 1.0);
}

TEST_F(HwFixture, LrIterationNearTableVI)
{
    const AppModel app(cfg, params, 8);
    const double t = app.lrIterationSeconds();
    EXPECT_LT(relErr(t, 0.007), 0.25);
    // ~21% of the iteration in bootstrapping (Section VI-F.1).
    const double frac = app.bootstrapFraction(AppModel::helrIteration());
    EXPECT_NEAR(frac, 0.21, 0.08);
    // Beats FAB and FAB-2.
    EXPECT_GT(0.103 / t, 10.0);
    EXPECT_GT(0.081 / t, 8.0);
}

TEST_F(HwFixture, ResnetNearTableVII)
{
    const AppModel app(cfg, params, 8);
    const double t = app.resnetSeconds();
    EXPECT_LT(relErr(t, 0.267), 0.25);
    // ~44% of inference in bootstrapping (Section VI-F.2).
    const double frac =
        app.bootstrapFraction(AppModel::resnetInference());
    EXPECT_NEAR(frac, 0.44, 0.12);
    // Beats CraterLake, loses to ARK/SHARP (Table VII shape).
    EXPECT_GT(0.321 / t, 1.0);
    EXPECT_LT(0.125 / t, 1.0);
}

TEST_F(HwFixture, CommunicationStaysOffCriticalPath)
{
    // Section V: communication between FPGAs is overlapped so it is
    // not the bottleneck at full packing.
    const BootstrapModel bm(cfg, params, 8);
    const auto b = bm.bootstrap(4096);
    EXPECT_LT(b.commMs / b.totalMs, 0.1);
}

TEST_F(HwFixture, FirstPrinciplesEstimateIsReported)
{
    // The unanchored datapath estimate exists and is far larger than
    // the paper's stage anchor — a documented reproduction finding.
    const BootstrapModel bm(cfg, params, 8);
    const double fp = bm.firstPrinciplesBlindRotateMs(4096);
    EXPECT_GT(fp, bm.bootstrap(4096).blindRotateMs);
}

TEST_F(HwFixture, FabStructuralModelNearPublished)
{
    // The conventional-bootstrap baseline priced on the same FU
    // arithmetic must land within ~3x of FAB's published
    // T_mult,a/slot — close enough that every Table V/VI ordering
    // ("HEAP beats FAB by ~15x") is robust to the model error.
    const FabModel fab(cfg);
    const double t = fab.tMultPerSlotUs();
    EXPECT_GT(t, FabModel::publishedTMultPerSlotUs() / 3.0);
    EXPECT_LT(t, FabModel::publishedTMultPerSlotUs() * 3.0);
    // And HEAP's modeled bootstrap beats it by an order of magnitude.
    const BootstrapModel bm(cfg, params, 8);
    EXPECT_GT(t / bm.tMultPerSlotUs(4096), 10.0);
    // FAB's bootstrap dominates its LR iteration (~70%), unlike HEAP.
    EXPECT_GT(FabModel::publishedBootstrapFractionLr(), 0.5);
    // FAB-2: eight FPGAs buy < 20% on the serial bootstrap (the
    // paper's motivating observation) while HEAP scales ~8x.
    const double gain = fab.bootstrapMs() / fab.bootstrapMs(8);
    EXPECT_LT(gain, 1.25);
    EXPECT_GT(gain, 1.1);
    const BootstrapModel one(cfg, params, 1);
    EXPECT_GT(one.bootstrap(4096).blindRotateMs
                  / bm.bootstrap(4096).blindRotateMs,
              7.5);
}

TEST_F(HwFixture, PirModelScalesWithShapeAndFeedsAutoscaling)
{
    const PirModel pm(cfg, params);
    PirShape s;
    s.ringN = 8192;
    s.limbs = 2;
    s.digitsPerLimb = 2;
    s.dims = {64, 64};

    // Every cost term is positive and the timeline adds up.
    EXPECT_GT(pm.externalProductMs(s), 0.0);
    EXPECT_GT(pm.cmuxMs(s), pm.externalProductMs(s));
    EXPECT_GT(pm.queryBytes(s), 0.0);
    EXPECT_GT(pm.responseBytes(s), 0.0);
    // The query (log T RGSW ciphertexts) dwarfs the one-RLWE answer.
    EXPECT_GT(pm.queryBytes(s), pm.responseBytes(s));
    const PirBreakdown b = pm.answer(s);
    EXPECT_NEAR(b.totalMs, b.queryCommMs + b.foldMs + b.responseCommMs,
                1e-9);
    EXPECT_DOUBLE_EQ(b.foldMs, pm.answerMs(s));

    // Dimension 0 folds the full table and must dominate the later,
    // geometrically shrinking folds.
    EXPECT_GT(pm.dimensionFoldMs(s, 0), pm.dimensionFoldMs(s, 1));

    // More cells → more fold work; and the CMux count of a full fold
    // is factorization-invariant (T - 1 trees collapse T cells to 1
    // however the dimensions split), so a flat {4096} layout costs
    // exactly what {64, 64} does — the multi-dim win is the QUERY
    // volume vs the naive one-RLWE-per-cell packing, not the fold.
    PirShape bigger = s;
    bigger.dims = {128, 64};
    EXPECT_GT(pm.answerMs(bigger), pm.answerMs(s));
    PirShape flat = s;
    flat.dims = {4096};
    EXPECT_DOUBLE_EQ(pm.answerMs(flat), pm.answerMs(s));
    EXPECT_DOUBLE_EQ(pm.queryBytes(flat), pm.queryBytes(s));

    // Autoscaling oracle: throughput is the reciprocal cadence, and
    // podsNeeded covers the offered rate with the smallest count.
    const double qps = pm.podThroughputQps(s);
    EXPECT_GT(qps, 0.0);
    EXPECT_EQ(pm.podsNeeded(0.0, s), 1u);
    EXPECT_EQ(pm.podsNeeded(qps * 0.99, s), 1u);
    EXPECT_EQ(pm.podsNeeded(qps * 3.5, s), 4u);
}

TEST_F(HwFixture, ReferenceTablesAreComplete)
{
    EXPECT_EQ(ref::table2().size(), 5u);
    EXPECT_EQ(ref::table3().size(), 5u);
    EXPECT_EQ(ref::table4().size(), 3u);
    EXPECT_EQ(ref::table5().size(), 10u);
    EXPECT_EQ(ref::table6Lr().size(), 10u);
    EXPECT_EQ(ref::table7Resnet().size(), 6u);
    EXPECT_EQ(ref::table8().size(), 3u);
    // HEAP rows close each comparison table.
    EXPECT_EQ(ref::table5().back().work, "HEAP");
    EXPECT_EQ(ref::table6Lr().back().work, "HEAP");
    EXPECT_EQ(ref::table7Resnet().back().work, "HEAP");
}

TEST(Cluster, AutoscalingOracleMatchesModeledPodThroughput)
{
    const hw::BootstrapModel model(hw::FpgaConfig{}, hw::HeapParams{},
                                   8);
    const double rps = model.podThroughputRps(64);
    ASSERT_GT(rps, 0.0);
    // The oracle is the ceiling of offered / modeled per-pod rate,
    // with a floor of one pod.
    EXPECT_EQ(model.podsNeeded(0.0, 64), 1u);
    EXPECT_EQ(model.podsNeeded(rps * 0.5, 64), 1u);
    EXPECT_EQ(model.podsNeeded(rps * 1.0, 64), 1u);
    EXPECT_EQ(model.podsNeeded(rps * 1.5, 64), 2u);
    EXPECT_EQ(model.podsNeeded(rps * 6.01, 64), 7u);
    // Nondecreasing in offered load.
    EXPECT_GE(model.podsNeeded(rps * 8, 64),
              model.podsNeeded(rps * 4, 64));
}

} // namespace
} // namespace heap::hw
