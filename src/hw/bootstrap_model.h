/**
 * @file
 * Multi-FPGA scheme-switching bootstrap timeline model (Sections V,
 * VI-E) and the amortized per-slot multiplication metric of Eq. 3.
 *
 * The model is anchored on the paper's measured stage split for the
 * fully packed case on eight FPGAs (0.0025 / 1.3303 / 0.1672 ms for
 * Algorithm 2's steps 1-2 / 3 / 4-5) and scales structurally:
 *
 *  - the BlindRotate stage scales with the per-FPGA ciphertext count
 *    ceil(n_br / fpgas) (the n_br knob of Section V) and with n_t,
 *  - communication uses the 100G CMAC link (458 cycles per RLWE
 *    ciphertext) and overlaps with compute per the paper's schedule,
 *  - key traffic uses the HBM bandwidth and the Section III-C key
 *    sizes.
 *
 * firstPrinciplesBlindRotateMs() additionally reports the unanchored
 * datapath estimate; EXPERIMENTS.md discusses the gap between it and
 * the paper's figure.
 */

#ifndef HEAP_HW_BOOTSTRAP_MODEL_H
#define HEAP_HW_BOOTSTRAP_MODEL_H

#include "hw/op_model.h"

namespace heap::hw {

/** Timeline of one scheme-switching bootstrap. */
struct BootstrapBreakdown {
    double modSwitchMs = 0;   ///< Algorithm 2 steps 1-2
    double blindRotateMs = 0; ///< step 3 compute (dominant)
    double commMs = 0;        ///< non-overlapped FPGA-to-FPGA traffic
    double finishMs = 0;      ///< repack + steps 4-5
    double totalMs = 0;
    /// Application bytes the protocol must deliver (loss-free volume).
    double commGoodputBytes = 0;
    /// Bytes actually crossing the links once retransmits are paid:
    /// goodput / (1 - lossRate). Equals goodput on reliable links.
    double commWireBytes = 0;
};

class BootstrapModel {
  public:
    BootstrapModel(const FpgaConfig& cfg, const HeapParams& p,
                   size_t numFpgas);

    size_t numFpgas() const { return fpgas_; }

    /** Timeline for bootstrapping with `slots` packed slots. */
    BootstrapBreakdown bootstrap(size_t slots) const;

    /**
     * Amortized per-slot multiplication time (Eq. 3) in microseconds.
     * Uses the paper's accounting: n = N message coefficients and
     * l = limbs at the starting bootstrapping modulus minus the
     * depth-1 bootstrap.
     */
    double tMultPerSlotUs(size_t slots) const;

    /** Bytes of BlindRotate keys read per bootstrap (Section III-C). */
    double keyReadBytes() const { return params_.brkTotalBytes(); }

    /** Conventional bootstrapping's key traffic (~32 GB). */
    double conventionalKeyReadBytes() const
    {
        return HeapParams::conventionalKeyBytes();
    }

    /** Unanchored first-principles estimate of the BlindRotate stage. */
    double firstPrinciplesBlindRotateMs(size_t slots) const;

    /**
     * Modeled time for ONE node to blind-rotate a batch of `count`
     * LWE ciphertexts (the modeled per-batch compute term; same
     * anchor scaling as bootstrap()).
     */
    double blindRotateBatchMs(size_t count) const;

    /**
     * Modeled 100G-link time to ship a `count`-ciphertext batch to a
     * secondary and its accumulators back, including the retransmit
     * inflation of setLinkLossRate(). Zero-cost batches don't exist:
     * the frame header and protocol turnaround are folded in as one
     * link round trip.
     */
    double batchCommMs(size_t count) const;

    /**
     * Fraction of frames lost/corrupted per link traversal and paid
     * for by retransmission (the fault-tolerance layer of the
     * functional model). 0 (the default) reproduces the paper's
     * reliable-link numbers; [0, 1) inflates the wire bytes by
     * 1 / (1 - rate) and re-derives the non-overlapped comm time.
     */
    void setLinkLossRate(double rate);
    double linkLossRate() const { return linkLossRate_; }

    /**
     * Modeled sustained service rate of ONE pod (this model's
     * `numFpgas`-FPGA group running back-to-back bootstraps at
     * `slots` packed slots), in bootstraps per second: the modeled
     * autoscaling oracle.
     */
    double podThroughputRps(size_t slots) const;

    /**
     * Smallest number of pods whose combined modeled throughput
     * covers `offeredRps` (k-FPGA scaling as the autoscaling oracle:
     * pods needed = ceil(offered / podThroughputRps)). Zero offered
     * load still needs one pod (a cluster cannot scale to nothing).
     */
    size_t podsNeeded(double offeredRps, size_t slots) const;

    const OpCostModel& ops() const { return ops_; }
    const HeapParams& params() const { return params_; }

  private:
    FpgaConfig cfg_;
    HeapParams params_;
    size_t fpgas_;
    OpCostModel ops_;
    double linkLossRate_ = 0;
};

} // namespace heap::hw

#endif // HEAP_HW_BOOTSTRAP_MODEL_H
