/**
 * @file
 * Cost model for the encrypted-lookup (PIR) workload on the HEAP
 * datapath, mirroring hw::BootstrapModel for the second tenant class:
 * a PIR answer is a cascade of CMux external products (the same
 * basis-conversion / ExternalProduct hardware of Section IV-E that
 * BlindRotate iterates), so the per-dimension fold cost is derived
 * from the OpCostModel's NTT/pointwise kernel cycles and the HBM
 * bandwidth, and the query/response communication terms use the
 * CMAC link. podThroughputQps()/podsNeeded() are the modeled
 * autoscaling oracle, like the bootstrap model's podThroughputRps().
 * Serving does not read this model: pods price work at their
 * measured cost (serve::Pod::msPerItem).
 */

#ifndef HEAP_HW_PIR_MODEL_H
#define HEAP_HW_PIR_MODEL_H

#include <cstddef>
#include <vector>

#include "hw/op_model.h"

namespace heap::hw {

/** Shape of one PIR deployment: ring, limbs, gadget, dimensions. */
struct PirShape {
    size_t ringN = 8192;
    size_t limbs = 2;
    int digitsPerLimb = 2;
    /** Per-dimension database factor sizes (powers of two). */
    std::vector<size_t> dims;

    size_t
    totalCells() const
    {
        size_t total = 1;
        for (const size_t d : dims) {
            total *= d;
        }
        return total;
    }

    /** RGSW selection bits in one query: log2(totalCells). */
    size_t
    queryBits() const
    {
        size_t bits = 0;
        for (const size_t d : dims) {
            size_t b = 0;
            while ((size_t{1} << b) < d) {
                ++b;
            }
            bits += b;
        }
        return bits;
    }
};

/** Per-answer modeled timeline (the PIR analogue of
 *  BootstrapBreakdown). */
struct PirBreakdown {
    double queryCommMs = 0;    ///< client -> pod query upload
    double foldMs = 0;         ///< all dimension folds (compute)
    double responseCommMs = 0; ///< one-RLWE answer download
    double totalMs = 0;
    double queryBytes = 0;
    double responseBytes = 0;
};

class PirModel {
  public:
    PirModel(const FpgaConfig& cfg, const HeapParams& p);

    /**
     * One external product at the shape's limbs/digits: forward NTTs
     * of the 2 * limbs * d digit polynomials, MAC against the RGSW
     * rows, overlapped with the HBM reads of the row material —
     * latency is max(compute, memory), like the op model's kernels.
     */
    double externalProductMs(const PirShape& s) const;

    /** One CMux: the external product plus the two elementwise
     *  ciphertext additions around it. */
    double cmuxMs(const PirShape& s) const;

    /**
     * Modeled compute of folding dimension `k` given the table size
     * entering it (cells / prod(dims[0..k))): a CMux tree spends
     * (tableIn - tableOut) CMuxes.
     */
    double dimensionFoldMs(const PirShape& s, size_t k) const;

    /** Sum of every dimension fold: the per-answer compute cost. */
    double answerMs(const PirShape& s) const;

    /** RGSW query upload volume: queryBits() RGSW ciphertexts, each
     *  2 gadget halves of limbs * d RLWE rows. */
    double queryBytes(const PirShape& s) const;

    /** One RLWE ciphertext at the shape's limbs — the response
     *  communication term the tentpole asks for. */
    double responseBytes(const PirShape& s) const;

    /** Full per-answer timeline including CMAC link terms. */
    PirBreakdown answer(const PirShape& s) const;

    /** Sustained one-pod answer rate: back-to-back folds with the
     *  response (not the reusable query) on the link. */
    double podThroughputQps(const PirShape& s) const;

    /** Smallest pod count covering `offeredQps` (>= 1). */
    size_t podsNeeded(double offeredQps, const PirShape& s) const;

    const OpCostModel& ops() const { return ops_; }

  private:
    /** Bytes of one RLWE ciphertext at the shape's ring and limbs. */
    double rlweBytes(const PirShape& s) const;

    FpgaConfig cfg_;
    HeapParams params_;
    OpCostModel ops_;
};

} // namespace heap::hw

#endif // HEAP_HW_PIR_MODEL_H
