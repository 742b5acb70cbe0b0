/**
 * @file
 * The paper's primary contribution: CKKS bootstrapping via CKKS->TFHE
 * scheme switching (Section III, Algorithm 2).
 *
 * Given a level-1 CKKS ciphertext ct = (a, b) in R_q^2:
 *
 *   1. ct'   = 2N * ct (mod q)
 *   2. ct_ms = (2N * ct - ct') / q  in R_{2N}   (exact division)
 *   3. ct_kq = Repack( BlindRotate( Extract(ct_ms) ) )  mod Qp
 *   4. ct''  = ct_kq + ct' (mod Qp)             = Enc(2N * (m + e))
 *   5. ct_boot = Rescale( round(p / 2N) * ct'', p )  in R_Q
 *
 * The blind rotations use the triangle LUT F(u) = q * u (pre-divided
 * by the repacking gain); per the exact identity
 * q*u_i + phi'_i = 2N*(m_i + e_i), the modulus-switch rounding error
 * cancels *exactly* against ct', so the output error is only the
 * blind-rotate + repack noise.
 *
 * Every coefficient's BlindRotate is independent — the source of the
 * paper's multi-FPGA parallelism — so the N rotations are cut into
 * contiguous shares that run concurrently on the process-wide pool,
 * each share key-major (Section IV-E).
 *
 * Functional-scope note (see DESIGN.md): the functional path extracts
 * with the full ring secret (n_t = N, no intermediate LWE key switch),
 * which preserves Algorithm 2's exact error cancellation; the hardware
 * model uses the paper's n_t = 500.
 */

#ifndef HEAP_BOOT_SCHEME_SWITCH_H
#define HEAP_BOOT_SCHEME_SWITCH_H

#include <cstddef>
#include <memory>

#include "boot/algorithm2.h"
#include "ckks/evaluator.h"

namespace heap::boot {

/** Wall-clock split of the last bootstrap (mirrors Section VI-E). */
struct BootstrapStepTimes {
    double modSwitchMs = 0;   ///< Algorithm 2 steps 1-2 + extraction
    double blindRotateMs = 0; ///< step 3 (N blind rotations)
    double repackMs = 0;      ///< step 3 (repacking)
    double finishMs = 0;      ///< steps 4-5
};

/**
 * Runs the scheme-switching bootstrap. Its key set (blind-rotate
 * keys, RGSW of each secret coefficient, and repacking automorphism
 * keys: the paper's 18x-smaller bootstrapping key set) is derived
 * from a CKKS context's secret at construction. Copies share it.
 */
class SchemeSwitchBootstrapper {
  public:
    /**
     * Generates bootstrapping keys (makeBootstrapKeys).
     * @param brGadget optional gadget override for the blind-rotate
     *        keys (smaller digits => less noise, more compute); the
     *        context's gadget is used when digitsPerLimb is 0.
     */
    explicit SchemeSwitchBootstrapper(
        const ckks::Context& ctx,
        rlwe::GadgetParams brGadget = {.baseBits = 0, .digitsPerLimb = 0});

    /**
     * Bootstraps a level-1 ciphertext back to the top level. The
     * ciphertext's message magnitude must satisfy |m + e| < q_0 / 8
     * (the LUT identity window).
     */
    ckks::Ciphertext bootstrap(const ckks::Ciphertext& ct) const;

    /**
     * Number of parallel blind-rotate shares (default 1 = serial).
     * Shares execute on the process-wide pool (common/parallel.h),
     * each rotated key-major (tfhe::blindRotateBatch); results are
     * byte-identical for every worker count.
     */
    void setWorkers(size_t workers);
    size_t workers() const { return workers_; }

    const BootstrapStepTimes& lastStepTimes() const { return times_; }

    /** Total serialized key bytes (BootstrapKeys::bytes()). */
    size_t keyBytes() const;

  private:
    const ckks::Context* ctx_;
    std::shared_ptr<const BootstrapKeys> keys_;
    size_t workers_ = 1;
    mutable BootstrapStepTimes times_;
};

} // namespace heap::boot

#endif // HEAP_BOOT_SCHEME_SWITCH_H
