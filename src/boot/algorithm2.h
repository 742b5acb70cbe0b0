/**
 * @file
 * Algorithm 2, written once: the bootstrapping key set, the front
 * phase (steps 1-2 plus extraction), the rotate loop over contiguous
 * shares (step 3a), and the finish phase (steps 4-5 plus the output
 * budget). The single-process bootstrapper (scheme_switch.h), the
 * distributed protocol (distributed.h) and the serving runtime
 * (serve/service.h) are drivers of these pieces; only the repack
 * (tfhe::packRlwes) stays at each call site, so drivers can time it.
 */

#ifndef HEAP_BOOT_ALGORITHM2_H
#define HEAP_BOOT_ALGORITHM2_H

#include <functional>
#include <memory>
#include <span>

#include "ckks/context.h"
#include "lwe/lwe.h"
#include "tfhe/blind_rotate.h"
#include "tfhe/repack.h"

namespace heap::boot {

/** Output of Algorithm 2's steps 1-2. */
struct ModSwitched {
    rlwe::Ciphertext ctPrime;   ///< 2N * ct (mod q), single limb
    std::vector<uint64_t> aMs;  ///< (2N*a - a') / q, entries in [0, 2N)
    std::vector<uint64_t> bMs;
};

/**
 * The bootstrapping key set (the paper's 18x-smaller set) plus
 * Algorithm 2's test polynomial. Generated once and immutable: copies
 * and replicas of a bootstrapper, and the secondaries of a
 * distributed one, all reference the same set.
 */
struct BootstrapKeys {
    rlwe::GadgetParams brGadget; ///< gadget of the blind-rotate keys
    tfhe::BlindRotateKey brk;    ///< RGSW of each ring-secret coefficient
    tfhe::PackingKeys packing;   ///< repacking automorphism keys
    math::RnsPoly testPoly;      ///< makeBootstrapTestPoly(basis)
    /** Predicted accumulator error of one blind rotation under brk
     *  (tfhe::blindRotateSigma over the full basis). */
    double brSigma = 0;

    /** Serialized bytes of the key objects: rows x 2 polys x limbs x
     *  N words of every RGSW half and packing key (the Section III-C
     *  accounting, and a serving pod's per-tenant key footprint). */
    size_t bytes() const;
};

/**
 * Generates the key set from ctx's secret: blind-rotate keys over the
 * ring secret itself (n_t = N), then the packing keys, both drawn
 * from ctx.rng(). `brGadget` overrides the context's gadget for the
 * blind-rotate keys when its digitsPerLimb is nonzero.
 */
std::shared_ptr<const BootstrapKeys> makeBootstrapKeys(
    const ckks::Context& ctx, rlwe::GadgetParams brGadget);

/**
 * Steps 1-2: ct' = 2N*ct (mod q) and the exact-division modulus
 * switch to R_2N. @pre in is a level-1 Coeff-domain ciphertext.
 */
ModSwitched modSwitchSplit(const rlwe::Ciphertext& in,
                           const math::RnsBasis& basis);

/**
 * The blind-rotation LUT of Algorithm 2: F(u) = q0 * u on the
 * identity window, pre-divided by the repacking gain N, over the full
 * bootstrapping basis Qp.
 */
math::RnsPoly makeBootstrapTestPoly(
    std::shared_ptr<const math::RnsBasis> basis);

/**
 * Steps 4-5: ct'' = ct_kq + lift(ct'), multiply by round(p/2N),
 * rescale by p. Returns the refreshed CKKS ciphertext.
 *
 * @param ctKq  repacked blind-rotation output (full basis)
 * @param ms    the step 1-2 artifacts
 * @param inScale/slots metadata of the original ciphertext
 */
ckks::Ciphertext finishBootstrap(rlwe::Ciphertext ctKq,
                                 const ModSwitched& ms,
                                 const math::RnsBasis& basis,
                                 double inScale, size_t slots);

/** Output of the full front phase (steps 1-2 plus extraction). */
struct FrontPhase {
    ModSwitched ms;
    /** All n extracted blind-rotate work items, in index order, each
     *  stamped with the modulus-switched budget. */
    std::vector<lwe::LweCiphertext> items;
};

/**
 * The complete front half of Algorithm 2 as one unit: budget
 * validation, the exact-division modulus switch, and extraction of
 * all n LWE work items. Every item carries the modulus-switched
 * budget (the input error scaled by 2N/q0) so any item may cross a
 * link; the budget never feeds the rotation arithmetic, which keeps
 * local and remote lanes interchangeable. Shared by the sequential
 * bootstrappers and the serving runtime's front stage so both paths
 * extract byte-identical items.
 *
 * @pre in is a level-1 ciphertext; throws UserError otherwise.
 */
FrontPhase runFrontPhase(const ckks::Context& ctx,
                         const ckks::Ciphertext& in,
                         double minBudgetBits, const char* who);

/** Blind-rotates one contiguous share of the items, returning its
 *  accumulators in item order. */
using ShareRotator = std::function<std::vector<rlwe::Ciphertext>(
    size_t share, std::span<const lwe::LweCiphertext> items)>;

/**
 * Step 3a, the rotate loop of every bootstrap driver: cuts `items`
 * into `shares` contiguous spans of ceil(n / shares) items (Section
 * V's even split; empty trailing spans are skipped), runs
 * rotate(k, span k) under one parallelFor with at most `inFlight`
 * spans at a time, and returns all accumulators in item order. The
 * result is independent of `shares` and `inFlight` whenever `rotate`
 * is (blind rotation draws no randomness).
 */
std::vector<rlwe::Ciphertext> rotateShares(
    std::span<const lwe::LweCiphertext> items, size_t shares,
    size_t inFlight, const ShareRotator& rotate);

/**
 * The finish phase as one unit: finishBootstrap on the repacked
 * accumulators, the analytic output budget from keys.brSigma, and the
 * context's noise-guard check. The budget never depends on how the
 * rotations ran, so every driver returns byte-identical outputs.
 *
 * @param in    the bootstrap's input (scale, slots and budget)
 * @param ctKq  tfhe::packRlwes of the accumulators, in item order
 * @param ms    the front phase's modulus-switch artifacts
 */
ckks::Ciphertext runFinishPhase(const ckks::Context& ctx,
                                const BootstrapKeys& keys,
                                const ckks::Ciphertext& in,
                                rlwe::Ciphertext ctKq,
                                const ModSwitched& ms);

/**
 * Input validation for bootstrap(): if `in` carries a tracked budget
 * and the context guard is active, requires at least `minBudgetBits`
 * of remaining budget (the scheme-switch path needs the phase to stay
 * inside the triangle LUT's identity window, so > 1 bit; the
 * conventional path only needs decryptability, so > 0). Reports
 * through the context's guard policy, naming `who`.
 */
void checkBootstrappable(const ckks::Context& ctx,
                         const ckks::Ciphertext& in,
                         double minBudgetBits, const char* who);

/**
 * Predicted output budget of an Algorithm 2 bootstrap: the input
 * error amplified by 2N, the repacked blind-rotation error, the
 * multiply by c = round(p/2N), and the final rescale by p. Counter
 * provenance is inherited from `in` with bootstraps incremented.
 *
 * @param brSigma predicted accumulator error of one blind rotation
 *                (see tfhe::blindRotateSigma), in Qp units
 */
NoiseBudget bootstrapOutputBudget(const ckks::Context& ctx,
                                  const ckks::Ciphertext& in,
                                  double brSigma,
                                  const math::RnsBasis& bootBasis);

} // namespace heap::boot

#endif // HEAP_BOOT_ALGORITHM2_H
