/**
 * @file
 * Shared pieces of Algorithm 2 used by both the single-process
 * bootstrapper (scheme_switch.h) and the distributed multi-node
 * protocol (distributed.h): the bootstrapping key set, the
 * exact-division modulus switch (steps 1-2), the pre-scaled triangle
 * test polynomial, and the finishing arithmetic (steps 4-5).
 */

#ifndef HEAP_BOOT_ALGORITHM2_H
#define HEAP_BOOT_ALGORITHM2_H

#include <memory>

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
