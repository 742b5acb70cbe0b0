/**
 * @file
 * Residue number system (RNS) polynomials.
 *
 * A ciphertext polynomial with a large modulus Q = prod(q_i) is stored
 * as one machine-word "limb" per prime q_i (Section II-A of the paper).
 * RnsPoly tracks the active limb count (the CKKS level) and whether the
 * limbs are in coefficient or evaluation (NTT) representation.
 */

#ifndef HEAP_MATH_RNS_H
#define HEAP_MATH_RNS_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "math/modarith.h"
#include "math/ntt.h"

namespace heap::math {

class BaseConverter;

/**
 * Cached per-basis gadget power table: pow[i * digits + j] =
 * (2^baseBits)^j mod q_i, with Shoup companions. Shared by gadget
 * encryption and decomposition (rlwe/gadget.cc).
 */
struct GadgetPowerTable {
    int baseBits = 0;
    int digits = 0;
    std::vector<uint64_t> pow;
    std::vector<uint64_t> powShoup;
};

/**
 * A fixed chain of NTT-friendly prime moduli for ring dimension N,
 * with shared NTT tables and CRT constants.
 */
class RnsBasis {
  public:
    /**
     * Builds a basis over Z[X]/(X^n + 1) for the given prime chain.
     * @pre every modulus is prime, = 1 (mod 2n), and distinct.
     */
    RnsBasis(size_t n, std::vector<uint64_t> moduli);

    // Out-of-line: the cache holds unique_ptrs to the forward-declared
    // BaseConverter.
    ~RnsBasis();

    size_t n() const { return n_; }
    size_t size() const { return moduli_.size(); }
    uint64_t modulus(size_t i) const { return moduli_[i]; }
    const std::vector<uint64_t>& moduli() const { return moduli_; }
    const NttTables& ntt(size_t i) const { return *ntt_[i]; }
    const BarrettReducer& reducer(size_t i) const { return reducers_[i]; }

    /** Returns [q_j^{-1}]_{q_i} (cached). @pre i != j. */
    uint64_t invModulus(size_t j, size_t i) const;

    /** Shoup companion of invModulus(j, i) (cached). @pre i != j. */
    uint64_t invModulusShoup(size_t j, size_t i) const;

    /** log2(prod of the first `limbs` moduli). */
    double logQ(size_t limbs) const;

    /**
     * Cached exact base converter from the contiguous sub-chain
     * [lo, hi) to its complement within the full chain — the hybrid
     * key-switch ModUp shape. Built on first use, thread-safe.
     */
    const BaseConverter& baseConverterFor(size_t lo, size_t hi) const;

    /**
     * Cached gadget base-power table for a (baseBits, digits)
     * configuration. Built on first use, thread-safe.
     */
    const GadgetPowerTable& gadgetPowersFor(int baseBits,
                                            int digits) const;

  private:
    size_t n_;
    std::vector<uint64_t> moduli_;
    std::vector<std::unique_ptr<NttTables>> ntt_;
    std::vector<BarrettReducer> reducers_;
    // invQ_[j * L + i] = q_j^{-1} mod q_i (with Shoup companions).
    std::vector<uint64_t> invQ_, invQShoup_;
    // Lazily-built per-context tables (see baseConverterFor /
    // gadgetPowersFor). Guarded by cacheMutex_; entries are stable
    // once inserted, so returned references never dangle.
    mutable std::mutex cacheMutex_;
    mutable std::map<std::pair<size_t, size_t>,
                     std::unique_ptr<BaseConverter>>
        baseConvCache_;
    mutable std::map<std::pair<int, int>,
                     std::unique_ptr<GadgetPowerTable>>
        gadgetPowerCache_;
};

/** Representation domain of RnsPoly limbs. */
enum class Domain { Coeff, Eval };

/**
 * An element of R_{Q_l} = Z_{Q_l}[X]/(X^N+1) in RNS form with
 * l = limbCount() active limbs.
 *
 * Storage is limb-major and contiguous: one 64-byte-aligned
 * allocation of limbCount() * n words, limb i occupying words
 * [i*n, (i+1)*n). This is the software analogue of the paper's
 * per-limb lane layout (Section II-A): kernels stream each limb as
 * one flat array, and whole-poly copies/serialization are single
 * memcpy-sized passes.
 */
class RnsPoly {
  public:
    RnsPoly() = default;

    /** Creates the zero polynomial with `limbs` active limbs. */
    RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t limbs,
            Domain domain = Domain::Coeff);

    // Copies trim to the active limbs (dropLimbs only shrinks the
    // active count, not the allocation).
    RnsPoly(const RnsPoly& other);
    RnsPoly& operator=(const RnsPoly& other);
    RnsPoly(RnsPoly&&) noexcept = default;
    RnsPoly& operator=(RnsPoly&&) noexcept = default;

    const RnsBasis& basis() const { return *basis_; }
    std::shared_ptr<const RnsBasis> basisPtr() const { return basis_; }
    size_t n() const { return n_; }
    size_t limbCount() const { return limbs_; }
    Domain domain() const { return domain_; }
    bool empty() const { return basis_ == nullptr; }

    std::span<uint64_t> limb(size_t i)
    {
        return {data_.data() + i * n_, n_};
    }
    std::span<const uint64_t> limb(size_t i) const
    {
        return {data_.data() + i * n_, n_};
    }

    /** The contiguous limb-major buffer of all active limbs. */
    std::span<uint64_t> flat() { return {data_.data(), limbs_ * n_}; }
    std::span<const uint64_t> flat() const
    {
        return {data_.data(), limbs_ * n_};
    }

    /** Overwrites all limbs with zero. */
    void setZero();

    /** Whether every word of the active limbs is 0: the zero
     *  polynomial, in either domain. Stops at the first nonzero word. */
    bool isZero() const;

    /** Converts all limbs to the evaluation domain (no-op if already;
     *  the zero polynomial only changes its domain tag). */
    void toEval();

    /** Converts all limbs to the coefficient domain (no-op if already;
     *  the zero polynomial only changes its domain tag). */
    void toCoeff();

    /** Forces the domain tag without transforming (expert use). */
    void setDomain(Domain d) { domain_ = d; }

    // Element-wise ring operations (operands must share basis, limb
    // count, and domain).
    void addInPlace(const RnsPoly& other);
    void subInPlace(const RnsPoly& other);
    void negInPlace();

    /** Pointwise product; both operands must be in Eval domain. */
    void mulPointwiseInPlace(const RnsPoly& other);

    /** out += a * b (pointwise, Eval domain). */
    void mulPointwiseAccum(const RnsPoly& a, const RnsPoly& b);

    /** Multiplies every limb by the integer scalar c (c reduced per limb). */
    void mulScalarInPlace(uint64_t c);

    /** Multiplies limb i by cPerLimb[i]. */
    void mulScalarRnsInPlace(std::span<const uint64_t> cPerLimb);

    /** Applies X -> X^t. @pre Coeff domain, t odd. */
    RnsPoly automorphism(uint64_t t) const;

    /** Multiplies by X^k (negacyclic). @pre Coeff domain. */
    RnsPoly monomialMul(uint64_t k) const;

    /** Drops the last `count` limbs without scaling (CKKS ModReduce). */
    void dropLimbs(size_t count = 1);

    /**
     * RNS rescale: divides by the last active modulus and drops it
     * (CKKS Rescale, Section II-A). Works in either domain; returns in
     * the same domain it was given.
     */
    void rescaleLastLimb();

    /** Deep copy restricted to the first `limbs` limbs. */
    RnsPoly restrictedTo(size_t limbs) const;

  private:
    std::shared_ptr<const RnsBasis> basis_;
    AlignedU64 data_; ///< limb-major: limb i at [i*n_, (i+1)*n_)
    size_t n_ = 0;
    size_t limbs_ = 0; ///< active limbs (<= data_.size() / n_)
    Domain domain_ = Domain::Coeff;
};

/** Embeds small signed coefficients into all `limbs` limbs of a basis,
 *  Coeff domain. At most n coefficients; the missing high ones are 0. */
RnsPoly rnsFromSigned(std::shared_ptr<const RnsBasis> basis, size_t limbs,
                      std::span<const int64_t> coeffs);

/**
 * CRT-recomposes residues (one per modulus) into the centered value in
 * (-Q/2, Q/2], returned as long double via Garner mixed-radix digits.
 * Accurate when the centered magnitude is far below Q.
 */
long double crtToCenteredDouble(std::span<const uint64_t> residues,
                                std::span<const uint64_t> moduli);

/**
 * Exact centered CRT recomposition; requires |centered value| < 2^62.
 */
int64_t crtToCenteredInt64(std::span<const uint64_t> residues,
                           std::span<const uint64_t> moduli);

} // namespace heap::math

#endif // HEAP_MATH_RNS_H
