/**
 * @file
 * RNS gadget decomposition, gadget (key-switching) ciphertexts, RGSW
 * ciphertexts, and the external product.
 *
 * The gadget realizes the paper's decomposition degree d (Section
 * III-C, d = 2): every active limb [x]_{q_i} is split into d base-B
 * digits (B = 2^baseBits; for 36-bit limbs and d = 2 the digits are
 * 18-bit, exactly the paper's configuration). The gadget vector entry
 * for (limb i, digit j) is g_{i,j} = e_i * B^j where e_i is the CRT
 * idempotent of q_i, so
 *
 *     sum_{i,j} Digit_{i,j}(x) * g_{i,j} = x  (mod Q_l)
 *
 * holds at *every* level l: since e_i = delta_{ik} (mod q_k), a key
 * generated once at the full basis restricts to a valid key at any
 * level simply by ignoring the dropped limbs. CKKS KeySwitch (relin,
 * rotation, conjugation), the Chen et al. repacking, and the TFHE
 * ExternalProduct all reuse this one mechanism — mirroring the paper's
 * observation that the basis-conversion datapath and the
 * ExternalProduct datapath are the same hardware (Section IV-E).
 * gadgetApply, externalProduct and externalProductPair share one
 * kernel too: each input is decomposed once, each digit lifted and
 * forward-NTT'd once per output limb, and each output coefficient
 * Barrett-reduced once from a 128-bit sum instead of after every
 * product. Sums mod q are exact, so outputs are canonical.
 */

#ifndef HEAP_RLWE_GADGET_H
#define HEAP_RLWE_GADGET_H

#include <cstdint>
#include <utility>
#include <vector>

#include "rlwe/rlwe.h"

namespace heap::rlwe {

/** Gadget configuration: digits of B = 2^baseBits per RNS limb. */
struct GadgetParams {
    int baseBits = 18;      ///< log2 of the digit base B
    int digitsPerLimb = 2;  ///< the paper's decomposition degree d
    /** Balanced (signed) digits in [-B/2, B/2] instead of [0, B):
     *  halves the decomposition noise at identical cost. */
    bool balanced = true;

    /** Digits must cover the widest limb: d * baseBits >= limb bits. */
    void validateFor(const math::RnsBasis& basis) const;
};

/**
 * Splits every active limb of x (Coeff domain) into base-B digit
 * polynomials. Returns limbCount*d vectors ordered (limb 0 digit 0,
 * limb 0 digit 1, ..., limb 1 digit 0, ...). Digit coefficients are
 * in [0, B) (unsigned mode) or [-B/2, B/2] (balanced mode, applied to
 * the centered representative).
 */
std::vector<std::vector<int64_t>> gadgetDecompose(
    const math::RnsPoly& x, const GadgetParams& params);

/**
 * A vector of RLWE rows encrypting g_{i,j} * msg: the key-switching
 * key / half of an RGSW ciphertext. Rows are stored at the full basis
 * in Eval domain; row(i, j) = rows[i * d + j].
 */
class GadgetCiphertext {
  public:
    GadgetCiphertext() = default;
    GadgetCiphertext(std::vector<Ciphertext> rows, GadgetParams params)
        : rows_(std::move(rows)), params_(params)
    {
    }

    const GadgetParams& params() const { return params_; }
    const Ciphertext& row(size_t i, size_t j) const
    {
        return rows_[i * params_.digitsPerLimb + j];
    }
    size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<Ciphertext> rows_;
    GadgetParams params_;
};

/**
 * Generates a gadget encryption of `msg` (full-basis, Coeff domain)
 * under `sk`: row (i, j) encrypts e_i * B^j * msg.
 */
GadgetCiphertext gadgetEncrypt(const SecretKey& sk,
                               const math::RnsPoly& msg,
                               const GadgetParams& params, Rng& rng,
                               const NoiseParams& noise = {});

/**
 * Computes sum_{i,j} Digit_{i,j}(x) (*) K.row(i,j) restricted to
 * x's limb count — an RLWE encryption of approximately x * msg(K).
 *
 * @param x polynomial to decompose (Coeff domain, l limbs)
 * @return ciphertext with l limbs in Eval domain
 */
Ciphertext gadgetApply(const math::RnsPoly& x, const GadgetCiphertext& K);

/**
 * Key-switching key from secret s' to secret s: gadget encryption of
 * s' under s. Switching ct = (a, b) valid under (s', s-shared-b...)
 * is performed by switchKey below.
 */
GadgetCiphertext makeKeySwitchKey(const SecretKey& to,
                                  const math::RnsPoly& fromKeyCoeff,
                                  const GadgetParams& params, Rng& rng,
                                  const NoiseParams& noise = {});

/**
 * Applies a key switch to a ciphertext whose a-component multiplies a
 * foreign secret s': returns (a'', b + b'') such that the result
 * decrypts under `to`'s secret. Input may be in either domain; output
 * is Eval.
 */
Ciphertext switchKey(const Ciphertext& ct, const GadgetCiphertext& ksk);

/**
 * Homomorphic Galois automorphism: maps an encryption of m(X) to an
 * encryption of m(X^t) under the same key, using the key-switching
 * key for psi_t(s) (the paper's automorph unit + KeySwitch pair that
 * realizes CKKS Rotate). Output is in Coeff domain.
 */
Ciphertext evalAuto(const Ciphertext& ct, uint64_t t,
                    const GadgetCiphertext& key);

/** Builds the key-switching key for evalAuto with exponent t. */
GadgetCiphertext makeAutomorphismKey(const SecretKey& sk, uint64_t t,
                                     const GadgetParams& params, Rng& rng,
                                     const NoiseParams& noise = {});

/**
 * RGSW ciphertext of a small message mu: two gadget halves, one
 * encrypting mu (applied against the b-component) and one encrypting
 * mu * s (applied against the a-component).
 */
struct RgswCiphertext {
    GadgetCiphertext forB; ///< rows encrypt g_{i,j} * mu
    GadgetCiphertext forA; ///< rows encrypt g_{i,j} * mu * s
};

/** Encrypts mu (full-basis Coeff domain) as an RGSW ciphertext. */
RgswCiphertext rgswEncrypt(const SecretKey& sk, const math::RnsPoly& mu,
                           const GadgetParams& params, Rng& rng,
                           const NoiseParams& noise = {});

/** Convenience: RGSW of a small signed constant. */
RgswCiphertext rgswEncryptConstant(const SecretKey& sk, int64_t value,
                                   const GadgetParams& params, Rng& rng,
                                   const NoiseParams& noise = {});

/**
 * External product ct (x) C -> RLWE(mu * m) where ct = RLWE(m).
 * Input in Coeff domain preferred (decomposition happens there);
 * output has ct's limb count, Eval domain.
 */
Ciphertext externalProduct(const Ciphertext& ct, const RgswCiphertext& C);

/**
 * Both external products ct (x) C0 and ct (x) C1 of one ternary CMux
 * step, from a single decomposition of ct: every digit is lifted and
 * forward-NTT'd once and multiplied into both RGSWs. Byte-identical
 * to {externalProduct(ct, C0), externalProduct(ct, C1)}.
 *
 * @pre C0 and C1 use the same gadget parameters
 */
std::pair<Ciphertext, Ciphertext> externalProductPair(
    const Ciphertext& ct, const RgswCiphertext& C0,
    const RgswCiphertext& C1);

/**
 * Internal product RGSW(muA) (x) RGSW(muB) -> RGSW(muA * muB): every
 * RLWE row of A is externally multiplied by B (Section VII-A's
 * standalone-TFHE construction). Noise grows by one external-product
 * step per row.
 */
RgswCiphertext internalProduct(const RgswCiphertext& A,
                               const RgswCiphertext& B);

} // namespace heap::rlwe

#endif // HEAP_RLWE_GADGET_H
