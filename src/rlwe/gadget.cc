#include "rlwe/gadget.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>

#include "common/check.h"
#include "common/parallel.h"
#include "math/kernels.h"
#include "math/modarith.h"
#include "math/scratch.h"

namespace heap::rlwe {

void
GadgetParams::validateFor(const math::RnsBasis& basis) const
{
    HEAP_CHECK(baseBits >= 1 && baseBits <= 32,
               "gadget baseBits out of range: " << baseBits);
    HEAP_CHECK(digitsPerLimb >= 1, "gadget needs at least one digit");
    for (size_t i = 0; i < basis.size(); ++i) {
        const int limbBits = std::bit_width(basis.modulus(i) - 1);
        HEAP_CHECK(digitsPerLimb * baseBits >= limbBits,
                   "gadget digits (" << digitsPerLimb << " x " << baseBits
                                     << " bits) do not cover limb of "
                                     << limbBits << " bits");
    }
}

namespace {

/**
 * The one digit routine: splits every active limb of x (Coeff domain)
 * into d base-B digits, digit (i, j) at out[(i*d + j) * n, +n), one
 * KernelOps::splitDigits call per limb.
 */
void
decomposeInto(const math::RnsPoly& x, const GadgetParams& params,
              std::span<int64_t> out)
{
    const size_t n = x.n();
    const int d = params.digitsPerLimb;
    const math::KernelOps& ops = math::kernels();
    for (size_t i = 0; i < x.limbCount(); ++i) {
        ops.splitDigits(out.data() + i * static_cast<size_t>(d) * n,
                        x.limb(i).data(), n, x.basis().modulus(i),
                        params.baseBits, d, params.balanced);
    }
}

/** A polynomial to decompose and, per output, the gadget ciphertext
 *  its digits multiply. Every key of a block shares one gadget. */
template <size_t Outputs>
struct DigitBlock {
    const math::RnsPoly* x;
    std::array<const GadgetCiphertext*, Outputs> keys;
};

/**
 * Words of transformed digit rows one group holds: a group is lifted
 * and NTT'd in one KernelOps::liftNttRows call, then multiplied into
 * the sums row by row, so its rows must still be in L1 (32 KB: all 36
 * rows of a blind-rotation pair at n = 64, 4 rows at n = 1024).
 */
constexpr size_t kRowGroupWords = 4096;
/** Row cap of a group, so its key pointers fit on the stack. */
constexpr size_t kMaxGroupRows = 64;

/**
 * The one gadget product behind gadgetApply, externalProduct and
 * externalProductPair:
 *
 *     out[o] = sum_s sum_{i,j} Digit_{i,j}(x_s) (*) keys_s[o].row(i, j)
 *
 * Each block is decomposed once (a copy of an Eval input is converted
 * first). Per output limb, the digit rows are lifted and forward-NTT'd
 * in groups (KernelOps::liftNttRows), and each transformed row is
 * multiplied into all 2 * Outputs lazy sums by the MAC kernel
 * (KernelOps::macLazy), which reduces them in place whenever its term
 * budget runs out; sums mod q are exact, so reducing once at the end
 * (macReduce) gives the canonical values that reducing after every
 * product would, on every SIMD level. Output limbs are independent
 * and fan out like RnsPoly::toEval. Outputs have x's limb count, Eval
 * domain.
 *
 * A block whose polynomial is zero (in either domain every word is 0)
 * has only zero digits, whose terms add 0 to the exact sums, so it
 * adds no rows at all: a trivially encrypted input (a = 0: PIR's
 * plaintext leaves, a blind rotation's first step) costs half. With
 * every block zero the outputs are the zero polynomials.
 */
template <size_t Blocks, size_t Outputs>
std::array<Ciphertext, Outputs>
gadgetProduct(const std::array<DigitBlock<Outputs>, Blocks>& blocks)
{
    const auto basis = blocks[0].x->basisPtr();
    const size_t n = basis->n();
    const size_t l = blocks[0].x->limbCount();
    // The nonzero blocks, in block order; the scan stops at the first
    // nonzero word, so a random polynomial costs one load.
    std::array<const DigitBlock<Outputs>*, Blocks> live{};
    size_t liveCount = 0;
    size_t rows = 0;
    for (const DigitBlock<Outputs>& block : blocks) {
        HEAP_ASSERT(block.x->limbCount() == l, "blocks differ in limbs");
        const size_t blockRows =
            l * static_cast<size_t>(block.keys[0]->params().digitsPerLimb);
        for (const GadgetCiphertext* K : block.keys) {
            HEAP_CHECK(K->rowCount() >= blockRows,
                       "gadget ciphertext has too few rows");
        }
        if (!block.x->isZero()) {
            live[liveCount++] = &block;
            rows += blockRows;
        }
    }
    const auto liveBlocks = std::span(live).first(liveCount);

    std::array<Ciphertext, Outputs> out;
    for (Ciphertext& c : out) {
        c.a = math::RnsPoly(basis, l, Domain::Eval);
        c.b = math::RnsPoly(basis, l, Domain::Eval);
    }
    if (rows == 0) {
        return out;
    }

    // The live blocks' digit rows, back to back in block order.
    math::ScratchFrame scratch;
    auto digits = scratch.borrowSigned(rows * n);
    std::optional<math::RnsPoly> converted;
    size_t filled = 0;
    for (const DigitBlock<Outputs>* block : liveBlocks) {
        const math::RnsPoly* x = block->x;
        if (x->domain() != Domain::Coeff) {
            converted.emplace(*x);
            converted->toCoeff();
            x = &*converted;
        }
        const GadgetParams& gp = block->keys[0]->params();
        decomposeInto(*x, gp, digits.subspan(filled));
        filled += l * static_cast<size_t>(gp.digitsPerLimb) * n;
    }

    // Sum c = 2o is out[o].a, c = 2o + 1 is out[o].b.
    constexpr size_t kSums = 2 * Outputs;
    const size_t group = std::clamp<size_t>(kRowGroupWords / n, 1,
                                            std::min(rows, kMaxGroupRows));
    auto processLimb = [&](size_t k) {
        const auto& red = basis->reducer(k);
        const math::NttTablesView tables = basis->ntt(k).view();
        const math::KernelOps& ops = math::kernels();
        math::ScratchFrame inner;
        uint64_t* lifted = inner.borrow(group * n).data();
        uint64_t* acc = inner.borrow(2 * kSums * n).data();
        uint64_t terms = 0;
        // The keys of the group's rows: row r's sum c at r * kSums + c.
        const uint64_t* keys[kMaxGroupRows * kSums];
        size_t r = 0; // digit row, in block order
        for (const DigitBlock<Outputs>* block : liveBlocks) {
            const int d = block->keys[0]->params().digitsPerLimb;
            for (size_t i = 0; i < l; ++i) {
                for (int j = 0; j < d; ++j) {
                    const uint64_t** key = keys + (r % group) * kSums;
                    for (size_t o = 0; o < Outputs; ++o) {
                        const Ciphertext& kr = block->keys[o]->row(
                            i, static_cast<size_t>(j));
                        key[2 * o] = kr.a.limb(k).data();
                        key[2 * o + 1] = kr.b.limb(k).data();
                    }
                    if (++r % group == 0 || r == rows) {
                        const size_t count = (r - 1) % group + 1;
                        const int64_t* dig = digits.data() + (r - count) * n;
                        ops.liftNttRows(lifted, dig, count, tables);
                        ops.macLazy(acc, terms, lifted, keys, count, kSums,
                                    n, red);
                    }
                }
            }
        }
        uint64_t* dst[kSums];
        for (size_t c = 0; c < kSums; ++c) {
            Ciphertext& o = out[c / 2];
            dst[c] = (c % 2 == 0 ? o.a : o.b).limb(k).data();
        }
        ops.macReduce(dst, acc, kSums, n, red);
    };
    if (l >= 2 && n >= 1024) {
        parallelFor(0, l, 1, processLimb);
    } else {
        for (size_t k = 0; k < l; ++k) {
            processLimb(k);
        }
    }
    return out;
}

} // namespace

std::vector<std::vector<int64_t>>
gadgetDecompose(const math::RnsPoly& x, const GadgetParams& params)
{
    HEAP_CHECK(x.domain() == Domain::Coeff,
               "gadget decomposition requires Coeff domain");
    const size_t n = x.n();
    std::vector<int64_t> flat(
        x.limbCount() * static_cast<size_t>(params.digitsPerLimb) * n);
    decomposeInto(x, params, flat);
    std::vector<std::vector<int64_t>> digits;
    for (auto it = flat.begin(); it != flat.end(); it += n) {
        digits.emplace_back(it, it + n);
    }
    return digits;
}

GadgetCiphertext
gadgetEncrypt(const SecretKey& sk, const math::RnsPoly& msg,
              const GadgetParams& params, Rng& rng,
              const NoiseParams& noise)
{
    auto basis = sk.basisPtr();
    params.validateFor(*basis);
    HEAP_CHECK(msg.limbCount() == basis->size(),
               "gadget message must be at the full basis");
    HEAP_CHECK(msg.domain() == Domain::Coeff,
               "gadget message must be in Coeff domain");
    const size_t l = basis->size();
    const int d = params.digitsPerLimb;

    const auto& powers =
        basis->gadgetPowersFor(params.baseBits, d);
    const math::KernelOps& ops = math::kernels();
    math::ScratchFrame scratch;
    auto contrib = scratch.borrow(basis->n());
    std::vector<Ciphertext> rows;
    rows.reserve(l * d);
    for (size_t i = 0; i < l; ++i) {
        const uint64_t qi = basis->modulus(i);
        for (int j = 0; j < d; ++j) {
            Ciphertext row = encryptZero(sk, l, rng, noise);
            // Add e_i * B^j * msg: only limb i receives a contribution
            // because the CRT idempotent e_i vanishes mod q_k, k != i.
            ops.mulScalarShoup(contrib.data(), msg.limb(i).data(),
                               powers.pow[i * d + j],
                               powers.powShoup[i * d + j],
                               basis->n(), qi);
            basis->ntt(i).forward(contrib);
            auto dst = row.b.limb(i);
            ops.addMod(dst.data(), dst.data(), contrib.data(),
                       basis->n(), qi);
            rows.push_back(std::move(row));
        }
    }
    return GadgetCiphertext(std::move(rows), params);
}

Ciphertext
gadgetApply(const math::RnsPoly& x, const GadgetCiphertext& K)
{
    HEAP_CHECK(x.domain() == Domain::Coeff,
               "gadget decomposition requires Coeff domain");
    return gadgetProduct<1, 1>({{{&x, {&K}}}})[0];
}

GadgetCiphertext
makeKeySwitchKey(const SecretKey& to, const math::RnsPoly& fromKeyCoeff,
                 const GadgetParams& params, Rng& rng,
                 const NoiseParams& noise)
{
    return gadgetEncrypt(to, fromKeyCoeff, params, rng, noise);
}

Ciphertext
switchKey(const Ciphertext& ct, const GadgetCiphertext& ksk)
{
    math::RnsPoly aCoeff = ct.a;
    aCoeff.toCoeff();
    Ciphertext out = gadgetApply(aCoeff, ksk);
    math::RnsPoly b = ct.b;
    b.toEval();
    out.b.addInPlace(b);
    return out;
}

Ciphertext
evalAuto(const Ciphertext& ct, uint64_t t, const GadgetCiphertext& key)
{
    Ciphertext c = ct;
    c.toCoeff();
    Ciphertext mapped = c.automorphism(t);
    // mapped decrypts under psi_t(s); switch its a-component back.
    Ciphertext out = switchKey(mapped, key);
    out.toCoeff();
    return out;
}

GadgetCiphertext
makeAutomorphismKey(const SecretKey& sk, uint64_t t,
                    const GadgetParams& params, Rng& rng,
                    const NoiseParams& noise)
{
    auto basis = sk.basisPtr();
    math::RnsPoly sCoeff =
        math::rnsFromSigned(basis, basis->size(), sk.coeffs());
    return makeKeySwitchKey(sk, sCoeff.automorphism(t), params, rng,
                            noise);
}

RgswCiphertext
rgswEncrypt(const SecretKey& sk, const math::RnsPoly& mu,
            const GadgetParams& params, Rng& rng,
            const NoiseParams& noise)
{
    HEAP_CHECK(mu.domain() == Domain::Coeff,
               "RGSW message must be in Coeff domain");
    RgswCiphertext out;
    out.forB = gadgetEncrypt(sk, mu, params, rng, noise);
    math::RnsPoly muS = mu;
    muS.toEval();
    muS.mulPointwiseInPlace(sk.eval());
    muS.toCoeff();
    out.forA = gadgetEncrypt(sk, muS, params, rng, noise);
    return out;
}

RgswCiphertext
rgswEncryptConstant(const SecretKey& sk, int64_t value,
                    const GadgetParams& params, Rng& rng,
                    const NoiseParams& noise)
{
    auto basis = sk.basisPtr();
    std::vector<int64_t> coeffs(basis->n(), 0);
    coeffs[0] = value;
    const auto mu = math::rnsFromSigned(basis, basis->size(), coeffs);
    return rgswEncrypt(sk, mu, params, rng, noise);
}

Ciphertext
externalProduct(const Ciphertext& ct, const RgswCiphertext& C)
{
    return gadgetProduct<2, 1>(
        {{{&ct.b, {&C.forB}}, {&ct.a, {&C.forA}}}})[0];
}

std::pair<Ciphertext, Ciphertext>
externalProductPair(const Ciphertext& ct, const RgswCiphertext& C0,
                    const RgswCiphertext& C1)
{
    const GadgetParams& gp = C0.forB.params();
    for (const GadgetCiphertext* half :
         {&C0.forB, &C0.forA, &C1.forB, &C1.forA}) {
        const GadgetParams& p = half->params();
        HEAP_CHECK(p.baseBits == gp.baseBits
                       && p.digitsPerLimb == gp.digitsPerLimb
                       && p.balanced == gp.balanced,
                   "externalProductPair needs one gadget for all halves");
    }
    auto [ep0, ep1] = gadgetProduct<2, 2>(
        {{{&ct.b, {&C0.forB, &C1.forB}}, {&ct.a, {&C0.forA, &C1.forA}}}});
    return {std::move(ep0), std::move(ep1)};
}

RgswCiphertext
internalProduct(const RgswCiphertext& A, const RgswCiphertext& B)
{
    auto transformHalf = [&](const GadgetCiphertext& half) {
        std::vector<Ciphertext> rows;
        rows.reserve(half.rowCount());
        const int d = half.params().digitsPerLimb;
        const size_t limbs = half.rowCount() / static_cast<size_t>(d);
        for (size_t i = 0; i < limbs; ++i) {
            for (int j = 0; j < d; ++j) {
                Ciphertext out = externalProduct(
                    half.row(i, static_cast<size_t>(j)), B);
                out.toEval();
                rows.push_back(std::move(out));
            }
        }
        return GadgetCiphertext(std::move(rows), half.params());
    };
    RgswCiphertext out;
    out.forB = transformHalf(A.forB);
    out.forA = transformHalf(A.forA);
    return out;
}

} // namespace heap::rlwe
