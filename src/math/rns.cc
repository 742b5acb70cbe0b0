#include "math/rns.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "math/baseconv.h"
#include "math/kernels.h"
#include "math/poly.h"
#include "math/primes.h"
#include "math/scratch.h"

namespace heap::math {

namespace {

// Below this ring dimension a single NTT is cheaper than one task
// dispatch, so the limb loop stays serial.
constexpr size_t kParallelNttMinN = 1024;

} // namespace

RnsBasis::RnsBasis(size_t n, std::vector<uint64_t> moduli)
    : n_(n), moduli_(std::move(moduli))
{
    HEAP_CHECK(!moduli_.empty(), "empty modulus chain");
    for (size_t i = 0; i < moduli_.size(); ++i) {
        const uint64_t q = moduli_[i];
        HEAP_CHECK(isPrime(q), "modulus " << q << " is not prime");
        HEAP_CHECK((q - 1) % (2 * n) == 0,
                   "modulus " << q << " is not NTT-friendly for n=" << n);
        for (size_t j = 0; j < i; ++j) {
            HEAP_CHECK(moduli_[j] != q, "duplicate modulus " << q);
        }
        ntt_.push_back(std::make_unique<NttTables>(n, q));
        reducers_.emplace_back(q);
    }
    const size_t l = moduli_.size();
    invQ_.assign(l * l, 0);
    invQShoup_.assign(l * l, 0);
    for (size_t j = 0; j < l; ++j) {
        for (size_t i = 0; i < l; ++i) {
            if (i != j) {
                const uint64_t inv =
                    invMod(moduli_[j] % moduli_[i], moduli_[i]);
                invQ_[j * l + i] = inv;
                invQShoup_[j * l + i] =
                    shoupPrecompute(inv, moduli_[i]);
            }
        }
    }
}

RnsBasis::~RnsBasis() = default;

uint64_t
RnsBasis::invModulus(size_t j, size_t i) const
{
    HEAP_ASSERT(i != j, "invModulus(i, i) undefined");
    return invQ_[j * moduli_.size() + i];
}

uint64_t
RnsBasis::invModulusShoup(size_t j, size_t i) const
{
    HEAP_ASSERT(i != j, "invModulusShoup(i, i) undefined");
    return invQShoup_[j * moduli_.size() + i];
}

const BaseConverter&
RnsBasis::baseConverterFor(size_t lo, size_t hi) const
{
    HEAP_CHECK(lo < hi && hi <= moduli_.size(),
               "bad base-converter group [" << lo << ", " << hi << ")");
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto& slot = baseConvCache_[{lo, hi}];
    if (slot == nullptr) {
        std::vector<uint64_t> srcMods(moduli_.begin() + lo,
                                      moduli_.begin() + hi);
        std::vector<uint64_t> dstMods;
        for (size_t k = 0; k < moduli_.size(); ++k) {
            if (k < lo || k >= hi) {
                dstMods.push_back(moduli_[k]);
            }
        }
        slot = std::make_unique<BaseConverter>(std::move(srcMods),
                                               std::move(dstMods));
    }
    return *slot;
}

const GadgetPowerTable&
RnsBasis::gadgetPowersFor(int baseBits, int digits) const
{
    HEAP_CHECK(baseBits >= 1 && digits >= 1,
               "bad gadget configuration");
    std::lock_guard<std::mutex> lock(cacheMutex_);
    auto& slot = gadgetPowerCache_[{baseBits, digits}];
    if (slot == nullptr) {
        auto table = std::make_unique<GadgetPowerTable>();
        table->baseBits = baseBits;
        table->digits = digits;
        const size_t l = moduli_.size();
        table->pow.resize(l * static_cast<size_t>(digits));
        table->powShoup.resize(l * static_cast<size_t>(digits));
        for (size_t i = 0; i < l; ++i) {
            const uint64_t qi = moduli_[i];
            for (int j = 0; j < digits; ++j) {
                const uint64_t p =
                    powMod(1ULL << baseBits, static_cast<uint64_t>(j),
                           qi);
                table->pow[i * digits + j] = p;
                table->powShoup[i * digits + j] =
                    shoupPrecompute(p, qi);
            }
        }
        slot = std::move(table);
    }
    return *slot;
}

double
RnsBasis::logQ(size_t limbs) const
{
    HEAP_CHECK(limbs <= moduli_.size(), "limb count exceeds basis");
    double s = 0.0;
    for (size_t i = 0; i < limbs; ++i) {
        s += std::log2(static_cast<double>(moduli_[i]));
    }
    return s;
}

RnsPoly::RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t limbs,
                 Domain domain)
    : basis_(std::move(basis)), domain_(domain)
{
    HEAP_CHECK(limbs >= 1 && limbs <= basis_->size(),
               "invalid limb count " << limbs);
    n_ = basis_->n();
    limbs_ = limbs;
    data_ = AlignedU64(limbs * n_);
}

RnsPoly::RnsPoly(const RnsPoly& other)
    : basis_(other.basis_),
      n_(other.n_),
      limbs_(other.limbs_),
      domain_(other.domain_)
{
    // Copy only the active limbs: after dropLimbs the allocation may
    // be larger than limbs_ * n_, and copies right-size it.
    if (limbs_ * n_ > 0) {
        data_ = AlignedU64(limbs_ * n_);
        std::memcpy(data_.data(), other.data_.data(),
                    limbs_ * n_ * sizeof(uint64_t));
    }
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& other)
{
    if (this != &other) {
        RnsPoly tmp(other);
        *this = std::move(tmp);
    }
    return *this;
}

void
RnsPoly::setZero()
{
    std::memset(data_.data(), 0, limbs_ * n_ * sizeof(uint64_t));
}

bool
RnsPoly::isZero() const
{
    return std::ranges::none_of(flat(), [](uint64_t w) { return w != 0; });
}

void
RnsPoly::toEval()
{
    if (domain_ == Domain::Eval) {
        return;
    }
    domain_ = Domain::Eval;
    // Zero is zero in both domains (a trivial encryption's a half).
    if (isZero()) {
        return;
    }
    // Limbs transform independently (distinct tables, distinct data).
    if (limbs_ >= 2 && n_ >= kParallelNttMinN) {
        parallelFor(0, limbs_, 1,
                    [this](size_t i) { basis_->ntt(i).forward(limb(i)); });
    } else {
        for (size_t i = 0; i < limbs_; ++i) {
            basis_->ntt(i).forward(limb(i));
        }
    }
}

void
RnsPoly::toCoeff()
{
    if (domain_ == Domain::Coeff) {
        return;
    }
    domain_ = Domain::Coeff;
    if (isZero()) {
        return;
    }
    if (limbs_ >= 2 && n_ >= kParallelNttMinN) {
        parallelFor(0, limbs_, 1,
                    [this](size_t i) { basis_->ntt(i).inverse(limb(i)); });
    } else {
        for (size_t i = 0; i < limbs_; ++i) {
            basis_->ntt(i).inverse(limb(i));
        }
    }
}

namespace {

void
checkCompatible(const RnsPoly& a, const RnsPoly& b)
{
    HEAP_CHECK(&a.basis() == &b.basis(), "basis mismatch");
    HEAP_CHECK(a.limbCount() == b.limbCount(),
               "limb count mismatch: " << a.limbCount() << " vs "
                                       << b.limbCount());
    HEAP_CHECK(a.domain() == b.domain(), "domain mismatch");
}

} // namespace

void
RnsPoly::addInPlace(const RnsPoly& other)
{
    checkCompatible(*this, other);
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        uint64_t* dst = data_.data() + i * n_;
        ops.addMod(dst, dst, other.limb(i).data(), n_,
                   basis_->modulus(i));
    }
}

void
RnsPoly::subInPlace(const RnsPoly& other)
{
    checkCompatible(*this, other);
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        uint64_t* dst = data_.data() + i * n_;
        ops.subMod(dst, dst, other.limb(i).data(), n_,
                   basis_->modulus(i));
    }
}

void
RnsPoly::negInPlace()
{
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        uint64_t* dst = data_.data() + i * n_;
        ops.negMod(dst, dst, n_, basis_->modulus(i));
    }
}

void
RnsPoly::mulPointwiseInPlace(const RnsPoly& other)
{
    checkCompatible(*this, other);
    HEAP_CHECK(domain_ == Domain::Eval,
               "pointwise multiply requires Eval domain");
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        uint64_t* dst = data_.data() + i * n_;
        ops.mulMod(dst, dst, other.limb(i).data(), n_,
                   basis_->reducer(i));
    }
}

void
RnsPoly::mulPointwiseAccum(const RnsPoly& a, const RnsPoly& b)
{
    checkCompatible(a, b);
    checkCompatible(*this, a);
    HEAP_CHECK(domain_ == Domain::Eval, "accumulate requires Eval domain");
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        uint64_t* dst = data_.data() + i * n_;
        ops.mulModAccum(dst, a.limb(i).data(), b.limb(i).data(), n_,
                        basis_->reducer(i));
    }
}

void
RnsPoly::mulScalarInPlace(uint64_t c)
{
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        const uint64_t q = basis_->modulus(i);
        const uint64_t w = c % q;
        uint64_t* dst = data_.data() + i * n_;
        ops.mulScalarShoup(dst, dst, w, shoupPrecompute(w, q), n_, q);
    }
}

void
RnsPoly::mulScalarRnsInPlace(std::span<const uint64_t> cPerLimb)
{
    HEAP_CHECK(cPerLimb.size() >= limbs_, "scalar vector too short");
    const KernelOps& ops = kernels();
    for (size_t i = 0; i < limbs_; ++i) {
        const uint64_t q = basis_->modulus(i);
        const uint64_t w = cPerLimb[i] % q;
        uint64_t* dst = data_.data() + i * n_;
        ops.mulScalarShoup(dst, dst, w, shoupPrecompute(w, q), n_, q);
    }
}

RnsPoly
RnsPoly::automorphism(uint64_t t) const
{
    HEAP_CHECK(domain_ == Domain::Coeff,
               "automorphism requires Coeff domain");
    RnsPoly out(basis_, limbs_, Domain::Coeff);
    for (size_t i = 0; i < limbs_; ++i) {
        polyAutomorphism(limb(i), t, out.limb(i), basis_->modulus(i));
    }
    return out;
}

RnsPoly
RnsPoly::monomialMul(uint64_t k) const
{
    HEAP_CHECK(domain_ == Domain::Coeff,
               "monomialMul requires Coeff domain");
    RnsPoly out(basis_, limbs_, Domain::Coeff);
    for (size_t i = 0; i < limbs_; ++i) {
        polyMonomialMul(limb(i), k, out.limb(i), basis_->modulus(i));
    }
    return out;
}

void
RnsPoly::dropLimbs(size_t count)
{
    HEAP_CHECK(count < limbs_, "cannot drop all limbs");
    // O(1): the allocation keeps its size; copies right-size it.
    limbs_ -= count;
}

void
RnsPoly::rescaleLastLimb()
{
    HEAP_CHECK(limbs_ >= 2, "rescale needs at least two limbs");
    const size_t last = limbs_ - 1;
    const uint64_t qLast = basis_->modulus(last);
    const Domain orig = domain_;
    const KernelOps& ops = kernels();

    ScratchFrame scratch;
    // Bring the dropped limb into coefficient representation.
    auto lastCoeff = scratch.borrow(n_);
    std::memcpy(lastCoeff.data(), limb(last).data(),
                n_ * sizeof(uint64_t));
    if (orig == Domain::Eval) {
        basis_->ntt(last).inverse(lastCoeff);
    }

    auto corr = scratch.borrow(n_);
    for (size_t i = 0; i < last; ++i) {
        const uint64_t qi = basis_->modulus(i);
        // Centered lift of the last limb reduced mod q_i (rounding
        // rather than floor division).
        for (size_t j = 0; j < n_; ++j) {
            corr[j] = fromCentered(toCentered(lastCoeff[j], qLast), qi);
        }
        if (orig == Domain::Eval) {
            basis_->ntt(i).forward(corr);
        }
        uint64_t* dst = data_.data() + i * n_;
        ops.subMod(dst, dst, corr.data(), n_, qi);
        ops.mulScalarShoup(dst, dst, basis_->invModulus(last, i),
                           basis_->invModulusShoup(last, i), n_, qi);
    }
    limbs_ -= 1;
}

RnsPoly
RnsPoly::restrictedTo(size_t limbs) const
{
    HEAP_CHECK(limbs >= 1 && limbs <= limbs_,
               "restrictedTo limb count out of range");
    RnsPoly out(basis_, limbs, domain_);
    std::memcpy(out.data_.data(), data_.data(),
                limbs * n_ * sizeof(uint64_t));
    return out;
}

RnsPoly
rnsFromSigned(std::shared_ptr<const RnsBasis> basis, size_t limbs,
              std::span<const int64_t> coeffs)
{
    HEAP_CHECK(coeffs.size() <= basis->n(), "more coefficients than n");
    RnsPoly out(basis, limbs, Domain::Coeff);
    for (size_t i = 0; i < limbs; ++i) {
        const uint64_t q = basis->modulus(i);
        auto dst = out.limb(i);
        for (size_t j = 0; j < coeffs.size(); ++j) {
            dst[j] = fromCentered(coeffs[j], q);
        }
    }
    return out;
}

namespace {

/** Garner mixed-radix digits of the CRT value (digit i is mod q_i). */
std::vector<uint64_t>
garnerDigits(std::span<const uint64_t> residues,
             std::span<const uint64_t> moduli,
             const RnsBasis* basis = nullptr)
{
    const size_t k = residues.size();
    std::vector<uint64_t> v(k);
    for (size_t i = 0; i < k; ++i) {
        uint64_t x = residues[i] % moduli[i];
        for (size_t j = 0; j < i; ++j) {
            const uint64_t vj = v[j] % moduli[i];
            const uint64_t inv =
                basis != nullptr
                    ? basis->invModulus(j, i)
                    : invMod(moduli[j] % moduli[i], moduli[i]);
            x = mulModNaive(subMod(x % moduli[i], vj, moduli[i]), inv,
                            moduli[i]);
        }
        v[i] = x;
    }
    return v;
}

/** Accumulates mixed-radix digits into a long double. */
long double
mixedRadixValue(const std::vector<uint64_t>& v,
                std::span<const uint64_t> moduli)
{
    long double value = 0.0L;
    long double radix = 1.0L;
    for (size_t i = 0; i < v.size(); ++i) {
        value += static_cast<long double>(v[i]) * radix;
        radix *= static_cast<long double>(moduli[i]);
    }
    return value;
}

/** Lexicographic comparison from the most significant digit. */
bool
mixedRadixLess(const std::vector<uint64_t>& a,
               const std::vector<uint64_t>& b)
{
    for (size_t i = a.size(); i-- > 0;) {
        if (a[i] != b[i]) {
            return a[i] < b[i];
        }
    }
    return false;
}

} // namespace

long double
crtToCenteredDouble(std::span<const uint64_t> residues,
                    std::span<const uint64_t> moduli)
{
    HEAP_CHECK(residues.size() == moduli.size() && !moduli.empty(),
               "bad CRT input");
    const auto pos = garnerDigits(residues, moduli);
    std::vector<uint64_t> negRes(residues.size());
    for (size_t i = 0; i < residues.size(); ++i) {
        negRes[i] = negMod(residues[i] % moduli[i], moduli[i]);
    }
    const auto neg = garnerDigits(negRes, moduli);
    if (mixedRadixLess(neg, pos)) {
        return -mixedRadixValue(neg, moduli);
    }
    return mixedRadixValue(pos, moduli);
}

int64_t
crtToCenteredInt64(std::span<const uint64_t> residues,
                   std::span<const uint64_t> moduli)
{
    HEAP_CHECK(residues.size() == moduli.size() && !moduli.empty(),
               "bad CRT input");
    const auto pos = garnerDigits(residues, moduli);
    std::vector<uint64_t> negRes(residues.size());
    for (size_t i = 0; i < residues.size(); ++i) {
        negRes[i] = negMod(residues[i] % moduli[i], moduli[i]);
    }
    const auto neg = garnerDigits(negRes, moduli);
    const bool isNeg = mixedRadixLess(neg, pos);
    const auto& digits = isNeg ? neg : pos;

    uint128 value = 0;
    uint128 radix = 1;
    for (size_t i = 0; i < digits.size(); ++i) {
        if (digits[i] != 0) {
            HEAP_CHECK((radix >> 62) == 0,
                       "centered value exceeds 2^62 at digit " << i);
            value += radix * digits[i];
            HEAP_CHECK((value >> 62) == 0, "centered value exceeds 2^62");
        }
        if ((radix >> 64) == 0) {
            radix *= moduli[i];
        }
    }
    const int64_t v = static_cast<int64_t>(value);
    return isNeg ? -v : v;
}

} // namespace heap::math
