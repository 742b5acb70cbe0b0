/**
 * @file
 * Parameterized property tests for the CKKS evaluator: algebraic
 * identities (commutativity, distributivity, rotation composition,
 * conjugation involution, plaintext-ciphertext consistency) must hold
 * across a grid of ring dimensions and limb widths.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ckks/evaluator.h"

namespace heap::ckks {
namespace {

struct GridPoint {
    size_t n;
    int limbBits;
    size_t levels;
};

class EvaluatorProperty : public ::testing::TestWithParam<GridPoint> {
  protected:
    void
    SetUp() override
    {
        const auto gp = GetParam();
        CkksParams p;
        p.n = gp.n;
        p.limbBits = gp.limbBits;
        p.levels = gp.levels;
        p.auxLimbs = 0;
        p.scale = std::pow(2.0, gp.limbBits);
        const int digits = (gp.limbBits + 6 + 8) / 9;
        p.gadget =
            rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = digits};
        ctx_ = std::make_unique<Context>(p, gp.n + gp.levels);
        ev_ = std::make_unique<Evaluator>(*ctx_);
        rng_ = std::make_unique<Rng>(gp.n * 31 + gp.levels);
    }

    std::vector<Complex>
    randomSlots(double bound = 1.0)
    {
        std::vector<Complex> z(ctx_->params().n / 2);
        for (auto& v : z) {
            v = Complex((2 * rng_->uniformReal() - 1) * bound,
                        (2 * rng_->uniformReal() - 1) * bound);
        }
        return z;
    }

    double
    maxErr(const std::vector<Complex>& a, const std::vector<Complex>& b)
    {
        double m = 0;
        for (size_t i = 0; i < a.size(); ++i) {
            m = std::max(m, std::abs(a[i] - b[i]));
        }
        return m;
    }

    std::unique_ptr<Context> ctx_;
    std::unique_ptr<Evaluator> ev_;
    std::unique_ptr<Rng> rng_;
};

TEST_P(EvaluatorProperty, AdditionCommutes)
{
    const auto z1 = randomSlots();
    const auto z2 = randomSlots();
    const auto a = ctx_->encrypt(std::span<const Complex>(z1));
    const auto b = ctx_->encrypt(std::span<const Complex>(z2));
    const auto ab = ctx_->decrypt(ev_->add(a, b));
    const auto ba = ctx_->decrypt(ev_->add(b, a));
    EXPECT_LT(maxErr(ab, ba), 1e-9);
}

TEST_P(EvaluatorProperty, MultiplicationCommutes)
{
    const auto z1 = randomSlots();
    const auto z2 = randomSlots();
    const auto a = ctx_->encrypt(std::span<const Complex>(z1));
    const auto b = ctx_->encrypt(std::span<const Complex>(z2));
    const auto ab = ctx_->decrypt(ev_->multiplyRescale(a, b));
    const auto ba = ctx_->decrypt(ev_->multiplyRescale(b, a));
    EXPECT_LT(maxErr(ab, ba), 1e-9);
}

TEST_P(EvaluatorProperty, DistributesOverAddition)
{
    const auto z1 = randomSlots(0.7);
    const auto z2 = randomSlots(0.7);
    const auto z3 = randomSlots(0.7);
    const auto a = ctx_->encrypt(std::span<const Complex>(z1));
    const auto b = ctx_->encrypt(std::span<const Complex>(z2));
    const auto c = ctx_->encrypt(std::span<const Complex>(z3));
    // a*(b+c) vs a*b + a*c.
    const auto lhs =
        ctx_->decrypt(ev_->multiplyRescale(a, ev_->add(b, c)));
    const auto rhs = ctx_->decrypt(ev_->add(
        ev_->multiplyRescale(a, b), ev_->multiplyRescale(a, c)));
    EXPECT_LT(maxErr(lhs, rhs), 1e-2);
}

TEST_P(EvaluatorProperty, PlainAndCipherMultiplyAgree)
{
    const auto z1 = randomSlots(0.8);
    const auto z2 = randomSlots(0.8);
    const auto a = ctx_->encrypt(std::span<const Complex>(z1));
    const auto b = ctx_->encrypt(std::span<const Complex>(z2));
    const auto pt = ev_->makePlaintext(std::span<const Complex>(z2),
                                       ctx_->params().scale, a.level());
    const auto viaCt = ctx_->decrypt(ev_->multiplyRescale(a, b));
    const auto viaPt =
        ctx_->decrypt(ev_->rescale(ev_->multiplyPlain(a, pt)));
    EXPECT_LT(maxErr(viaCt, viaPt), 1e-2);
}

TEST_P(EvaluatorProperty, ConjugationIsInvolution)
{
    const auto z = randomSlots();
    const auto ct = ctx_->encrypt(std::span<const Complex>(z));
    const auto back = ctx_->decrypt(ev_->conjugate(ev_->conjugate(ct)));
    EXPECT_LT(maxErr(back, z), 5e-2);
}

TEST_P(EvaluatorProperty, RotationsCompose)
{
    ctx_->makeRotationKeys(std::array<int64_t, 3>{1, 2, 3});
    const auto z = randomSlots();
    const auto ct = ctx_->encrypt(std::span<const Complex>(z));
    const auto oneThenTwo =
        ctx_->decrypt(ev_->rotate(ev_->rotate(ct, 1), 2));
    const auto three = ctx_->decrypt(ev_->rotate(ct, 3));
    EXPECT_LT(maxErr(oneThenTwo, three), 5e-2);
}

TEST_P(EvaluatorProperty, NegateIsSubtractFromZero)
{
    const auto z = randomSlots();
    const auto ct = ctx_->encrypt(std::span<const Complex>(z));
    const auto neg = ctx_->decrypt(ev_->negate(ct));
    for (size_t i = 0; i < z.size(); ++i) {
        ASSERT_LT(std::abs(neg[i] + z[i]), 1e-3);
    }
}

TEST_P(EvaluatorProperty, SquareMatchesSelfMultiply)
{
    const auto z = randomSlots(0.9);
    const auto ct = ctx_->encrypt(std::span<const Complex>(z));
    const auto sq = ctx_->decrypt(ev_->square(ct));
    const auto mm = ctx_->decrypt(ev_->multiply(ct, ct));
    EXPECT_LT(maxErr(sq, mm), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EvaluatorProperty,
    ::testing::Values(GridPoint{128, 30, 2}, GridPoint{256, 30, 3},
                      GridPoint{256, 36, 2}, GridPoint{512, 30, 3},
                      GridPoint{1024, 30, 2}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
        std::string name = "n";
        name += std::to_string(info.param.n);
        name += "q";
        name += std::to_string(info.param.limbBits);
        name += "L";
        name += std::to_string(info.param.levels);
        return name;
    });

} // namespace
} // namespace heap::ckks
