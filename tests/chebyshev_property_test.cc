/**
 * @file
 * Parameterized property tests for homomorphic Chebyshev evaluation
 * (the EvalMod/sigmoid engine): across a battery of functions and
 * degrees, the homomorphic result must match the plaintext series to
 * CKKS precision, and the series must match the true function to its
 * fit error.
 */

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "ckks/chebyshev.h"

namespace heap::ckks {
namespace {

struct FnCase {
    const char* name;
    std::function<double(double)> f;
    int degree;
    double fitTol;  ///< expected plaintext fit error bound
    double homTol;  ///< homomorphic vs true function bound
};

// gtest otherwise prints the raw bytes, pointers included, into the
// discovered test name, which then changes with every build under ASLR.
void PrintTo(const FnCase& c, std::ostream* os)
{
    *os << c.name << " degree " << c.degree;
}

class ChebyshevFunctions : public ::testing::TestWithParam<FnCase> {};

TEST_P(ChebyshevFunctions, HomomorphicMatchesFunction)
{
    const auto& c = GetParam();
    const auto coeffs = chebyshevFit(c.f, c.degree);
    ASSERT_LT(chebyshevMaxError(c.f, coeffs), c.fitTol) << c.name;

    CkksParams p;
    p.n = 256;
    p.limbBits = 30;
    p.levels = 9; // enough for degree <= 63
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    Context ctx(p, 1000 + static_cast<uint64_t>(c.degree));
    Evaluator ev(ctx);

    std::vector<double> xs(128);
    for (size_t i = 0; i < xs.size(); ++i) {
        xs[i] = -0.98 + 1.96 * static_cast<double>(i)
                           / static_cast<double>(xs.size() - 1);
    }
    const auto ct = ctx.encrypt(std::span<const double>(xs));
    const auto out = evalChebyshev(ev, ct, coeffs);
    const auto got = ctx.decrypt(out);
    double worst = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
        worst = std::max(worst, std::abs(got[i].real() - c.f(xs[i])));
    }
    EXPECT_LT(worst, c.homTol) << c.name << " deg " << c.degree;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, ChebyshevFunctions,
    ::testing::Values(
        FnCase{"sigmoid8",
               [](double x) { return 1.0 / (1.0 + std::exp(-8 * x)); },
               31, 2e-2, 4e-2},
        FnCase{"sine2pi",
               [](double x) { return std::sin(2 * std::numbers::pi * x); },
               23, 1e-6, 1e-2},
        FnCase{"exp", [](double x) { return std::exp(x); }, 15, 1e-10,
               1e-2},
        FnCase{"gauss",
               [](double x) { return std::exp(-4 * x * x); }, 27, 1e-6,
               1e-2},
        FnCase{"cubic",
               [](double x) { return 0.3 * x * x * x - 0.5 * x; }, 3,
               1e-12, 5e-3},
        FnCase{"softrelu",
               [](double x) { return std::log1p(std::exp(6 * x)) / 6; },
               39, 1e-2, 3e-2}),
    [](const ::testing::TestParamInfo<FnCase>& info) {
        return std::string(info.param.name);
    });

TEST(ChebyshevEdge, DegreeOneIsAffine)
{
    CkksParams p;
    p.n = 128;
    p.limbBits = 30;
    p.levels = 3;
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    Context ctx(p, 5);
    Evaluator ev(ctx);
    const std::vector<double> coeffs = {0.25, 0.5}; // 0.25 + 0.5 x
    std::vector<double> xs(64);
    for (size_t i = 0; i < xs.size(); ++i) {
        xs[i] = -1.0 + static_cast<double>(i) / 32.0;
    }
    const auto out = evalChebyshev(
        ev, ctx.encrypt(std::span<const double>(xs)), coeffs);
    const auto got = ctx.decrypt(out);
    for (size_t i = 0; i < xs.size(); ++i) {
        EXPECT_NEAR(got[i].real(), 0.25 + 0.5 * xs[i], 1e-3);
    }
}

TEST(ChebyshevEdge, RejectsDegenerateInput)
{
    CkksParams p;
    p.n = 128;
    p.limbBits = 30;
    p.levels = 3;
    p.auxLimbs = 1;
    p.scale = std::pow(2.0, 30);
    p.gadget = rlwe::GadgetParams{.baseBits = 9, .digitsPerLimb = 4};
    Context ctx(p, 6);
    Evaluator ev(ctx);
    std::vector<double> xs(64, 0.5);
    const auto ct = ctx.encrypt(std::span<const double>(xs));
    EXPECT_THROW(evalChebyshev(ev, ct, std::vector<double>{1.0}),
                 UserError);
    EXPECT_THROW(evalChebyshev(ev, ct,
                               std::vector<double>{0.0, 0.0, 0.0}),
                 UserError);
    EXPECT_THROW(chebyshevFit([](double x) { return x; }, 0), UserError);
}

} // namespace
} // namespace heap::ckks
