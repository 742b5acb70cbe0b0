/**
 * @file
 * Boolean TFHE tests: exhaustive truth tables for every bootstrapped
 * gate, NOT/MUX semantics, deep-circuit composition (a ripple-carry
 * adder), and re-encryption freshness (gate outputs feed further
 * gates indefinitely).
 */

#include <gtest/gtest.h>

#include "tfhe/gates.h"

namespace heap::tfhe {
namespace {

struct GatesFixture : ::testing::Test {
    BooleanContext ctx{BooleanParams{}, 99};
};

TEST_F(GatesFixture, EncryptDecryptRoundTrip)
{
    for (int rep = 0; rep < 8; ++rep) {
        EXPECT_TRUE(ctx.decrypt(ctx.encrypt(true)));
        EXPECT_FALSE(ctx.decrypt(ctx.encrypt(false)));
    }
}

struct GateCase {
    const char* name;
    lwe::LweCiphertext (BooleanContext::*fn)(
        const lwe::LweCiphertext&, const lwe::LweCiphertext&) const;
    bool truth[4]; ///< outputs for (00, 01, 10, 11)
};

// gtest otherwise prints the raw bytes, member-function pointer
// included, into the discovered test name, which then changes with
// every build under ASLR.
void PrintTo(const GateCase& c, std::ostream* os) { *os << c.name; }

class GateTruthTable : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruthTable, Exhaustive)
{
    BooleanContext ctx{BooleanParams{}, 1234};
    const auto& c = GetParam();
    for (int in = 0; in < 4; ++in) {
        const bool a = (in >> 1) & 1;
        const bool b = in & 1;
        const auto out =
            (ctx.*c.fn)(ctx.encrypt(a), ctx.encrypt(b));
        EXPECT_EQ(ctx.decrypt(out), c.truth[in])
            << c.name << "(" << a << ", " << b << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateTruthTable,
    ::testing::Values(
        GateCase{"AND", &BooleanContext::gateAnd,
                 {false, false, false, true}},
        GateCase{"OR", &BooleanContext::gateOr,
                 {false, true, true, true}},
        GateCase{"NAND", &BooleanContext::gateNand,
                 {true, true, true, false}},
        GateCase{"NOR", &BooleanContext::gateNor,
                 {true, false, false, false}},
        GateCase{"XOR", &BooleanContext::gateXor,
                 {false, true, true, false}},
        GateCase{"XNOR", &BooleanContext::gateXnor,
                 {true, false, false, true}}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
        return std::string(info.param.name);
    });

TEST_F(GatesFixture, NotIsFreeAndCorrect)
{
    const size_t before = ctx.bootstrapCount();
    EXPECT_FALSE(ctx.decrypt(ctx.gateNot(ctx.encrypt(true))));
    EXPECT_TRUE(ctx.decrypt(ctx.gateNot(ctx.encrypt(false))));
    EXPECT_EQ(ctx.bootstrapCount(), before); // no bootstraps
}

TEST_F(GatesFixture, MuxSelects)
{
    for (int in = 0; in < 8; ++in) {
        const bool sel = (in >> 2) & 1;
        const bool a = (in >> 1) & 1;
        const bool b = in & 1;
        const auto out = ctx.gateMux(ctx.encrypt(sel), ctx.encrypt(a),
                                     ctx.encrypt(b));
        EXPECT_EQ(ctx.decrypt(out), sel ? a : b)
            << "mux(" << sel << ", " << a << ", " << b << ")";
    }
}

TEST_F(GatesFixture, GateOutputsComposeDeeply)
{
    // Chain 8 gates: outputs must stay decryptable (freshness).
    auto x = ctx.encrypt(true);
    const auto one = ctx.encrypt(true);
    for (int i = 0; i < 8; ++i) {
        x = ctx.gateXor(x, one); // toggles each round
    }
    EXPECT_TRUE(ctx.decrypt(x)); // toggled an even number of times
}

TEST_F(GatesFixture, RippleCarryAdder)
{
    // 2-bit adder built from XOR/AND/OR; checks all 16 input pairs'
    // low bit and a sample of full sums.
    auto fullAdder = [&](const lwe::LweCiphertext& a,
                         const lwe::LweCiphertext& b,
                         const lwe::LweCiphertext& cin) {
        const auto axb = ctx.gateXor(a, b);
        const auto sum = ctx.gateXor(axb, cin);
        const auto carry = ctx.gateOr(ctx.gateAnd(a, b),
                                      ctx.gateAnd(axb, cin));
        return std::pair{sum, carry};
    };
    for (const int pair : {0, 5, 10, 15}) {
        const int x = pair >> 2, y = pair & 3;
        const auto a0 = ctx.encrypt(x & 1), a1 = ctx.encrypt((x >> 1) & 1);
        const auto b0 = ctx.encrypt(y & 1), b1 = ctx.encrypt((y >> 1) & 1);
        const auto zero = ctx.encrypt(false);
        const auto [s0, c0] = fullAdder(a0, b0, zero);
        const auto [s1, c1] = fullAdder(a1, b1, c0);
        const int got = ctx.decrypt(s0) + 2 * ctx.decrypt(s1)
                        + 4 * ctx.decrypt(c1);
        EXPECT_EQ(got, x + y) << x << " + " << y;
    }
}

TEST_F(GatesFixture, CountsBootstraps)
{
    const size_t before = ctx.bootstrapCount();
    (void)ctx.gateAnd(ctx.encrypt(true), ctx.encrypt(false));
    EXPECT_EQ(ctx.bootstrapCount(), before + 1);
    (void)ctx.gateMux(ctx.encrypt(true), ctx.encrypt(false),
                      ctx.encrypt(true));
    EXPECT_EQ(ctx.bootstrapCount(), before + 4); // 2 AND + 1 OR
}

} // namespace
} // namespace heap::tfhe
