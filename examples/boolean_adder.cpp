/**
 * @file
 * Standalone TFHE on the HEAP substrate (Section VII-A): a 4-bit
 * encrypted ripple-carry adder built from bootstrapped boolean gates.
 * Every gate output is a fresh ciphertext — the circuit composes to
 * any depth, which is exactly what the BlindRotate datapath buys.
 *
 * Build & run:  ./build/examples/boolean_adder
 */

#include <cstdio>
#include <vector>

#include "common/timer.h"
#include "tfhe/gates.h"

int
main()
{
    using namespace heap;
    using namespace heap::tfhe;

    BooleanContext ctx{BooleanParams{}, 2026};
    std::printf("boolean TFHE context: ring N=%zu, LWE n_t=%zu\n\n",
                ctx.params().ringN, ctx.params().lweDim);

    auto encryptNibble = [&](int v) {
        std::vector<lwe::LweCiphertext> bits;
        for (int i = 0; i < 4; ++i) {
            bits.push_back(ctx.encrypt((v >> i) & 1));
        }
        return bits;
    };
    auto fullAdder = [&](const lwe::LweCiphertext& a,
                         const lwe::LweCiphertext& b,
                         const lwe::LweCiphertext& cin) {
        const auto axb = ctx.gateXor(a, b);
        const auto sum = ctx.gateXor(axb, cin);
        const auto carry =
            ctx.gateOr(ctx.gateAnd(a, b), ctx.gateAnd(axb, cin));
        return std::pair{sum, carry};
    };

    for (const auto& [x, y] : {std::pair{3, 5}, {9, 7}, {15, 15},
                              {12, 1}}) {
        const auto a = encryptNibble(x);
        const auto b = encryptNibble(y);
        auto carry = ctx.encrypt(false);

        Timer t;
        const size_t boots0 = ctx.bootstrapCount();
        std::vector<lwe::LweCiphertext> sum;
        for (int i = 0; i < 4; ++i) {
            auto [s, c] = fullAdder(a[i], b[i], carry);
            sum.push_back(std::move(s));
            carry = std::move(c);
        }
        int result = 0;
        for (int i = 0; i < 4; ++i) {
            result |= static_cast<int>(ctx.decrypt(sum[i])) << i;
        }
        result |= static_cast<int>(ctx.decrypt(carry)) << 4;
        std::printf("%2d + %2d = %2d encrypted (expected %2d), "
                    "%zu gate bootstraps in %.0f ms\n",
                    x, y, result, x + y,
                    ctx.bootstrapCount() - boots0, t.millis());
    }
    std::printf("\nEach gate = one BlindRotate + Extract + LWE "
                "KeySwitch — the HEAP functional units of Section IV "
                "running the paper's other scheme end to end.\n");
    return 0;
}
