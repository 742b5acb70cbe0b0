#include "math/poly.h"

#include "common/check.h"
#include "math/modarith.h"

namespace heap::math {

void
polyMonomialMul(std::span<const uint64_t> a, uint64_t k,
                std::span<uint64_t> out, uint64_t q)
{
    const size_t n = a.size();
    HEAP_ASSERT(out.size() == n, "polyMonomialMul size mismatch");
    HEAP_ASSERT(a.data() != out.data(), "polyMonomialMul must not alias");
    k %= 2 * n;
    // a_i * X^k contributes to coefficient (i + k) mod 2N with a sign
    // flip whenever the destination wraps past X^N = -1.
    for (size_t i = 0; i < n; ++i) {
        const size_t dst = (i + k) % (2 * n);
        if (dst < n) {
            out[dst] = a[i];
        } else {
            out[dst - n] = negMod(a[i], q);
        }
    }
}

void
polyAutomorphism(std::span<const uint64_t> a, uint64_t t,
                 std::span<uint64_t> out, uint64_t q)
{
    const size_t n = a.size();
    HEAP_ASSERT(out.size() == n, "polyAutomorphism size mismatch");
    HEAP_ASSERT(a.data() != out.data(), "polyAutomorphism must not alias");
    HEAP_CHECK((t & 1) == 1, "automorphism exponent must be odd");
    const uint64_t m = 2 * static_cast<uint64_t>(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t dst = (static_cast<uint64_t>(i) * (t % m)) % m;
        if (dst < n) {
            out[dst] = a[i];
        } else {
            out[dst - n] = negMod(a[i], q);
        }
    }
}

} // namespace heap::math
