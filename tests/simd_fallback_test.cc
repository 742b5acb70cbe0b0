/**
 * @file
 * The HEAP_FORCE_SCALAR escape hatch and the dispatch fallback rules:
 * forcing the portable path must work on any host (this is what the
 * CI portable leg runs), and requesting a variant that is not
 * compiled in or not runnable must degrade to a valid table rather
 * than fail.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "math/kernels.h"
#include "math/simd.h"

namespace {

using namespace heap::math;

class ForceScalarEnv : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        const char* prev = std::getenv("HEAP_FORCE_SCALAR");
        hadPrev_ = prev != nullptr;
        if (hadPrev_) {
            prev_ = prev;
        }
    }

    void
    TearDown() override
    {
        if (hadPrev_) {
            ::setenv("HEAP_FORCE_SCALAR", prev_.c_str(), 1);
        } else {
            ::unsetenv("HEAP_FORCE_SCALAR");
        }
    }

    bool hadPrev_ = false;
    std::string prev_;
};

TEST_F(ForceScalarEnv, ForcesScalarDetection)
{
    ::setenv("HEAP_FORCE_SCALAR", "1", 1);
    EXPECT_EQ(SimdLevel::Scalar, detail::detectSimdLevel());
    // Any non-empty, non-"0" value forces the fallback.
    ::setenv("HEAP_FORCE_SCALAR", "yes", 1);
    EXPECT_EQ(SimdLevel::Scalar, detail::detectSimdLevel());
}

TEST_F(ForceScalarEnv, ZeroAndUnsetDoNotForce)
{
    ::unsetenv("HEAP_FORCE_SCALAR");
    const SimdLevel unset = detail::detectSimdLevel();
    ::setenv("HEAP_FORCE_SCALAR", "0", 1);
    EXPECT_EQ(unset, detail::detectSimdLevel());
    ::setenv("HEAP_FORCE_SCALAR", "", 1);
    EXPECT_EQ(unset, detail::detectSimdLevel());
}

TEST(SimdDispatch, ScalarTableIsScalar)
{
    EXPECT_EQ(SimdLevel::Scalar, scalarKernels().level);
    EXPECT_EQ(SimdLevel::Scalar,
              kernelsForLevel(SimdLevel::Scalar).level);
}

TEST(SimdDispatch, EveryLevelResolvesToARunnableTable)
{
    // Levels that are not compiled in (or not supported by this CPU)
    // must degrade to a complete table, never a null pointer.
    for (const SimdLevel lvl : {SimdLevel::Scalar, SimdLevel::Avx2,
                                SimdLevel::Avx512, SimdLevel::Neon}) {
        const KernelOps& ops = kernelsForLevel(lvl);
        EXPECT_NE(nullptr, ops.nttForward) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.nttInverse) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.mulMod) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.mulModAccum) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.addMod) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.subMod) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.negMod) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.mulScalarShoup) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.mulScalarShoupAccum)
            << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.liftSigned) << simdLevelName(lvl);
        EXPECT_NE(nullptr, ops.splitDigits) << simdLevelName(lvl);
    }
}

TEST(SimdDispatch, SharedLoopsAreCompiledPerLevel)
{
    // Every table's file compiles its own copy of the shared loops
    // (math/kernels_portable.h) under its own ISA flags. Were those
    // copies given external linkage, the linker could keep one body
    // for all tables: vector code in the scalar table (SIGILL on older
    // CPUs, and HEAP_FORCE_SCALAR silently vector), or scalar code in
    // a vector one. So a runnable SIMD level must not share a pointer
    // with the scalar table for any of them. (The NEON table keeps its
    // own intrinsics and the scalar table's split: kernels_neon.cc does
    // not include the shared loops.)
    const KernelOps& scalar = scalarKernels();
    for (const SimdLevel lvl : {SimdLevel::Avx2, SimdLevel::Avx512}) {
        const KernelOps& ops = kernelsForLevel(lvl);
        if (ops.level != lvl) {
            continue; // not compiled in or not runnable here
        }
        const char* name = simdLevelName(lvl);
        EXPECT_NE(scalar.addMod, ops.addMod) << name;
        EXPECT_NE(scalar.subMod, ops.subMod) << name;
        EXPECT_NE(scalar.negMod, ops.negMod) << name;
        EXPECT_NE(scalar.liftSigned, ops.liftSigned) << name;
        EXPECT_NE(scalar.splitDigits, ops.splitDigits) << name;
    }
}

TEST(SimdDispatch, ProcessTableMatchesActiveLevel)
{
    // kernels() is pinned to the level detected at first use; the two
    // must agree for the lifetime of the process.
    EXPECT_EQ(activeSimdLevel(), kernels().level);
}

TEST(SimdDispatch, LevelNamesAreStable)
{
    EXPECT_STREQ("scalar", simdLevelName(SimdLevel::Scalar));
    EXPECT_STREQ("avx2", simdLevelName(SimdLevel::Avx2));
    EXPECT_STREQ("avx512", simdLevelName(SimdLevel::Avx512));
    EXPECT_STREQ("neon", simdLevelName(SimdLevel::Neon));
}

} // namespace
