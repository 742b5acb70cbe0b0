/**
 * @file
 * Thread-local scratch arena for hot-path temporaries.
 *
 * The flat kernels avoid per-call heap allocations by borrowing
 * scratch space from a per-thread chunked arena: a ScratchFrame marks
 * the arena on construction and releases everything borrowed after it
 * on destruction (strict LIFO). Chunks are never freed or reused
 * while a frame holds spans into them, so outstanding spans stay
 * valid even when a nested borrow forces the arena to grow a new
 * chunk.
 *
 * The growth counter (scratchGrowthCount()) lets tests assert
 * steady-state allocation-freedom: after warm-up, repeated calls into
 * the multiply/NTT/gadget paths must not grow the arena.
 */

#ifndef HEAP_MATH_SCRATCH_H
#define HEAP_MATH_SCRATCH_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"

namespace heap::math {

/** Per-thread chunked bump arena of 64-byte-aligned uint64_t blocks. */
class ScratchArena {
  public:
    /** The calling thread's arena. */
    static ScratchArena& instance();

    /**
     * Borrows n words (64-byte aligned, uninitialized). The span
     * stays valid until the enclosing ScratchFrame is destroyed.
     */
    std::span<uint64_t> borrow(size_t n);

    /** Same block viewed as signed words (gadget digits). */
    std::span<int64_t> borrowSigned(size_t n);

    /**
     * Number of times this thread's arena grew a new chunk. Stable
     * across steady-state calls once warmed up; asserted in
     * tests/scratch_test.cc.
     */
    size_t growthCount() const { return growthCount_; }

  private:
    friend class ScratchFrame;

    struct Mark {
        size_t chunk;
        size_t used;
    };

    struct Chunk {
        AlignedU64 buf;
        size_t used = 0;

        explicit Chunk(size_t words)
            : buf(words, AlignedU64::Uninitialized{})
        {
        }
    };

    Mark mark() const;
    void release(const Mark& m);

    static constexpr size_t kMinChunkWords = 1 << 14; // 128 KiB

    std::vector<std::unique_ptr<Chunk>> chunks_;
    size_t active_ = 0; ///< index of the chunk currently bumping
    size_t growthCount_ = 0;
};

/**
 * RAII scope for scratch borrows. Frames must nest (stack order);
 * destroying a frame releases every borrow made while it was the
 * innermost frame.
 */
class ScratchFrame {
  public:
    ScratchFrame()
        : arena_(ScratchArena::instance()), mark_(arena_.mark())
    {
    }

    ~ScratchFrame() { arena_.release(mark_); }

    ScratchFrame(const ScratchFrame&) = delete;
    ScratchFrame& operator=(const ScratchFrame&) = delete;

    std::span<uint64_t> borrow(size_t n) { return arena_.borrow(n); }
    std::span<int64_t> borrowSigned(size_t n)
    {
        return arena_.borrowSigned(n);
    }

  private:
    ScratchArena& arena_;
    ScratchArena::Mark mark_;
};

/** This thread's arena growth counter (see ScratchArena). */
inline size_t
scratchGrowthCount()
{
    return ScratchArena::instance().growthCount();
}

} // namespace heap::math

#endif // HEAP_MATH_SCRATCH_H
