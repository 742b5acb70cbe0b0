/**
 * @file
 * 64-byte-aligned uint64_t buffer for the limb-major math core.
 *
 * RnsPoly stores all of its limbs in one contiguous allocation so the
 * flat kernels in math/kernels.h can stream through cache lines the
 * way the paper's NTT datapath streams through BRAM banks (Section
 * IV-D). The 64-byte alignment matches both the cache line and the
 * widest vector width the runtime dispatch may select.
 */

#ifndef HEAP_COMMON_ALIGNED_H
#define HEAP_COMMON_ALIGNED_H

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <utility>

namespace heap {

/** Owning, zero-initialized (unless asked not to), 64-byte-aligned
 *  array of uint64_t. */
class AlignedU64 {
  public:
    AlignedU64() = default;

    explicit AlignedU64(size_t words) { allocate(words, true); }

    /** Tag: leave the words uninitialized (scratch that is always
     *  written before it is read). */
    struct Uninitialized {};
    AlignedU64(size_t words, Uninitialized) { allocate(words, false); }

    AlignedU64(const AlignedU64& other)
    {
        allocate(other.words_, true);
        if (words_ > 0) {
            std::memcpy(data_, other.data_, words_ * sizeof(uint64_t));
        }
    }

    AlignedU64(AlignedU64&& other) noexcept
        : raw_(std::exchange(other.raw_, nullptr)),
          data_(std::exchange(other.data_, nullptr)),
          words_(std::exchange(other.words_, 0))
    {
    }

    AlignedU64&
    operator=(const AlignedU64& other)
    {
        if (this != &other) {
            AlignedU64 tmp(other);
            *this = std::move(tmp);
        }
        return *this;
    }

    AlignedU64&
    operator=(AlignedU64&& other) noexcept
    {
        if (this != &other) {
            release();
            raw_ = std::exchange(other.raw_, nullptr);
            data_ = std::exchange(other.data_, nullptr);
            words_ = std::exchange(other.words_, 0);
        }
        return *this;
    }

    ~AlignedU64() { release(); }

    size_t size() const { return words_; }
    uint64_t* data() { return data_; }
    const uint64_t* data() const { return data_; }
    std::span<uint64_t> span() { return {data_, words_}; }
    std::span<const uint64_t> span() const { return {data_, words_}; }

  private:
    void
    allocate(size_t words, bool zero)
    {
        words_ = words;
        if (words == 0) {
            data_ = nullptr;
            return;
        }
        // Aligned by hand inside a plain malloc block, not by
        // aligned_alloc: glibc's aligned allocator carves each block
        // out of a larger request, so a freed block is smaller than
        // the next same-size request needs and cannot be reused. A
        // long-lived buffer then strands the freed ones around it.
        // The byte count still rounds up to a whole cache line.
        const size_t bytes =
            (words * sizeof(uint64_t) + kAlign - 1) & ~(kAlign - 1);
        raw_ = std::malloc(bytes + kAlign - 1);
        if (raw_ == nullptr) {
            throw std::bad_alloc();
        }
        data_ = reinterpret_cast<uint64_t*>(
            (reinterpret_cast<uintptr_t>(raw_) + kAlign - 1)
            & ~uintptr_t{kAlign - 1});
        if (zero) {
            std::memset(data_, 0, bytes);
        }
    }

    void
    release()
    {
        std::free(raw_);
        raw_ = nullptr;
        data_ = nullptr;
        words_ = 0;
    }

    static constexpr size_t kAlign = 64;

    void* raw_ = nullptr; ///< the malloc block data_ is aligned in
    uint64_t* data_ = nullptr;
    size_t words_ = 0;
};

} // namespace heap

#endif // HEAP_COMMON_ALIGNED_H
