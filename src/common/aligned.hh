/**
 * @file
 * Cache-line-aligned vector storage.
 *
 * Three users with hard requirements:
 *
 *  - the bit-packed probe kernels, whose contiguous word buffers stream
 *    through 32/64-byte SIMD loads;
 *  - the batched memo tables, whose per-neuron slot ranges are padded to
 *    a cache line so concurrent sequence chunks never write the same
 *    line (the padding only works if index 0 starts a line);
 *  - tensor::Matrix, so that neuron ranges of a split phase write whole
 *    lines of the preact and state panels.
 *
 * malloc alignment (16 bytes on glibc) is not enough for any of them.
 * The allocator over-allocates through the plain operator new and keeps
 * the pointer it got just below the aligned block: glibc 2.36's aligned
 * allocation bypasses its per-thread cache, which made the small
 * matrices a closed-batch pass allocates per step cost 1-4 % of a
 * 1-4 sequence IMDB, BRC or RateRNN pass.
 */

#ifndef NLFM_COMMON_ALIGNED_HH
#define NLFM_COMMON_ALIGNED_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace nlfm
{

/** Size every padding decision assumes for a destructive-sharing line. */
inline constexpr std::size_t kCacheLineBytes = 64;

/** Minimal std::allocator replacement with a fixed alignment. */
template <typename T, std::size_t Align = kCacheLineBytes>
struct AlignedAllocator
{
    static_assert(Align >= alignof(void *) && (Align & (Align - 1)) == 0,
                  "alignment must be a power of two that fits a pointer");

    using value_type = T;

    // The non-type Align parameter defeats std::allocator_traits'
    // automatic rebinding, so spell it out.
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    T *allocate(std::size_t n)
    {
        constexpr std::size_t kHeader = sizeof(void *);
        void *const raw =
            ::operator new(n * sizeof(T) + kHeader + Align - 1);
        const std::uintptr_t block =
            (reinterpret_cast<std::uintptr_t>(raw) + kHeader + Align - 1) &
            ~std::uintptr_t{Align - 1};
        reinterpret_cast<void **>(block)[-1] = raw;
        return reinterpret_cast<T *>(block);
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(reinterpret_cast<void **>(p)[-1]);
    }

    template <typename U>
    bool operator==(const AlignedAllocator<U, Align> &) const
    {
        return true;
    }
};

/** std::vector whose buffer starts on a cache line. */
template <typename T>
using CacheAlignedVector = std::vector<T, AlignedAllocator<T>>;

} // namespace nlfm

#endif // NLFM_COMMON_ALIGNED_HH
