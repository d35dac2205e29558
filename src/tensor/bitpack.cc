#include "tensor/bitpack.hh"

#include <algorithm>
#include <bit>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/logging.hh"

namespace nlfm::tensor
{

namespace
{

/**
 * Pack sign bits of @p values into ceil(n/64) words at @p dst (Eq. 7:
 * >= 0 maps to bit 1), zeroing the tail bits of the last word.
 *
 * With AVX2 available at compile time the comparison runs 8 floats per
 * VCMPPS/VMOVMSKPS pair; the scalar path is the bit-at-a-time loop. Both
 * agree bitwise, including on -0.0f (>= 0, like the scalar compare) and
 * NaN (compares false, packs as -1).
 */
void
packSignBits(std::span<const float> values, std::uint64_t *dst)
{
    const float *v = values.data();
    const std::size_t n = values.size();
    std::size_t i = 0;
    std::size_t w = 0;
#if defined(__AVX2__)
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 64 <= n; i += 64, ++w) {
        std::uint64_t word = 0;
        for (int b = 0; b < 64; b += 8) {
            const __m256 block = _mm256_loadu_ps(v + i + b);
            const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
                _mm256_cmp_ps(block, zero, _CMP_GE_OQ)));
            word |= static_cast<std::uint64_t>(mask) << b;
        }
        dst[w] = word;
    }
#endif
    std::uint64_t word = 0;
    for (; i < n; ++i) {
        if (v[i] >= 0.f)
            word |= std::uint64_t{1} << (i & 63);
        if ((i & 63) == 63) {
            dst[w++] = word;
            word = 0;
        }
    }
    if (n & 63)
        dst[w] = word;
}

} // namespace

BitVector::BitVector(std::size_t size)
    : size_(size), words_((size + 63) / 64, 0)
{
}

BitVector
BitVector::fromFloats(std::span<const float> values)
{
    BitVector out(values.size());
    out.assignFromFloats(values);
    return out;
}

void
BitVector::assignFromFloats(std::span<const float> values)
{
    nlfm_assert_hot(values.size() == size_,
                    "assignFromFloats: size mismatch ", values.size(),
                    " vs ", size_);
    packSignBits(values, words_.data());
}

void
BitVector::assignConcat(std::span<const float> a, std::span<const float> b)
{
    nlfm_assert_hot(a.size() + b.size() == size_,
                    "assignConcat: size mismatch ", a.size(), "+", b.size(),
                    " vs ", size_);
    packSignBits(a, words_.data());
    if (b.empty())
        return;

    const std::size_t offset = a.size() & 63;
    if (offset == 0) {
        packSignBits(b, words_.data() + a.size() / 64);
        return;
    }

    // The concatenation boundary falls mid-word: pack b word-aligned
    // into scratch, then funnel-shift it in behind a's tail bits.
    thread_local std::vector<std::uint64_t> scratch;
    const std::size_t b_words = (b.size() + 63) / 64;
    scratch.resize(b_words);
    packSignBits(b, scratch.data());

    const std::size_t base = a.size() / 64;
    std::uint64_t carry = words_[base]; // a's tail bits, high bits zero
    for (std::size_t k = 0; k < b_words; ++k) {
        words_[base + k] = carry | (scratch[k] << offset);
        carry = scratch[k] >> (64 - offset);
    }
    if (base + b_words < words_.size())
        words_[base + b_words] = carry;
}

int
BitVector::get(std::size_t i) const
{
    nlfm_assert(i < size_, "bit index out of range");
    return (words_[i >> 6] >> (i & 63)) & 1 ? +1 : -1;
}

void
BitVector::set(std::size_t i, bool positive)
{
    nlfm_assert(i < size_, "bit index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (positive)
        words_[i >> 6] |= mask;
    else
        words_[i >> 6] &= ~mask;
}

int
bnnDotNaive(std::span<const float> a, std::span<const float> b)
{
    nlfm_assert(a.size() == b.size(), "bnnDotNaive: size mismatch");
    int acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const int sa = a[i] >= 0.f ? 1 : -1;
        const int sb = b[i] >= 0.f ? 1 : -1;
        acc += sa * sb;
    }
    return acc;
}

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), stride_((cols + 63) / 64),
      words_(rows * stride_, 0)
{
}

void
BitMatrix::setRow(std::size_t r, std::span<const float> weights)
{
    nlfm_assert(r < rows_, "BitMatrix row out of range");
    nlfm_assert(weights.size() == cols_, "BitMatrix setRow width mismatch");
    packSignBits(weights, words_.data() + r * stride_);
}

std::span<const std::uint64_t>
BitMatrix::rowWords(std::size_t r) const
{
    nlfm_assert_hot(r < rows_, "BitMatrix row out of range");
    return {words_.data() + r * stride_, stride_};
}

int
BitMatrix::get(std::size_t r, std::size_t c) const
{
    nlfm_assert(r < rows_ && c < cols_, "BitMatrix index out of range");
    const std::uint64_t word = words_[r * stride_ + (c >> 6)];
    return (word >> (c & 63)) & 1 ? +1 : -1;
}

// --------------------------------------------------------------- kernels

namespace detail
{

namespace
{

/**
 * Portable lane group: the shared word is loaded once and XOR-popcounted
 * into kLanes accumulators (std::popcount is a single POPCNT at
 * x86-64-v2 and above). The structural mirror of dotLanesBlock.
 */
template <int kLanes>
void
lanesPortable(const std::uint64_t *shared, const std::uint64_t *const *lanes,
              std::size_t words, std::uint64_t *mism)
{
    std::uint64_t acc[kLanes] = {};
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t sw = shared[w];
        for (int l = 0; l < kLanes; ++l)
            acc[l] += static_cast<std::uint64_t>(
                std::popcount(sw ^ lanes[l][w]));
    }
    for (int l = 0; l < kLanes; ++l)
        mism[l] = acc[l];
}

/**
 * mism[l] = popcount(shared ^ lanes[l]) summed over @p words words, for
 * l in [0, lane_count): lane groups of 8/4/2/1 with the shared stream
 * loaded once per group.
 */
void
mismatchesPortable(const std::uint64_t *shared,
                   const std::uint64_t *const *lanes,
                   std::size_t lane_count, std::size_t words,
                   std::uint64_t *mism)
{
    std::size_t l = 0;
    for (; l + 8 <= lane_count; l += 8)
        lanesPortable<8>(shared, lanes + l, words, mism + l);
    if (lane_count - l >= 4) {
        lanesPortable<4>(shared, lanes + l, words, mism + l);
        l += 4;
    }
    if (lane_count - l >= 2) {
        lanesPortable<2>(shared, lanes + l, words, mism + l);
        l += 2;
    }
    if (lane_count - l == 1)
        lanesPortable<1>(shared, lanes + l, words, mism + l);
}

} // namespace

void
bnnPanelPortable(const std::uint64_t *rows_base, std::size_t row_stride,
                 std::size_t row_count, const std::uint64_t *const *inputs,
                 std::size_t input_count, std::size_t words,
                 std::int32_t bits, std::int32_t *out)
{
    // Row loop outside the lane grouping: the portable variant is the
    // compatibility fallback, not the fast path.
    std::uint64_t mism[8];
    for (std::size_t r = 0; r < row_count; ++r) {
        const std::uint64_t *row = rows_base + r * row_stride;
        std::int32_t *row_out = out + r * input_count;
        std::size_t s = 0;
        while (s < input_count) {
            const std::size_t group = std::min<std::size_t>(8, input_count - s);
            mismatchesPortable(row, inputs + s, group, words, mism);
            for (std::size_t l = 0; l < group; ++l)
                row_out[s + l] = static_cast<std::int32_t>(
                    bits - 2 * static_cast<std::int64_t>(mism[l]));
            s += group;
        }
    }
}

} // namespace detail

// -------------------------------------------------------------- dispatch

namespace
{

struct BnnDispatch
{
    BnnIsa isa = BnnIsa::Portable;
    detail::BnnPanelFn panel = &detail::bnnPanelPortable;
};

BnnDispatch
bestDispatch()
{
    if (detail::cpuHasAvx512Popcount())
        return {BnnIsa::Avx512, &detail::bnnPanelAvx512};
    if (detail::cpuHasAvx2())
        return {BnnIsa::Avx2, &detail::bnnPanelAvx2};
    return {};
}

BnnDispatch &
dispatch()
{
    static BnnDispatch active = bestDispatch();
    return active;
}

} // namespace

const char *
bnnIsaName(BnnIsa isa)
{
    switch (isa) {
    case BnnIsa::Portable:
        return "portable";
    case BnnIsa::Avx2:
        return "avx2";
    case BnnIsa::Avx512:
        return "avx512-vpopcntdq";
    }
    return "?";
}

BnnIsa
bnnBestIsa()
{
    return bestDispatch().isa;
}

BnnIsa
bnnActiveIsa()
{
    return dispatch().isa;
}

bool
bnnSetIsa(BnnIsa isa)
{
    switch (isa) {
    case BnnIsa::Avx512:
        if (!detail::cpuHasAvx512Popcount())
            return false;
        dispatch() = {isa, &detail::bnnPanelAvx512};
        return true;
    case BnnIsa::Avx2:
        if (!detail::cpuHasAvx2())
            return false;
        dispatch() = {isa, &detail::bnnPanelAvx2};
        return true;
    case BnnIsa::Portable:
        dispatch() = {};
        return true;
    }
    return false;
}

// --------------------------------------------------------------- entry

void
bnnDotPanel(const BitMatrix &w, std::size_t row_begin, std::size_t row_count,
            std::span<const std::uint64_t *const> inputs,
            std::span<std::int32_t> out)
{
    nlfm_assert_hot(row_begin + row_count <= w.rows(),
                    "bnnDotPanel: row range out of bounds");
    nlfm_assert_hot(out.size() >= row_count * inputs.size(),
                    "bnnDotPanel: output too small");

    // Each weight row is the shared stream against the slot-input lanes:
    // the sign matrix streams linearly top to bottom, once per panel,
    // and the whole panel is one call into the dispatched variant.
    dispatch().panel(w.wordData() + row_begin * w.wordStride(),
                     w.wordStride(), row_count, inputs.data(),
                     inputs.size(), w.wordStride(),
                     static_cast<std::int32_t>(w.cols()), out.data());
}

} // namespace nlfm::tensor
