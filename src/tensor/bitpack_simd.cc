/**
 * @file
 * AVX2 and AVX-512 variants of the XOR-popcount probe panel kernel, plus
 * the cpuid feature checks behind the runtime dispatch in bitpack.cc.
 *
 * Everything here is explicit intrinsics behind per-function target
 * attributes: the project deliberately does not compile with
 * -march=native because gcc 12.2 miscompiles an auto-vectorized AVX-512
 * tail elsewhere in the tree (see CMakeLists.txt). Pinning the ISA per
 * function keeps the rest of the object file at the baseline arch while
 * still emitting VPOPCNTDQ here.
 *
 * Both variants follow the vectorized-popcount playbook of Muła, Kurz
 * and Lemire ("Faster Population Counts Using AVX2 Instructions"):
 *
 *  - AVX2: the 4-bit byte-lookup popcount (VPSHUFB against a nibble
 *    table) accumulated through VPSADBW into per-lane 64-bit counters.
 *    A Harley-Seal CSA tree on top only amortizes from ~256 bytes per
 *    stream; gate sign rows here are ~100-400 bytes, so the plain
 *    lookup kernel is the right point on their cost curve.
 *  - AVX-512: native VPOPCNTQ on 8 words per vector.
 *
 * Two structural decisions matter as much as the popcount itself,
 * because a gate row is only a few vector blocks long:
 *
 *  - word tails use masked loads instead of a scalar loop (a 25-word
 *    row would otherwise run 1/25th of its work at ~10x per-word cost
 *    across every lane);
 *  - the panel entry points keep the row loop *inside* the ISA-pinned
 *    function, so a whole neuron-block x slot panel costs one indirect
 *    call instead of one per weight row.
 *
 * Every variant computes the same exact integer as the portable kernel —
 * mismatch counts are not floating point — so dispatch can never change
 * a memoization decision.
 */

#include "tensor/bitpack.hh"

#include <immintrin.h>

namespace nlfm::tensor::detail
{

namespace
{

#define NLFM_TARGET_AVX2 __attribute__((target("avx2,popcnt")))
#define NLFM_TARGET_AVX512 \
    __attribute__((target("avx512f,avx512vpopcntdq,popcnt")))

/**
 * AVX2 lane-group body: accumulate popcount(shared ^ lanes[l]) over 4
 * words (32 bytes) per vector step into acc[l], the last block
 * load-masked down to the remaining words. The shared block is loaded
 * once per step; byte popcounts go through the nibble lookup and
 * VPSADBW straight into 4x64-bit counters, so no inner-loop widening
 * cascade is needed.
 */
template <int kLanes>
NLFM_TARGET_AVX2 inline void
accumulateAvx2(const std::uint64_t *shared,
               const std::uint64_t *const *lanes, std::size_t words,
               __m256i (&acc)[kLanes])
{
    const __m256i nibble_counts = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
        2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i zero = _mm256_setzero_si256();

    for (int l = 0; l < kLanes; ++l)
        acc[l] = _mm256_setzero_si256();

    const std::size_t rem = words & 3;
    // Per-qword load mask for the tail block (maskload zeroes the rest,
    // and zero words contribute zero mismatches).
    const __m256i tail_mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(rem)),
        _mm256_setr_epi64x(0, 1, 2, 3));

    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
        const __m256i sv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(shared + w));
        for (int l = 0; l < kLanes; ++l) {
            const __m256i x = _mm256_xor_si256(
                sv, _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(lanes[l] + w)));
            const __m256i lo = _mm256_and_si256(x, low_mask);
            const __m256i hi =
                _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
            const __m256i counts = _mm256_add_epi8(
                _mm256_shuffle_epi8(nibble_counts, lo),
                _mm256_shuffle_epi8(nibble_counts, hi));
            acc[l] =
                _mm256_add_epi64(acc[l], _mm256_sad_epu8(counts, zero));
        }
    }
    if (rem != 0) {
        const __m256i sv = _mm256_maskload_epi64(
            reinterpret_cast<const long long *>(shared + w), tail_mask);
        for (int l = 0; l < kLanes; ++l) {
            const __m256i x = _mm256_xor_si256(
                sv, _mm256_maskload_epi64(
                        reinterpret_cast<const long long *>(lanes[l] + w),
                        tail_mask));
            const __m256i lo = _mm256_and_si256(x, low_mask);
            const __m256i hi =
                _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
            const __m256i counts = _mm256_add_epi8(
                _mm256_shuffle_epi8(nibble_counts, lo),
                _mm256_shuffle_epi8(nibble_counts, hi));
            acc[l] =
                _mm256_add_epi64(acc[l], _mm256_sad_epu8(counts, zero));
        }
    }
}

/** Horizontal sum of one AVX2 accumulator. */
NLFM_TARGET_AVX2 inline std::uint64_t
reduceAvx2(__m256i acc)
{
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i pair = _mm_add_epi64(lo, hi);
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(pair)) +
           static_cast<std::uint64_t>(_mm_extract_epi64(pair, 1));
}

/**
 * AVX2 panel: rows x lane-group, row loop inside the target function.
 */
template <int kLanes>
NLFM_TARGET_AVX2 __attribute__((noinline)) void
panelRowsAvx2(const std::uint64_t *rows_base, std::size_t row_stride,
              std::size_t row_count, const std::uint64_t *const *lanes,
              std::size_t words, std::int32_t bits, std::int32_t *out,
              std::size_t out_stride)
{
    for (std::size_t r = 0; r < row_count; ++r) {
        __m256i acc[kLanes];
        accumulateAvx2<kLanes>(rows_base + r * row_stride, lanes, words,
                               acc);
        std::int32_t *row_out = out + r * out_stride;
        for (int l = 0; l < kLanes; ++l)
            row_out[l] = static_cast<std::int32_t>(
                bits - 2 * static_cast<std::int64_t>(reduceAvx2(acc[l])));
    }
}

/**
 * AVX-512 lane-group body: 8 words per VPXORQ+VPOPCNTQ step, the last
 * block mask-loaded down to the remaining words.
 */
template <int kLanes>
NLFM_TARGET_AVX512 inline void
accumulateAvx512(const std::uint64_t *shared,
                 const std::uint64_t *const *lanes, std::size_t words,
                 __m512i (&acc)[kLanes])
{
    for (int l = 0; l < kLanes; ++l)
        acc[l] = _mm512_setzero_si512();

    const std::size_t rem = words & 7;
    const __mmask8 tail_mask = static_cast<__mmask8>((1u << rem) - 1u);

    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
        const __m512i sv = _mm512_loadu_si512(shared + w);
        for (int l = 0; l < kLanes; ++l)
            acc[l] = _mm512_add_epi64(
                acc[l], _mm512_popcnt_epi64(_mm512_xor_si512(
                            sv, _mm512_loadu_si512(lanes[l] + w))));
    }
    if (rem != 0) {
        const __m512i sv = _mm512_maskz_loadu_epi64(tail_mask, shared + w);
        for (int l = 0; l < kLanes; ++l)
            acc[l] = _mm512_add_epi64(
                acc[l],
                _mm512_popcnt_epi64(_mm512_xor_si512(
                    sv,
                    _mm512_maskz_loadu_epi64(tail_mask, lanes[l] + w))));
    }
}

/**
 * Transpose-reduce eight AVX-512 accumulators in-register: three add
 * levels (qword unpack, then two 128-bit-lane shuffles) leave qword i
 * of the result holding the horizontal sum of acc[i]. ~2.5 ops per
 * lane, against ~10 for a store + scalar-add reduction — which matters
 * when rows are only a few vector blocks long.
 */
NLFM_TARGET_AVX512 inline __m512i
reduce8Avx512(const __m512i (&acc)[8])
{
    // maskz_* unpack forms: the plain intrinsics expand through
    // _mm512_undefined_epi32(), which gcc 12 flags with -Wuninitialized.
    const __m512i s01 =
        _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xff, acc[0], acc[1]),
                         _mm512_maskz_unpackhi_epi64(0xff, acc[0], acc[1]));
    const __m512i s23 =
        _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xff, acc[2], acc[3]),
                         _mm512_maskz_unpackhi_epi64(0xff, acc[2], acc[3]));
    const __m512i s45 =
        _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xff, acc[4], acc[5]),
                         _mm512_maskz_unpackhi_epi64(0xff, acc[4], acc[5]));
    const __m512i s67 =
        _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(0xff, acc[6], acc[7]),
                         _mm512_maskz_unpackhi_epi64(0xff, acc[6], acc[7]));
    const __m512i q0123 =
        _mm512_add_epi64(_mm512_maskz_shuffle_i64x2(0xff, s01, s23, 0x88),
                         _mm512_maskz_shuffle_i64x2(0xff, s01, s23, 0xdd));
    const __m512i q4567 =
        _mm512_add_epi64(_mm512_maskz_shuffle_i64x2(0xff, s45, s67, 0x88),
                         _mm512_maskz_shuffle_i64x2(0xff, s45, s67, 0xdd));
    return _mm512_add_epi64(
        _mm512_maskz_shuffle_i64x2(0xff, q0123, q4567, 0x88),
        _mm512_maskz_shuffle_i64x2(0xff, q0123, q4567, 0xdd));
}

/** Horizontal sum of one AVX-512 accumulator, through memory (see
 * reduce8Avx512 for the hot path; _mm512_reduce_add_epi64 is avoided
 * because it expands through _mm256_undefined_si256(), which gcc 12
 * flags with -Wuninitialized). */
NLFM_TARGET_AVX512 inline std::uint64_t
reduce1Avx512(__m512i acc)
{
    alignas(64) std::uint64_t parts[8];
    _mm512_store_si512(parts, acc);
    std::uint64_t total = 0;
    for (int p = 0; p < 8; ++p)
        total += parts[p];
    return total;
}

/**
 * AVX-512 panel: rows x lane-group, row loop inside the target
 * function; the 8-lane instantiation converts mismatches to BNN dots
 * (bits - 2m) entirely in vector registers and stores all eight at
 * once.
 */
template <int kLanes>
NLFM_TARGET_AVX512 __attribute__((noinline)) void
panelRowsAvx512(const std::uint64_t *rows_base, std::size_t row_stride,
                std::size_t row_count, const std::uint64_t *const *lanes,
                std::size_t words, std::int32_t bits, std::int32_t *out,
                std::size_t out_stride)
{
    [[maybe_unused]] const __m512i bits_v =
        _mm512_set1_epi64(static_cast<long long>(bits));
    for (std::size_t r = 0; r < row_count; ++r) {
        __m512i acc[kLanes];
        accumulateAvx512<kLanes>(rows_base + r * row_stride, lanes, words,
                                 acc);
        std::int32_t *row_out = out + r * out_stride;
        if constexpr (kLanes == 8) {
            const __m512i mism = reduce8Avx512(acc);
            const __m512i dots = _mm512_sub_epi64(
                bits_v, _mm512_add_epi64(mism, mism));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(row_out),
                                _mm512_maskz_cvtepi64_epi32(0xff, dots));
        } else {
            for (int l = 0; l < kLanes; ++l)
                row_out[l] = static_cast<std::int32_t>(
                    bits -
                    2 * static_cast<std::int64_t>(reduce1Avx512(acc[l])));
        }
    }
}

#undef NLFM_TARGET_AVX2
#undef NLFM_TARGET_AVX512

} // namespace

void
bnnPanelAvx2(const std::uint64_t *rows_base, std::size_t row_stride,
             std::size_t row_count, const std::uint64_t *const *inputs,
             std::size_t input_count, std::size_t words, std::int32_t bits,
             std::int32_t *out)
{
    std::size_t s = 0;
    for (; s + 8 <= input_count; s += 8)
        panelRowsAvx2<8>(rows_base, row_stride, row_count, inputs + s,
                         words, bits, out + s, input_count);
    if (input_count - s >= 4) {
        panelRowsAvx2<4>(rows_base, row_stride, row_count, inputs + s,
                         words, bits, out + s, input_count);
        s += 4;
    }
    if (input_count - s >= 2) {
        panelRowsAvx2<2>(rows_base, row_stride, row_count, inputs + s,
                         words, bits, out + s, input_count);
        s += 2;
    }
    if (input_count - s == 1)
        panelRowsAvx2<1>(rows_base, row_stride, row_count, inputs + s,
                         words, bits, out + s, input_count);
}

void
bnnPanelAvx512(const std::uint64_t *rows_base, std::size_t row_stride,
               std::size_t row_count, const std::uint64_t *const *inputs,
               std::size_t input_count, std::size_t words,
               std::int32_t bits, std::int32_t *out)
{
    std::size_t s = 0;
    for (; s + 8 <= input_count; s += 8)
        panelRowsAvx512<8>(rows_base, row_stride, row_count, inputs + s,
                           words, bits, out + s, input_count);
    if (input_count - s >= 4) {
        panelRowsAvx512<4>(rows_base, row_stride, row_count, inputs + s,
                           words, bits, out + s, input_count);
        s += 4;
    }
    if (input_count - s >= 2) {
        panelRowsAvx512<2>(rows_base, row_stride, row_count, inputs + s,
                           words, bits, out + s, input_count);
        s += 2;
    }
    if (input_count - s == 1)
        panelRowsAvx512<1>(rows_base, row_stride, row_count, inputs + s,
                           words, bits, out + s, input_count);
}

bool
cpuHasAvx2()
{
    return __builtin_cpu_supports("avx2") > 0;
}

bool
cpuHasAvx512Popcount()
{
    return __builtin_cpu_supports("avx512f") > 0 &&
           __builtin_cpu_supports("avx512vpopcntdq") > 0;
}

} // namespace nlfm::tensor::detail
