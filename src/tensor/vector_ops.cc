#include "tensor/vector_ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/logging.hh"

namespace nlfm::tensor
{

float
dot(std::span<const float> a, std::span<const float> b)
{
    nlfm_assert_hot(a.size() == b.size(), "dot: size mismatch ", a.size(),
                    " vs ", b.size());
    // omp simd licenses the reduction reordering (compiled with
    // -fopenmp-simd, no runtime dependency); results stay deterministic
    // for a fixed build.
    const float *pa = a.data();
    const float *pb = b.data();
    const std::size_t n = a.size();
    float acc = 0.f;
#pragma omp simd reduction(+ : acc)
    for (std::size_t i = 0; i < n; ++i)
        acc += pa[i] * pb[i];
    return acc;
}

namespace
{

/**
 * One weight row against kRows input rows, all sharing the explicit
 * 8-lane accumulation structure: one fused multiply-add per lane per
 * 8-element block, a scalar-fma tail, and the fixed pairwise horizontal
 * reduction ((s0+s2)+(s1+s3)) with s_l = lane_l + lane_{l+4}.
 *
 * Every row's float-op sequence is independent of kRows — interleaving
 * rows only changes *when* each op happens, never its operands — so
 * dotLanesBlock<1> and any larger block agree bitwise per row. That per-
 * row DAG is pinned explicitly (intrinsics on AVX2+FMA targets, separate
 * non-contractible statements in the fallback) because leaving it to the
 * vectorizer lets different instantiations contract differently and
 * silently break the agreement. noinline keeps each instantiation a
 * standalone register-allocated loop; inlined into the dispatch loop gcc
 * spills the accumulators and throughput drops ~2.5x.
 */
template <int kRows>
__attribute__((noinline)) void
dotLanesBlock(const float *w, const float *const *xs, std::size_t n,
              float *out)
{
#if defined(__AVX2__) && defined(__FMA__)
    __m256 acc[kRows];
    for (int r = 0; r < kRows; ++r)
        acc[r] = _mm256_setzero_ps();

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 weights = _mm256_loadu_ps(w + i);
        for (int r = 0; r < kRows; ++r)
            acc[r] = _mm256_fmadd_ps(
                weights, _mm256_loadu_ps(xs[r] + i), acc[r]);
    }

    float tail[kRows];
    for (int r = 0; r < kRows; ++r)
        tail[r] = 0.f;
    for (; i < n; ++i)
        for (int r = 0; r < kRows; ++r)
            tail[r] = __builtin_fmaf(w[i], xs[r][i], tail[r]);

    for (int r = 0; r < kRows; ++r) {
        const __m128 low = _mm256_castps256_ps128(acc[r]);
        const __m128 high = _mm256_extractf128_ps(acc[r], 1);
        const __m128 quads = _mm_add_ps(low, high); // {s0,s1,s2,s3}
        const __m128 duo =
            _mm_add_ps(quads, _mm_movehl_ps(quads, quads));
        const __m128 sum =
            _mm_add_ss(duo, _mm_shuffle_ps(duo, duo, 1));
        out[r] = _mm_cvtss_f32(sum) + tail[r];
    }
#else
    // Portable fallback with the same accumulation structure. The
    // multiply stays a separate statement so the compiler cannot
    // contract one instantiation to FMA and not another.
    float acc[kRows][8];
    for (int r = 0; r < kRows; ++r)
        for (int l = 0; l < 8; ++l)
            acc[r][l] = 0.f;

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int r = 0; r < kRows; ++r)
            for (int l = 0; l < 8; ++l) {
                const float product = w[i + l] * xs[r][i + l];
                acc[r][l] += product;
            }

    float tail[kRows];
    for (int r = 0; r < kRows; ++r)
        tail[r] = 0.f;
    for (; i < n; ++i)
        for (int r = 0; r < kRows; ++r) {
            const float product = w[i] * xs[r][i];
            tail[r] += product;
        }

    for (int r = 0; r < kRows; ++r) {
        const float s0 = acc[r][0] + acc[r][4];
        const float s1 = acc[r][1] + acc[r][5];
        const float s2 = acc[r][2] + acc[r][6];
        const float s3 = acc[r][3] + acc[r][7];
        out[r] = ((s0 + s2) + (s1 + s3)) + tail[r];
    }
#endif
}

#if defined(__AVX2__) && defined(__FMA__)

/**
 * Quarter k of the result: neuron k's {s0,s1,s2,s3} of one row, with
 * s_l = lane_l + lane_{l+4}, from the row's two group accumulators.
 * Swapping the quarters within each 256-bit half lines lane l+4 up with
 * lane l.
 */
__attribute__((target("avx512f,avx512dq"))) inline __m512
laneSums(__m512 acc01, __m512 acc23)
{
    const __m512 s01 = _mm512_add_ps(
        acc01, _mm512_maskz_shuffle_f32x4(0xffff, acc01, acc01, 0xb1));
    const __m512 s23 = _mm512_add_ps(
        acc23, _mm512_maskz_shuffle_f32x4(0xffff, acc23, acc23, 0xb1));
    return _mm512_maskz_shuffle_f32x4(0xffff, s01, s23, 0x88);
}

/**
 * Four neurons (w[0..3]) against kRows input rows with dotLanesBlock's
 * arithmetic, two neurons per 512-bit register: acc01[r] holds neuron
 * 0's eight lanes in lanes 0-7 and neuron 1's in lanes 8-15 (acc23[r]
 * neurons 2 and 3), and each 8-float input block is broadcast to both
 * halves. Every lane therefore runs the fused multiply-adds of its
 * neuron's dotLanesBlock lane, on the same operands in the same order;
 * the scalar-fma tail is the same per (row, neuron); and the reduction
 * below performs the adds of dotLanesBlock's ((s0+s2)+(s1+s3)) + tail,
 * for four rows and four neurons per register. So out[k * out_stride +
 * r] is bitwise dotLanes(w[k], xs[r]), while one 8-column block costs
 * a row two 512-bit FMAs instead of four 256-bit ones.
 *
 * Weights are combined in registers from two row loads, so no
 * interleaved weight copy is needed. Only insert-into-zero and maskz_
 * intrinsics: _mm512_castps256_ps512, _mm512_zextps256_ps512,
 * _mm512_broadcast_f32x8 and the unmasked shuffles expand through
 * _mm512_undefined_ps() or _mm512_undefined_pd(), which gcc 12 flags
 * with -Wuninitialized and -Wmaybe-uninitialized. (A masked load also
 * avoids them, but then gcc 12 stores every accumulator inside the
 * block loop.)
 */
template <int kRows>
__attribute__((target("avx512f,avx512dq"), noinline)) void
dotLanesGroupBlock(const float *const *w, std::size_t n,
                   const float *const *xs, float *out,
                   std::size_t out_stride)
{
    __m512 acc01[kRows];
    __m512 acc23[kRows];
    for (int r = 0; r < kRows; ++r) {
        acc01[r] = _mm512_setzero_ps();
        acc23[r] = _mm512_setzero_ps();
    }

    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512 w01 = _mm512_insertf32x8(
            _mm512_insertf32x8(_mm512_setzero_ps(),
                               _mm256_loadu_ps(w[0] + i), 0),
            _mm256_loadu_ps(w[1] + i), 1);
        const __m512 w23 = _mm512_insertf32x8(
            _mm512_insertf32x8(_mm512_setzero_ps(),
                               _mm256_loadu_ps(w[2] + i), 0),
            _mm256_loadu_ps(w[3] + i), 1);
        for (int r = 0; r < kRows; ++r) {
            const __m512 x = _mm512_maskz_broadcast_f32x8(
                0xffff, _mm256_loadu_ps(xs[r] + i));
            acc01[r] = _mm512_fmadd_ps(w01, x, acc01[r]);
            acc23[r] = _mm512_fmadd_ps(w23, x, acc23[r]);
        }
    }

    // Tails in the layout of the reduction's output: row quad q holds
    // neuron k's four rows at [16q + 4k, 16q + 4k + 4).
    constexpr int kQuads = (kRows + 3) / 4;
    alignas(64) float tail[16 * kQuads] = {};
    for (; i < n; ++i)
        for (int r = 0; r < kRows; ++r)
            for (std::size_t k = 0; k < kGroupNeurons; ++k) {
                float &t = tail[16 * (r / 4) + 4 * k + r % 4];
                t = __builtin_fmaf(w[k][i], xs[r][i], t);
            }

    // Fully unrolled, so the accumulators stay in registers.
#pragma GCC unroll 2
    for (int r0 = 0; r0 < kRows; r0 += 4) {
        // Four rows at once: per quarter, {s0+s2, s1+s3} of two rows,
        // then ((s0+s2)+(s1+s3)) of four, then + tail, leave quarter k
        // holding neuron k's results for rows r0..r0+3. Zero rows past
        // the block fill the last quad.
        __m512 q[4];
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j)
            q[j] = r0 + j < kRows ? laneSums(acc01[r0 + j], acc23[r0 + j])
                                  : _mm512_setzero_ps();
        const __m512 h01 =
            _mm512_add_ps(_mm512_maskz_shuffle_ps(0xffff, q[0], q[1], 0x44),
                          _mm512_maskz_shuffle_ps(0xffff, q[0], q[1], 0xee));
        const __m512 h23 =
            _mm512_add_ps(_mm512_maskz_shuffle_ps(0xffff, q[2], q[3], 0x44),
                          _mm512_maskz_shuffle_ps(0xffff, q[2], q[3], 0xee));
        const __m512 dots = _mm512_add_ps(
            _mm512_add_ps(_mm512_maskz_shuffle_ps(0xffff, h01, h23, 0x88),
                          _mm512_maskz_shuffle_ps(0xffff, h01, h23, 0xdd)),
            _mm512_load_ps(tail + 4 * r0));
        const __m128 parts[kGroupNeurons] = {
            _mm512_maskz_extractf32x4_ps(0xf, dots, 0),
            _mm512_maskz_extractf32x4_ps(0xf, dots, 1),
            _mm512_maskz_extractf32x4_ps(0xf, dots, 2),
            _mm512_maskz_extractf32x4_ps(0xf, dots, 3)};
        const int valid = std::min(4, kRows - r0);
        for (std::size_t k = 0; k < kGroupNeurons; ++k) {
            float *dst = out + k * out_stride + r0;
            if (valid == 4) {
                _mm_storeu_ps(dst, parts[k]);
                continue;
            }
            alignas(16) float part[4];
            _mm_store_ps(part, parts[k]);
            for (int j = 0; j < valid; ++j)
                dst[j] = part[j];
        }
    }
}

#endif // __AVX2__ && __FMA__

} // namespace

float
dotLanes(std::span<const float> a, std::span<const float> b)
{
    nlfm_assert_hot(a.size() == b.size(), "dotLanes: size mismatch ",
                    a.size(), " vs ", b.size());
    const float *pb = b.data();
    float out = 0.f;
    dotLanesBlock<1>(a.data(), &pb, a.size(), &out);
    return out;
}

void
dotLanesRows(std::span<const float> w, std::span<const float *const> xs,
             std::span<float> out)
{
    nlfm_assert_hot(xs.size() == out.size(), "dotLanesRows: shape mismatch");
    const std::size_t n = w.size();
    std::size_t r = 0;
    for (; r + 8 <= xs.size(); r += 8)
        dotLanesBlock<8>(w.data(), xs.data() + r, n, out.data() + r);
    // One instantiation per tail width: a ragged tail must not fall
    // into a cascade of 4/2/1-row blocks, each of which re-streams the
    // whole weight row (the memoized batch path evaluates miss-subsets
    // of its slot panels here, so 1..7-row tails are its common case).
    switch (xs.size() - r) {
    case 7:
        dotLanesBlock<7>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    case 6:
        dotLanesBlock<6>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    case 5:
        dotLanesBlock<5>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    case 4:
        dotLanesBlock<4>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    case 3:
        dotLanesBlock<3>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    case 2:
        dotLanesBlock<2>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    case 1:
        dotLanesBlock<1>(w.data(), xs.data() + r, n, out.data() + r);
        break;
    default:
        break;
    }
}

void
dotLanesGroup(std::span<const float *const, kGroupNeurons> w, std::size_t n,
              std::span<const float *const> xs, std::span<float> out)
{
    nlfm_assert_hot(out.size() == kGroupNeurons * xs.size(),
                    "dotLanesGroup: shape mismatch");
    static const detail::DotLanesGroupFn kernel =
        dotLanesGroupIsWide() ? detail::dotLanesGroupAvx512
                              : detail::dotLanesGroupPerNeuron;
    kernel(w.data(), n, xs.data(), xs.size(), out.data());
}

bool
dotLanesGroupIsWide()
{
    static const bool wide = detail::cpuHasAvx512Group();
    return wide;
}

namespace detail
{

void
dotLanesGroupPerNeuron(const float *const *w, std::size_t n,
                       const float *const *xs, std::size_t rows, float *out)
{
    for (std::size_t k = 0; k < kGroupNeurons; ++k)
        dotLanesRows({w[k], n}, {xs, rows}, {out + k * rows, rows});
}

void
dotLanesGroupAvx512(const float *const *w, std::size_t n,
                    const float *const *xs, std::size_t rows, float *out)
{
#if defined(__AVX2__) && defined(__FMA__)
    // Row blocks as in dotLanesRows: 8 rows, then one block of the tail
    // width. (Through a shared dispatcher taking a generic lambda,
    // dotLanesRows measured 5-14 % slower at 2-5 rows and 64-256
    // columns, so each kernel spells its dispatch out.)
    std::size_t r = 0;
    for (; r + 8 <= rows; r += 8)
        dotLanesGroupBlock<8>(w, n, xs + r, out + r, rows);
    switch (rows - r) {
    case 7:
        dotLanesGroupBlock<7>(w, n, xs + r, out + r, rows);
        break;
    case 6:
        dotLanesGroupBlock<6>(w, n, xs + r, out + r, rows);
        break;
    case 5:
        dotLanesGroupBlock<5>(w, n, xs + r, out + r, rows);
        break;
    case 4:
        dotLanesGroupBlock<4>(w, n, xs + r, out + r, rows);
        break;
    case 3:
        dotLanesGroupBlock<3>(w, n, xs + r, out + r, rows);
        break;
    case 2:
        dotLanesGroupBlock<2>(w, n, xs + r, out + r, rows);
        break;
    case 1:
        dotLanesGroupBlock<1>(w, n, xs + r, out + r, rows);
        break;
    default:
        break;
    }
#else
    (void)w, (void)n, (void)xs, (void)rows, (void)out;
    nlfm_panic("dotLanesGroupAvx512: this build's dotLanes has no FMA "
               "lanes to match (cpuHasAvx512Group() is false)");
#endif
}

bool
cpuHasAvx512Group()
{
#if defined(__AVX2__) && defined(__FMA__)
    return __builtin_cpu_supports("avx512f") > 0 &&
           __builtin_cpu_supports("avx512dq") > 0;
#else
    return false;
#endif
}

} // namespace detail

void
axpy(float alpha, std::span<const float> x, std::span<float> y)
{
    nlfm_assert_hot(x.size() == y.size(), "axpy: size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += alpha * x[i];
}

double
relativeDifference(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    return std::fabs(a - b) / std::fabs(a);
}

} // namespace nlfm::tensor
