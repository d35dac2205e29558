/**
 * @file
 * Dense float vector kernels.
 *
 * These are the numerical primitives behind gate evaluation: dot products
 * (the DPU's job in E-PUR), axpy (Matrix's transposed product) and the
 * relative difference of the paper's reuse criteria.
 */

#ifndef NLFM_TENSOR_VECTOR_OPS_HH
#define NLFM_TENSOR_VECTOR_OPS_HH

#include <cstddef>
#include <span>
#include <vector>

namespace nlfm::tensor
{

/** Dense dot product; sizes must match. */
float dot(std::span<const float> a, std::span<const float> b);

/**
 * Explicit-lane dot product: eight independent partial sums over
 * 8-element blocks, a scalar tail, and a fixed-order horizontal
 * reduction. Unlike dot(), whose reduction order is whatever the
 * compiler picks per call site, the operation DAG here is pinned by the
 * source structure — which is what lets the batched panel kernel
 * (dotLanesRows) interleave many rows per weight load and still produce
 * bit-identical per-row results.
 */
float dotLanes(std::span<const float> a, std::span<const float> b);

/**
 * Blocked multi-row GEMV panel kernel: out[r] = dotLanes(w, *xs[r]) for
 * every r, bit for bit, but with each weight block loaded once and
 * FMA-ed into up to 8 rows' accumulators. The per-weight-load
 * arithmetic intensity is what makes a batch of sequences beat the same
 * sequences one at a time, even on one core.
 */
void dotLanesRows(std::span<const float> w,
                  std::span<const float *const> xs, std::span<float> out);

/** Neurons (weight rows) per dotLanesGroup call. */
inline constexpr std::size_t kGroupNeurons = 4;

/**
 * Four-neuron GEMV panel kernel: out[k * xs.size() + r] =
 * dotLanes({w[k], n}, {xs[r], n}) for every neuron k and row r, bit for
 * bit. Where the CPU has AVX-512F/DQ (checked once, via cpuid) one pass
 * evaluates all four neurons with two neurons per 512-bit register;
 * elsewhere it runs dotLanesRows once per neuron.
 */
void dotLanesGroup(std::span<const float *const, kGroupNeurons> w,
                   std::size_t n, std::span<const float *const> xs,
                   std::span<float> out);

/**
 * True when dotLanesGroup runs the grouped AVX-512 pass, which issues
 * half the FMA instructions of four per-neuron passes over the same
 * rows; false when it is those four passes.
 */
bool dotLanesGroupIsWide();

/** y += alpha * x. */
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/**
 * Relative difference |a - b| / |a| with the convention used throughout
 * the paper's equations (Eq. 9 / Eq. 12): when the reference @p a is zero
 * the difference is 0 if b is also zero and +infinity otherwise.
 */
double relativeDifference(double a, double b);

namespace detail
{

/**
 * Variant entry point of dotLanesGroup: out[k * rows + r] = dotLanes of
 * weight row w[k] (n floats) against xs[r], for k < kGroupNeurons and
 * r < rows.
 */
using DotLanesGroupFn = void (*)(const float *const *w, std::size_t n,
                                 const float *const *xs, std::size_t rows,
                                 float *out);

/** dotLanesRows once per neuron (AVX2+FMA in x86-64-v3 builds). */
void dotLanesGroupPerNeuron(const float *const *w, std::size_t n,
                            const float *const *xs, std::size_t rows,
                            float *out);

/**
 * One pass over four neurons with AVX-512F/DQ; call it only where
 * cpuHasAvx512Group() holds.
 */
void dotLanesGroupAvx512(const float *const *w, std::size_t n,
                         const float *const *xs, std::size_t rows,
                         float *out);

/**
 * The CPU has AVX-512F/DQ and this build's dotLanes uses AVX2+FMA, the
 * arithmetic dotLanesGroupAvx512 reproduces per lane.
 */
bool cpuHasAvx512Group();

} // namespace detail

} // namespace nlfm::tensor

#endif // NLFM_TENSOR_VECTOR_OPS_HH
