/**
 * @file
 * Packed ±1 bit-vectors and the XNOR-popcount dot product (paper Eq. 8).
 *
 * A BNN operand is a vector whose elements are +1 or -1 (Eq. 7:
 * `xb = +1 if x >= 0 else -1`). We store one bit per element
 * (1 ⇔ +1, 0 ⇔ -1) in 64-bit words. For two packed vectors of length N:
 *
 *     matches    = popcount(~(a ^ b)) over the N valid bits
 *     mismatches = N - matches
 *     dot        = matches - mismatches = N - 2 * popcount(a ^ b)
 *
 * which is exactly the integer the paper's BDPU computes with XNORs and an
 * adder tree (§3.1.2, §3.3.2). The tail of the last word is kept zeroed in
 * both operands so XOR over padding contributes no mismatches.
 *
 * The probe kernel, bnnDotPanel, comes in three ISA variants selected
 * once at runtime (bnnBestIsa / bnnSetIsa):
 *
 *  - Portable: std::popcount word loop (hardware POPCNT at x86-64-v2+).
 *  - Avx2: the Muła byte-lookup popcount (Muła/Kurz/Lemire, "Faster
 *    Population Counts Using AVX2 Instructions") — 4 words per vector,
 *    accumulated through VPSADBW. Rows here are a few hundred bytes, so
 *    the lookup kernel beats a full Harley-Seal CSA tree, which only
 *    pays off from ~256 B per stream upward.
 *  - Avx512: VPOPCNTDQ, 8 words per vector.
 *
 * The AVX-512 variant is written with explicit intrinsics behind a
 * per-function target attribute rather than compiling the project with
 * -march=native, which gcc 12.2 is known to miscompile here (see
 * CMakeLists.txt). Every variant returns bit-identical integers — the
 * dot product is exact — so memoization decisions never depend on the
 * dispatched ISA; tests/bitpack_test.cc pins this.
 *
 * All variants share one panel structure (mirroring the float kernels'
 * dotLanesBlock): a weight row is loaded once per block and
 * XOR-popcounted against up to 8 input *lanes*, so evaluating a panel of
 * R weight rows × S slot inputs costs each operand one pass through the
 * cache hierarchy. A single dot product is a 1 × 1 panel.
 */

#ifndef NLFM_TENSOR_BITPACK_HH
#define NLFM_TENSOR_BITPACK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.hh"

namespace nlfm::tensor
{

/** Packed vector of ±1 values (1 bit per element). */
class BitVector
{
  public:
    BitVector() = default;

    /** All-(-1) vector of @p size elements. */
    explicit BitVector(std::size_t size);

    /** Binarize a float vector per Eq. 7 (>= 0 maps to +1). */
    static BitVector fromFloats(std::span<const float> values);

    std::size_t size() const { return size_; }

    /** Sign of element @p i as ±1. */
    int get(std::size_t i) const;

    /** Set element @p i to +1 (@p positive) or -1. */
    void set(std::size_t i, bool positive);

    /**
     * Re-binarize in place from @p values without reallocating
     * (the per-timestep input refresh on the accelerator).
     */
    void assignFromFloats(std::span<const float> values);

    /**
     * Binarize the concatenation [a; b] in place; size() must equal
     * a.size() + b.size(). Models the FMU input vector, which is "the
     * concatenation of the forward (xt) and the recurrent connections
     * (ht-1)" (paper §3.3.2).
     */
    void assignConcat(std::span<const float> a, std::span<const float> b);

    std::span<const std::uint64_t> raw() const { return words_; }

  private:
    std::size_t size_ = 0;
    CacheAlignedVector<std::uint64_t> words_;
};

/**
 * Reference implementation: binarize both float vectors and compute the
 * ±1 dot product with a scalar loop, an integer in [-N, N] with the same
 * parity as N. The kernel tests check bnnDotPanel against it, and
 * bench_micro_kernels times it as the naive baseline (BM_BnnDotNaive).
 */
int bnnDotNaive(std::span<const float> a, std::span<const float> b);

/**
 * Matrix of packed rows: the sign-buffer image of a gate weight matrix
 * (paper §3.3.2 splits E-PUR's weight buffer into sign + magnitude).
 *
 * Storage is one contiguous word-major buffer — row r occupies words
 * [r * wordStride(), (r+1) * wordStride()) — so a gate's entire sign
 * matrix streams linearly through the probe kernels. Rows are padded to
 * a whole-word stride with zero bits, which XOR away against the
 * (equally zero-padded) input tails.
 */
class BitMatrix
{
  public:
    BitMatrix() = default;

    BitMatrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Words per row (cols rounded up to a whole word). */
    std::size_t wordStride() const { return stride_; }

    /** Binarize and store row @p r from float weights. */
    void setRow(std::size_t r, std::span<const float> weights);

    /** Packed words of row @p r. */
    std::span<const std::uint64_t> rowWords(std::size_t r) const;

    /** Sign of element (@p r, @p c) as ±1. */
    int get(std::size_t r, std::size_t c) const;

    /** Base of the contiguous word buffer (rows_ * wordStride() words). */
    const std::uint64_t *wordData() const { return words_.data(); }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
    CacheAlignedVector<std::uint64_t> words_;
};

/** Runtime-dispatched ISA variants of the probe kernel. */
enum class BnnIsa
{
    Portable, ///< std::popcount word loop
    Avx2,     ///< Muła byte-lookup popcount
    Avx512,   ///< VPOPCNTDQ
};

/** Human-readable variant name (bench/report labels). */
const char *bnnIsaName(BnnIsa isa);

/** Best variant this CPU supports (detected once, via cpuid). */
BnnIsa bnnBestIsa();

/** Variant the probe kernel currently dispatches to. */
BnnIsa bnnActiveIsa();

/**
 * Force a kernel variant (tests and benches compare variants this way).
 * Returns false — leaving the dispatch unchanged — when the CPU does not
 * support @p isa. Not thread-safe against concurrently running kernels;
 * switch only between evaluations.
 */
bool bnnSetIsa(BnnIsa isa);

/**
 * The probe kernel: out[r * inputs.size() + s] = BNN dot of weight row
 * (row_begin + r) against packed input s, i.e. sum_i w_i * in_i over the
 * w.cols() ±1 elements. Each weight row streams once
 * per block of up to 8 inputs; @p inputs point at word buffers of
 * w.wordStride() words (zero-padded tails), e.g. BitVector::raw().data()
 * of vectors of w.cols() elements.
 */
void bnnDotPanel(const BitMatrix &w, std::size_t row_begin,
                 std::size_t row_count,
                 std::span<const std::uint64_t *const> inputs,
                 std::span<std::int32_t> out);

namespace detail
{

/**
 * Variant panel entry point: out[r * input_count + s] = bits -
 * 2 * popcount(row_r ^ inputs[s]) for row_r = rows_base + r *
 * row_stride words. One indirect call evaluates the whole R x S panel —
 * the row loop lives inside the ISA-pinned function, which matters when
 * R is a gate's whole neuron block and the per-row work is only a few
 * vector iterations.
 */
using BnnPanelFn = void (*)(const std::uint64_t *rows_base,
                            std::size_t row_stride, std::size_t row_count,
                            const std::uint64_t *const *inputs,
                            std::size_t input_count, std::size_t words,
                            std::int32_t bits, std::int32_t *out);

void bnnPanelPortable(const std::uint64_t *rows_base,
                      std::size_t row_stride, std::size_t row_count,
                      const std::uint64_t *const *inputs,
                      std::size_t input_count, std::size_t words,
                      std::int32_t bits, std::int32_t *out);
void bnnPanelAvx2(const std::uint64_t *rows_base, std::size_t row_stride,
                  std::size_t row_count,
                  const std::uint64_t *const *inputs,
                  std::size_t input_count, std::size_t words,
                  std::int32_t bits, std::int32_t *out);
void bnnPanelAvx512(const std::uint64_t *rows_base, std::size_t row_stride,
                    std::size_t row_count,
                    const std::uint64_t *const *inputs,
                    std::size_t input_count, std::size_t words,
                    std::int32_t bits, std::int32_t *out);

bool cpuHasAvx2();
bool cpuHasAvx512Popcount();

} // namespace detail

} // namespace nlfm::tensor

#endif // NLFM_TENSOR_BITPACK_HH
