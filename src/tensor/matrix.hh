/**
 * @file
 * Row-major dense matrix used for gate weight storage.
 *
 * Each row holds one neuron's weight vector, matching E-PUR's layout where
 * the DPU streams one neuron's weights at a time from the weight buffer.
 */

#ifndef NLFM_TENSOR_MATRIX_HH
#define NLFM_TENSOR_MATRIX_HH

#include <cstddef>
#include <span>
#include <vector>

namespace nlfm::tensor
{

/** Dense row-major float matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    /** Mutable view of row @p r (one neuron's weights). */
    std::span<float> row(std::size_t r);

    /** Const view of row @p r. */
    std::span<const float> row(std::size_t r) const;

    std::span<float> data() { return data_; }
    std::span<const float> data() const { return data_; }

    /**
     * out = this * x (matrix-vector product); out.size() == rows(),
     * x.size() == cols().
     */
    void matvec(std::span<const float> x, std::span<float> out) const;

    /**
     * out += this^T * g — the transpose product needed by backpropagation.
     */
    void matvecTransposeAccum(std::span<const float> g,
                              std::span<float> out) const;

    /**
     * GEMV panel kernel for batched evaluation. For each batch row b in
     * @p rows and each neuron r of this [neurons x width] weight matrix:
     *
     *     out(b, r) = dot(row(r), inputs.row(b))      (!accumulate)
     *     out(b, r) += dot(row(r), inputs.row(b))     (accumulate)
     *
     * inputs is [B x width], out is [B x neurons]. Groups of four
     * neuron rows (dotLanesGroup) are the outer loop so each weight row
     * is streamed once across the whole panel — the weight-read
     * amortization the batch path exists for. Per-row results are
     * bitwise identical to dotLanes(row(r), inputs.row(b)), whatever
     * the panel's size.
     */
    void matvecPanel(const Matrix &inputs, std::span<const std::size_t> rows,
                     Matrix &out, bool accumulate) const
    {
        matvecPanel(inputs, rows, out, accumulate, 0, rows_);
    }

    /**
     * matvecPanel restricted to neurons [neuron_begin, neuron_end): only
     * those columns of @p out are written, so disjoint neuron ranges can
     * run concurrently on one output panel.
     */
    void matvecPanel(const Matrix &inputs, std::span<const std::size_t> rows,
                     Matrix &out, bool accumulate, std::size_t neuron_begin,
                     std::size_t neuron_end) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * Fill out[i] with m.row(rows[i]).data() — the row-pointer gather every
 * batched panel kernel starts with. Kept in one place so the gather
 * (and any future prefetch/alignment treatment) cannot diverge between
 * the direct and memoized batch paths.
 */
void gatherRowPointers(const Matrix &m, std::span<const std::size_t> rows,
                       std::span<const float *> out);
void gatherRowPointers(Matrix &m, std::span<const std::size_t> rows,
                       std::span<float *> out);

} // namespace nlfm::tensor

#endif // NLFM_TENSOR_MATRIX_HH
