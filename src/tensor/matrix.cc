#include "tensor/matrix.hh"

#include "common/logging.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::tensor
{

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.f)
{
}

float &
Matrix::at(std::size_t r, std::size_t c)
{
    nlfm_assert(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

float
Matrix::at(std::size_t r, std::size_t c) const
{
    nlfm_assert(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

std::span<float>
Matrix::row(std::size_t r)
{
    nlfm_assert(r < rows_, "matrix row out of range");
    return {data_.data() + r * cols_, cols_};
}

std::span<const float>
Matrix::row(std::size_t r) const
{
    nlfm_assert(r < rows_, "matrix row out of range");
    return {data_.data() + r * cols_, cols_};
}

void
Matrix::matvec(std::span<const float> x, std::span<float> out) const
{
    nlfm_assert(x.size() == cols_, "matvec: x size ", x.size(), " != cols ",
                cols_);
    nlfm_assert(out.size() == rows_, "matvec: out size mismatch");
    for (std::size_t r = 0; r < rows_; ++r)
        out[r] = dot(row(r), x);
}

void
Matrix::matvecTransposeAccum(std::span<const float> g,
                             std::span<float> out) const
{
    nlfm_assert(g.size() == rows_, "matvecT: g size mismatch");
    nlfm_assert(out.size() == cols_, "matvecT: out size mismatch");
    for (std::size_t r = 0; r < rows_; ++r) {
        const float gr = g[r];
        if (gr == 0.f)
            continue;
        axpy(gr, row(r), out);
    }
}

void
Matrix::matvecPanel(const Matrix &inputs, std::span<const std::size_t> rows,
                    Matrix &out, bool accumulate, std::size_t neuron_begin,
                    std::size_t neuron_end) const
{
    nlfm_assert(inputs.cols() == cols_, "matvecPanel: input width ",
                inputs.cols(), " != cols ", cols_);
    nlfm_assert(out.rows() == inputs.rows() && out.cols() == rows_,
                "matvecPanel: out shape mismatch");
    nlfm_assert(neuron_begin <= neuron_end && neuron_end <= rows_,
                "matvecPanel: neuron range out of bounds");

    // Gather the live rows' base pointers once; the neuron loop then
    // streams each group of weight rows across the whole panel via the
    // grouped kernel, and the last neurons of a range that fill no group
    // one at a time. thread_local scratch: this runs per gate per
    // timestep, and each pool worker reuses its own buffers instead of
    // reallocating.
    thread_local std::vector<const float *> input_rows;
    thread_local std::vector<float *> out_rows;
    thread_local std::vector<float> products;
    const std::size_t panel = rows.size();
    input_rows.resize(panel);
    out_rows.resize(panel);
    products.resize(kGroupNeurons * panel);
    gatherRowPointers(inputs, rows, input_rows);
    gatherRowPointers(out, rows, out_rows);
    // Write (or add) neuron r's dots, one per panel row, into out.
    const auto store = [&](std::size_t r, const float *dots) {
        if (accumulate) {
            for (std::size_t i = 0; i < panel; ++i)
                out_rows[i][r] += dots[i];
        } else {
            for (std::size_t i = 0; i < panel; ++i)
                out_rows[i][r] = dots[i];
        }
    };
    std::size_t r = neuron_begin;
    for (; r + kGroupNeurons <= neuron_end; r += kGroupNeurons) {
        const float *const group[kGroupNeurons] = {
            row(r).data(), row(r + 1).data(), row(r + 2).data(),
            row(r + 3).data()};
        dotLanesGroup(group, cols_, input_rows, products);
        for (std::size_t k = 0; k < kGroupNeurons; ++k)
            store(r + k, products.data() + k * panel);
    }
    for (; r < neuron_end; ++r) {
        dotLanesRows(row(r), input_rows, {products.data(), panel});
        store(r, products.data());
    }
}

void
gatherRowPointers(const Matrix &m, std::span<const std::size_t> rows,
                  std::span<const float *> out)
{
    nlfm_assert(rows.size() == out.size(), "gather: shape mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i)
        out[i] = m.row(rows[i]).data();
}

void
gatherRowPointers(Matrix &m, std::span<const std::size_t> rows,
                  std::span<float *> out)
{
    nlfm_assert(rows.size() == out.size(), "gather: shape mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i)
        out[i] = m.row(rows[i]).data();
}

} // namespace nlfm::tensor
