#include "nn/gru_cell.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

GruCell::GruCell(std::size_t x_size, std::size_t hidden)
    : RnnCell(x_size, hidden)
{
    gates_.resize(3);
    for (auto &gate : gates_) {
        gate.wx = tensor::Matrix(hidden, x_size);
        gate.wh = tensor::Matrix(hidden, hidden);
        gate.bias.assign(hidden, 0.f);
    }
}

BatchCellState
GruCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.preact.assign(3, tensor::Matrix(batch, hidden_));
    state.scratch = tensor::Matrix(batch, hidden_);
    return state;
}

void
GruCell::stepBatch(const tensor::Matrix &x, std::span<const std::size_t> rows,
                   std::size_t slot_base, BatchCellState &state,
                   BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "GRU stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_,
                "GRU stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    eval.evaluateGateBatch(instances_[GruUpdate], gates_[GruUpdate], x,
                           state.h, rows, slot_base,
                           state.preact[GruUpdate]);
    eval.evaluateGateBatch(instances_[GruReset], gates_[GruReset], x,
                           state.h, rows, slot_base, state.preact[GruReset]);

    // r_t gates the recurrent input of the candidate, per live row.
    // Both elementwise loops update only their range's columns,
    // whichever thread runs it.
    eval.forEachCellRange(
        instances_[GruReset], rows.size(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (const std::size_t b : rows) {
                const auto pre_r = state.preact[GruReset].row(b);
                const auto h_row = state.h.row(b);
                const auto reset_row = state.scratch.row(b);
                for (std::size_t n = begin; n < end; ++n) {
                    const float r_t =
                        sigmoid(pre_r[n] + gates_[GruReset].bias[n]);
                    reset_row[n] = r_t * h_row[n];
                }
            }
        });

    eval.evaluateGateBatch(instances_[GruCandidate], gates_[GruCandidate],
                           x, state.scratch, rows, slot_base,
                           state.preact[GruCandidate]);

    eval.forEachCellRange(
        instances_[GruCandidate], rows.size(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (const std::size_t b : rows) {
                const auto pre_z = state.preact[GruUpdate].row(b);
                const auto pre_g = state.preact[GruCandidate].row(b);
                const auto h_row = state.h.row(b);
                for (std::size_t n = begin; n < end; ++n) {
                    const float z_t =
                        sigmoid(pre_z[n] + gates_[GruUpdate].bias[n]);
                    const float g_t = tanhAct(pre_g[n] +
                                              gates_[GruCandidate].bias[n]);
                    h_row[n] = std::fma(1.f - z_t, h_row[n], z_t * g_t);
                }
            }
        });
}

} // namespace nlfm::nn
