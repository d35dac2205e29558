#include "nn/brc_cell.hh"

#include <cmath>
#include <functional>

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

BrcCell::BrcCell(std::size_t x_size, std::size_t hidden)
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
BrcCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.preact.assign(3, tensor::Matrix(batch, hidden_));
    state.scratch = tensor::Matrix(batch, hidden_);
    return state;
}

void
BrcCell::stepBatch(const tensor::Matrix &x, std::span<const std::size_t> rows,
                   std::size_t slot_base, BatchCellState &state,
                   BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "BRC stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_,
                "BRC stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    // Phase 1: a_t and c_t, then a_t modulates the recurrent input of
    // the candidate, per live row. Phase 2: the candidate, then the
    // state update. Each epilogue updates only its range's columns, of
    // a panel that no gate of its phase reads.
    const auto modulate = [&](std::size_t begin, std::size_t end) {
        for (const std::size_t b : rows) {
            const auto pre_a = state.preact[BrcMod].row(b);
            const auto h_row = state.h.row(b);
            const auto mod_row = state.scratch.row(b);
            for (std::size_t n = begin; n < end; ++n) {
                const float a_t =
                    1.f + tanhAct(pre_a[n] + gates_[BrcMod].bias[n]);
                mod_row[n] = a_t * h_row[n];
            }
        }
    };
    const GateCall mod_update[] = {
        {instances_[BrcMod], gates_[BrcMod], x, state.h,
         state.preact[BrcMod]},
        {instances_[BrcUpdate], gates_[BrcUpdate], x, state.h,
         state.preact[BrcUpdate]}};
    eval.evaluatePhase(instances_[BrcMod], mod_update, rows, slot_base,
                       std::cref(modulate));

    const auto update = [&](std::size_t begin, std::size_t end) {
        for (const std::size_t b : rows) {
            const auto pre_c = state.preact[BrcUpdate].row(b);
            const auto pre_g = state.preact[BrcCandidate].row(b);
            const auto h_row = state.h.row(b);
            for (std::size_t n = begin; n < end; ++n) {
                const float c_t =
                    sigmoid(pre_c[n] + gates_[BrcUpdate].bias[n]);
                const float g_t =
                    tanhAct(pre_g[n] + gates_[BrcCandidate].bias[n]);
                h_row[n] = std::fma(c_t, h_row[n], (1.f - c_t) * g_t);
            }
        }
    };
    const GateCall candidate{instances_[BrcCandidate], gates_[BrcCandidate],
                             x, state.scratch, state.preact[BrcCandidate]};
    eval.evaluatePhase(instances_[BrcCandidate], {&candidate, 1}, rows,
                       slot_base, std::cref(update));
}

} // namespace nlfm::nn
