#include "nn/brc_cell.hh"

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
    for (auto &buffer : preact_)
        buffer.assign(hidden, 0.f);
    modHidden_.assign(hidden, 0.f);
}

CellState
BrcCell::makeState() const
{
    CellState state;
    state.h.assign(hidden_, 0.f);
    return state;
}

void
BrcCell::step(std::span<const float> x, CellState &state,
              GateEvaluator &eval)
{
    nlfm_assert(x.size() == xSize_, "BRC step: x width mismatch");
    nlfm_assert(state.h.size() == hidden_, "BRC step: state shape mismatch");
    nlfm_assert(instances_.size() == 3, "cell instances not assigned");

    eval.evaluateGate(instances_[BrcMod], gates_[BrcMod], x, state.h,
                      preact_[BrcMod]);
    eval.evaluateGate(instances_[BrcUpdate], gates_[BrcUpdate], x, state.h,
                      preact_[BrcUpdate]);

    // a_t modulates the recurrent input of the candidate.
    for (std::size_t n = 0; n < hidden_; ++n) {
        const float a_t =
            1.f + tanhAct(preact_[BrcMod][n] + gates_[BrcMod].bias[n]);
        modHidden_[n] = a_t * state.h[n];
    }

    eval.evaluateGate(instances_[BrcCandidate], gates_[BrcCandidate], x,
                      modHidden_, preact_[BrcCandidate]);

    for (std::size_t n = 0; n < hidden_; ++n) {
        const float c_t =
            sigmoid(preact_[BrcUpdate][n] + gates_[BrcUpdate].bias[n]);
        const float g_t = tanhAct(preact_[BrcCandidate][n] +
                                  gates_[BrcCandidate].bias[n]);
        state.h[n] = c_t * state.h[n] + (1.f - c_t) * g_t;
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

    eval.evaluateGateBatch(instances_[BrcMod], gates_[BrcMod], x, state.h,
                           rows, slot_base, state.preact[BrcMod]);
    eval.evaluateGateBatch(instances_[BrcUpdate], gates_[BrcUpdate], x,
                           state.h, rows, slot_base,
                           state.preact[BrcUpdate]);

    // a_t modulates the recurrent input of the candidate (same
    // expressions as step(), per live row). Both elementwise loops
    // update only their range's columns, whichever thread runs it.
    eval.forEachCellRange(
        instances_[BrcMod], rows.size(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
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
        });

    eval.evaluateGateBatch(instances_[BrcCandidate], gates_[BrcCandidate],
                           x, state.scratch, rows, slot_base,
                           state.preact[BrcCandidate]);

    eval.forEachCellRange(
        instances_[BrcCandidate], rows.size(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (const std::size_t b : rows) {
                const auto pre_c = state.preact[BrcUpdate].row(b);
                const auto pre_g = state.preact[BrcCandidate].row(b);
                const auto h_row = state.h.row(b);
                for (std::size_t n = begin; n < end; ++n) {
                    const float c_t =
                        sigmoid(pre_c[n] + gates_[BrcUpdate].bias[n]);
                    const float g_t = tanhAct(pre_g[n] +
                                              gates_[BrcCandidate].bias[n]);
                    h_row[n] = c_t * h_row[n] + (1.f - c_t) * g_t;
                }
            }
        });
}

} // namespace nlfm::nn
