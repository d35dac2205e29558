#include "nn/lstm_cell.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

RnnCell::RnnCell(std::size_t x_size, std::size_t hidden)
    : xSize_(x_size), hidden_(hidden)
{
    nlfm_assert(x_size > 0 && hidden > 0, "empty cell dimensions");
}

GateParams &
RnnCell::gate(std::size_t g)
{
    nlfm_assert(g < gates_.size(), "gate index out of range");
    return gates_[g];
}

const GateParams &
RnnCell::gate(std::size_t g) const
{
    nlfm_assert(g < gates_.size(), "gate index out of range");
    return gates_[g];
}

void
RnnCell::setInstances(std::vector<GateInstance> instances)
{
    nlfm_assert(instances.size() == gates_.size(),
                "one instance per gate required");
    instances_ = std::move(instances);
}

LstmCell::LstmCell(std::size_t x_size, std::size_t hidden, bool peepholes)
    : RnnCell(x_size, hidden), peepholes_(peepholes)
{
    gates_.resize(4);
    for (std::size_t g = 0; g < 4; ++g) {
        auto &gate = gates_[g];
        gate.wx = tensor::Matrix(hidden, x_size);
        gate.wh = tensor::Matrix(hidden, hidden);
        gate.bias.assign(hidden, 0.f);
        // The update gate (Eq. 3) has no peephole; neither does any gate
        // when peepholes are disabled.
        if (peepholes_ && g != LstmUpdate)
            gate.peephole.assign(hidden, 0.f);
    }
}

BatchCellState
LstmCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.extra.assign(1, tensor::Matrix(batch, hidden_));
    state.preact.assign(4, tensor::Matrix(batch, hidden_));
    return state;
}

void
LstmCell::stepBatch(const tensor::Matrix &x,
                    std::span<const std::size_t> rows,
                    std::size_t slot_base, BatchCellState &state,
                    BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "LSTM stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_ && state.extra.size() == 1 &&
                    state.extra[0].cols() == hidden_,
                "LSTM stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 4, "cell instances not assigned");

    for (std::size_t g = 0; g < 4; ++g)
        eval.evaluateGateBatch(instances_[g], gates_[g], x, state.h, rows,
                               slot_base, state.preact[g]);

    // Elementwise update per live row (Eqs. 1-6). Each range of neurons
    // updates only its own columns, whichever thread runs it.
    eval.forEachCellRange(
        instances_[LstmInput], rows.size(),
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (const std::size_t b : rows) {
                const auto pre_i = state.preact[LstmInput].row(b);
                const auto pre_f = state.preact[LstmForget].row(b);
                const auto pre_g = state.preact[LstmUpdate].row(b);
                const auto pre_o = state.preact[LstmOutput].row(b);
                const auto h_row = state.h.row(b);
                const auto c_row = state.extra[0].row(b);
                for (std::size_t n = begin; n < end; ++n) {
                    const float c_prev = c_row[n];

                    float zi = pre_i[n] + gates_[LstmInput].bias[n];
                    float zf = pre_f[n] + gates_[LstmForget].bias[n];
                    if (peepholes_) {
                        zi = std::fma(gates_[LstmInput].peephole[n], c_prev,
                                      zi);
                        zf = std::fma(gates_[LstmForget].peephole[n], c_prev,
                                      zf);
                    }
                    const float i_t = sigmoid(zi);
                    const float f_t = sigmoid(zf);
                    const float g_t =
                        tanhAct(pre_g[n] + gates_[LstmUpdate].bias[n]);

                    const float c_t = std::fma(f_t, c_prev, i_t * g_t);

                    float zo = pre_o[n] + gates_[LstmOutput].bias[n];
                    if (peepholes_)
                        zo = std::fma(gates_[LstmOutput].peephole[n], c_t,
                                      zo);
                    const float o_t = sigmoid(zo);

                    c_row[n] = c_t;
                    h_row[n] = o_t * tanhAct(c_t);
                }
            }
        });
}

} // namespace nlfm::nn
