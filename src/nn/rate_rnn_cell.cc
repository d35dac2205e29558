#include "nn/rate_rnn_cell.hh"

#include <cmath>
#include <functional>

#include "common/logging.hh"
#include "nn/activations.hh"

namespace nlfm::nn
{

RateRnnCell::RateRnnCell(std::size_t x_size, std::size_t hidden)
    : RnnCell(x_size, hidden)
{
    gates_.resize(1);
    auto &gate = gates_[RateDrive];
    gate.wx = tensor::Matrix(hidden, x_size);
    gate.wh = tensor::Matrix(hidden, hidden);
    gate.bias.assign(hidden, 0.f);
    // Per-neuron leak a = dt/tau on a geometric grid 1.0 -> 0.1: the
    // fastest neuron integrates instantly, the slowest averages over
    // ~10 steps. Stored in the peephole slot (GateAux::Leak).
    gate.peephole.assign(hidden, 1.f);
    if (hidden > 1) {
        const double ratio = std::pow(
            0.1, 1.0 / static_cast<double>(hidden - 1));
        double a = 1.0;
        for (std::size_t n = 0; n < hidden; ++n) {
            gate.peephole[n] = static_cast<float>(a);
            a *= ratio;
        }
    }
}

BatchCellState
RateRnnCell::makeBatchState(std::size_t batch) const
{
    BatchCellState state;
    state.h = tensor::Matrix(batch, hidden_);
    state.preact.assign(1, tensor::Matrix(batch, hidden_));
    return state;
}

void
RateRnnCell::stepBatch(const tensor::Matrix &x,
                       std::span<const std::size_t> rows,
                       std::size_t slot_base, BatchCellState &state,
                       BatchGateEvaluator &eval)
{
    nlfm_assert(x.cols() == xSize_, "rate-RNN stepBatch: x width mismatch");
    nlfm_assert(state.h.cols() == hidden_,
                "rate-RNN stepBatch: state shape mismatch");
    nlfm_assert(instances_.size() == 1, "cell instances not assigned");

    const auto &gate = gates_[RateDrive];
    // Phase 1: the drive gate. Phase 2: the leak update per live row,
    // which writes h, so it cannot share the gate's phase; each range
    // of neurons updates only its own columns.
    const GateCall drive{instances_[RateDrive], gate, x, state.h,
                         state.preact[RateDrive]};
    eval.evaluatePhase(instances_[RateDrive], {&drive, 1}, rows, slot_base,
                       {});
    const auto leak = [&](std::size_t begin, std::size_t end) {
        for (const std::size_t b : rows) {
            const auto pre = state.preact[RateDrive].row(b);
            const auto h_row = state.h.row(b);
            for (std::size_t n = begin; n < end; ++n) {
                const float d_t = tanhAct(pre[n] + gate.bias[n]);
                const float a = gate.peephole[n];
                h_row[n] = std::fma(1.f - a, h_row[n], a * d_t);
            }
        }
    };
    eval.evaluatePhase(instances_[RateDrive], {}, rows, slot_base,
                       std::cref(leak));
}

} // namespace nlfm::nn
