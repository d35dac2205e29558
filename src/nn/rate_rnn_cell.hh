/**
 * @file
 * Leaky rate-RNN cell (continuous-time rate model, Euler-discretized).
 */

#ifndef NLFM_NN_RATE_RNN_CELL_HH
#define NLFM_NN_RATE_RNN_CELL_HH

#include "nn/lstm_cell.hh"

namespace nlfm::nn
{

/**
 * Euler discretization of the classic rate model
 *
 *   tau . dr/dt = -r + phi(W x + B r + b)
 *
 * with per-neuron step ratio a_n = dt/tau_n:
 *
 *   d_t = phi(Wdx x_t + Wdh r_{t-1} + bd)        (drive)
 *   r_t = (1 - a) . r_{t-1} + a . d_t
 *
 * One gate ("drive"), one state slot (r, stored as BatchCellState::h). The
 * per-neuron leak a lives in the drive gate's peephole storage
 * (GateAux::Leak): it is set by the constructor on a geometric grid
 * from 1.0 down to 0.1 — a spread of effective time constants, the
 * standard rate-network setup — and initNetwork leaves it untouched.
 * Reusing the peephole slot keeps GateParams and the serialized layout
 * unchanged, so the memoization and serving layers need no new code.
 */
class RateRnnCell : public RnnCell
{
  public:
    RateRnnCell(std::size_t x_size, std::size_t hidden);

    CellType type() const override { return CellType::RateRnn; }

    BatchCellState makeBatchState(std::size_t batch) const override;

    void stepBatch(const tensor::Matrix &x,
                   std::span<const std::size_t> rows, std::size_t slot_base,
                   BatchCellState &state, BatchGateEvaluator &eval) override;
};

} // namespace nlfm::nn

#endif // NLFM_NN_RATE_RNN_CELL_HH
