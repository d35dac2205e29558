/**
 * @file
 * Bistable recurrent cell (Vecoven, Ernst & Drion, 2020).
 */

#ifndef NLFM_NN_BRC_CELL_HH
#define NLFM_NN_BRC_CELL_HH

#include "nn/lstm_cell.hh"

namespace nlfm::nn
{

/**
 * Neuromodulated bistable recurrent cell (nBRC form):
 *
 *   a_t = 1 + tanh(Wax x_t + Wah h_{t-1} + ba)   (mod)
 *   c_t = sigma (Wcx x_t + Wch h_{t-1} + bc)     (update)
 *   g_t = tanh  (Wgx x_t + Wgh (a_t . h_{t-1}) + bg)  (candidate)
 *   h_t = c_t . h_{t-1} + (1 - c_t) . g_t
 *
 * a in (0, 2) moves each neuron between monostable (a < 1) and
 * bistable (a > 1) dynamics, giving long-horizon memory without a
 * separate cell state. In the original BRC the candidate's recurrent
 * term is the diagonal product a . h; following the GRU idiom here the
 * modulation is folded into the candidate gate's recurrent *operand*
 * (a . h_{t-1} passed as h through the full Wgh), which keeps the
 * Wx x + Wh h evaluator seam intact. Because a >= 0,
 * sign(a . h) == sign(h), so the BNN mirror sees the same binarized
 * recurrent input for all three gates — same argument as the GRU's
 * reset modulation.
 *
 * The update gate takes the descriptor's biasBoost (forgetBias), biasing
 * h_t toward retention at init like the LSTM forget gate.
 */
class BrcCell : public RnnCell
{
  public:
    BrcCell(std::size_t x_size, std::size_t hidden);

    CellType type() const override { return CellType::Brc; }

    BatchCellState makeBatchState(std::size_t batch) const override;

    void stepBatch(const tensor::Matrix &x,
                   std::span<const std::size_t> rows, std::size_t slot_base,
                   BatchCellState &state, BatchGateEvaluator &eval) override;
};

} // namespace nlfm::nn

#endif // NLFM_NN_BRC_CELL_HH
