/**
 * @file
 * GRU cell (paper §2.1.3, Cho et al. [10]).
 */

#ifndef NLFM_NN_GRU_CELL_HH
#define NLFM_NN_GRU_CELL_HH

#include "nn/lstm_cell.hh"

namespace nlfm::nn
{

/**
 * Gated Recurrent Unit:
 *
 *   z_t = sigma(Wzx x_t + Wzh h_{t-1} + bz)
 *   r_t = sigma(Wrx x_t + Wrh h_{t-1} + br)
 *   g_t = phi  (Wgx x_t + Wgh (r_t . h_{t-1}) + bg)
 *   h_t = (1 - z_t) . h_{t-1} + z_t . g_t
 *
 * The candidate gate's recurrent operand is the reset-modulated hidden
 * state; its evaluator call receives that panel as @p h. Because
 * sigma(r) > 0, sign(r . h) == sign(h), so the BNN mirror sees the same
 * binarized recurrent input for all three gates.
 */
class GruCell : public RnnCell
{
  public:
    GruCell(std::size_t x_size, std::size_t hidden);

    CellType type() const override { return CellType::Gru; }

    BatchCellState makeBatchState(std::size_t batch) const override;

    void stepBatch(const tensor::Matrix &x,
                   std::span<const std::size_t> rows, std::size_t slot_base,
                   BatchCellState &state, BatchGateEvaluator &eval) override;
};

} // namespace nlfm::nn

#endif // NLFM_NN_GRU_CELL_HH
