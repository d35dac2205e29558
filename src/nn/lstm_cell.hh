/**
 * @file
 * LSTM cell with peephole connections (paper §2.1.2, Eqs. 1-6).
 */

#ifndef NLFM_NN_LSTM_CELL_HH
#define NLFM_NN_LSTM_CELL_HH

#include <span>
#include <vector>

#include "nn/batch_evaluator.hh"

namespace nlfm::nn
{

/**
 * Common base for the cell families.
 *
 * A cell owns the parameters of its gates plus the GateInstance identities
 * assigned by the enclosing network, and computes one timestep of a panel
 * of sequences through a caller-supplied BatchGateEvaluator.
 */
class RnnCell
{
  public:
    RnnCell(std::size_t x_size, std::size_t hidden);
    virtual ~RnnCell() = default;

    RnnCell(const RnnCell &) = delete;
    RnnCell &operator=(const RnnCell &) = delete;

    std::size_t xSize() const { return xSize_; }
    std::size_t hiddenSize() const { return hidden_; }

    virtual CellType type() const = 0;
    std::size_t gateCount() const { return gates_.size(); }

    GateParams &gate(std::size_t g);
    const GateParams &gate(std::size_t g) const;

    /** Assign network-level identities; one per gate. */
    void setInstances(std::vector<GateInstance> instances);
    const std::vector<GateInstance> &instances() const { return instances_; }

    /**
     * Allocate a zeroed batch state (state-slot panels plus per-gate
     * scratch) for @p batch sequence slots. States are owned by the
     * caller, so concurrent chunks stepping the same shared cell never
     * race.
     */
    virtual BatchCellState makeBatchState(std::size_t batch) const = 0;

    /**
     * Advance one timestep for every row in @p rows of the panel @p x.
     * Rows not listed (finished sequences) keep their state untouched.
     * A row's update reads only that row, so each sequence evolves
     * bitwise alike in a panel of one or of many. Multiply-adds are
     * written as std::fma, so every build rounds them alike, whatever
     * it would contract (tests/reference pins the rounding). The step
     * is a few dependency phases, each handed to
     * eval.evaluatePhase: a group of gate calls plus the elementwise
     * loop that consumes them, so in the one-chunk schedule each phase
     * is one pool job. A loop reads and writes only its own columns,
     * and writes no panel that a gate of its phase reads (a loop that
     * writes h takes a phase of its own after the gates that read h).
     */
    virtual void stepBatch(const tensor::Matrix &x,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base, BatchCellState &state,
                           BatchGateEvaluator &eval) = 0;

  protected:
    std::size_t xSize_;
    std::size_t hidden_;
    std::vector<GateParams> gates_;
    std::vector<GateInstance> instances_;
};

/**
 * Peephole LSTM (Gers & Schmidhuber [13]):
 *
 *   i_t = sigma(Wix x_t + Wih h_{t-1} + pi . c_{t-1} + bi)   (Eq. 1)
 *   f_t = sigma(Wfx x_t + Wfh h_{t-1} + pf . c_{t-1} + bf)   (Eq. 2)
 *   g_t = phi  (Wgx x_t + Wgh h_{t-1}               + bg)    (Eq. 3)
 *   c_t = f_t . c_{t-1} + i_t . g_t                          (Eq. 4)
 *   o_t = sigma(Wox x_t + Woh h_{t-1} + po . c_t    + bo)    (Eq. 5)
 *   h_t = o_t . phi(c_t)                                     (Eq. 6)
 *
 * With peepholes disabled the pi/pf/po terms vanish. The evaluator
 * supplies only the two dot products per neuron; bias, peephole and
 * activation model E-PUR's MU and always execute.
 */
class LstmCell : public RnnCell
{
  public:
    LstmCell(std::size_t x_size, std::size_t hidden, bool peepholes);

    CellType type() const override { return CellType::Lstm; }

    BatchCellState makeBatchState(std::size_t batch) const override;

    void stepBatch(const tensor::Matrix &x,
                   std::span<const std::size_t> rows, std::size_t slot_base,
                   BatchCellState &state, BatchGateEvaluator &eval) override;

  private:
    bool peepholes_;
};

} // namespace nlfm::nn

#endif // NLFM_NN_LSTM_CELL_HH
