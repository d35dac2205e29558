/**
 * @file
 * Per-family BPTT backward steps behind the BpttTrainer.
 *
 * The trainer (nn/train.cc) owns everything cell-agnostic: parameter
 * registration, the forward pass (each layer stepped through the
 * cell's own RnnCell::stepBatch), the timestep loops, the generic
 * per-gate weight-grad scatter, head/Adam plumbing. The per-family
 * math — how one backward step turns dL/dh_t into per-gate
 * pre-activation gradients — lives in a CellBpttKernel selected
 * through the cell's descriptor (CellDescriptor::bpttKernel), so
 * adding a trainable cell family never touches the trainer itself.
 */

#ifndef NLFM_NN_TRAIN_KERNELS_HH
#define NLFM_NN_TRAIN_KERNELS_HH

#include <span>
#include <vector>

#include "nn/rnn_network.hh"

namespace nlfm::nn::train
{

/**
 * Per-layer forward state cached for the backward pass: what each
 * timestep's stepBatch left in its one-row BatchCellState.
 */
struct LayerCache
{
    // Inputs to this layer, one vector per timestep.
    Sequence x;
    // Hidden states h_t, one per timestep.
    Sequence h;
    // Cell state c_t per timestep (BatchCellState::extra[0], LSTM);
    // empty for families whose only recurrent state is h.
    Sequence c;
    // Gate pre-activations per timestep (up to four gates), bias not
    // added.
    Sequence preact[4];
    // The modulated recurrent operand per timestep
    // (BatchCellState::scratch): r.h_prev for GRU, a.h_prev for BRC;
    // empty for the other families.
    Sequence scratch;
};

/**
 * The per-family half of BPTT. Kernels are stateless singletons; all
 * step state travels through the cache and the caller-owned carry
 * vectors. A backward step recomputes its gate activations from the
 * cached pre-activations with the cell epilogue's own expressions.
 */
class CellBpttKernel
{
  public:
    virtual ~CellBpttKernel() = default;

    /**
     * Family-specific trainability guards, asserted at trainer
     * construction (e.g. LSTM rejects peepholes — their gradients are
     * not modeled).
     */
    virtual void checkTrainable(const RnnConfig &config) const
    {
        (void)config;
    }

    /**
     * One backward timestep: consume @p dh = dL/dh_t (and the running
     * dL/dc_t in @p dc_next, updated in place for step t-1), fill the
     * per-gate pre-activation gradients @p da, and add the family's
     * elementwise/modulated recurrent-path contributions into
     * @p dh_next. Wh^T contributions of gates for which
     * backpropRecurrentThroughWh() is true are added by the trainer's
     * generic scatter, in gate order, after this call.
     */
    virtual void backwardStep(RnnCell &cell, const LayerCache &cache,
                              std::size_t t, std::span<const float> dh,
                              std::vector<float> &dc_next,
                              std::vector<float> &dh_next,
                              std::vector<float> (&da)[4]) const = 0;

    /**
     * Recurrent operand gate @p g consumed at step @p t — what its
     * weight-grad scatter multiplies da[g] by. Null means h_prev at
     * t == 0 (zero vector, no contribution). Default: h_{t-1}.
     */
    virtual const std::vector<float> *
    recurrentOperand(const LayerCache &cache, std::size_t t,
                     std::size_t g) const
    {
        (void)g;
        return t > 0 ? &cache.h[t - 1] : nullptr;
    }

    /**
     * Whether the generic scatter should add Wh^T da[g] into dh_next.
     * Families that already routed gate g's recurrent gradient through
     * a modulated operand in backwardStep() return false for it.
     */
    virtual bool
    backpropRecurrentThroughWh(std::size_t g) const
    {
        (void)g;
        return true;
    }
};

/** Kernel singletons, referenced by the cell descriptors. */
const CellBpttKernel &lstmBpttKernel();
const CellBpttKernel &gruBpttKernel();
const CellBpttKernel &rateRnnBpttKernel();
const CellBpttKernel &brcBpttKernel();

} // namespace nlfm::nn::train

#endif // NLFM_NN_TRAIN_KERNELS_HH
