/**
 * @file
 * Per-family BPTT kernels behind the BpttTrainer.
 *
 * The trainer (nn/train.cc) owns everything cell-agnostic: parameter
 * registration, the timestep loops, the generic per-gate weight-grad
 * scatter, head/Adam plumbing. The per-family math — how one forward
 * step fills the activation cache, and how one backward step turns
 * dL/dh_t into per-gate pre-activation gradients — lives in a
 * CellBpttKernel selected through the cell's descriptor
 * (CellDescriptor::bpttKernel), so adding a trainable cell family never
 * touches the trainer itself.
 */

#ifndef NLFM_NN_TRAIN_KERNELS_HH
#define NLFM_NN_TRAIN_KERNELS_HH

#include <span>
#include <vector>

#include "nn/rnn_network.hh"

namespace nlfm::nn::train
{

/** Per-layer forward activations cached for the backward pass. */
struct LayerCache
{
    // Inputs to this layer, one vector per timestep.
    Sequence x;
    // Hidden states h_t, one per timestep.
    Sequence h;
    // Carried cell state c_t per timestep (LSTM); empty for families
    // whose only recurrent state is h (usesCellState() == false).
    Sequence c;
    // Gate activations per timestep (up to four gates).
    Sequence gate[4];
    // Family-specific auxiliary activation per timestep: tanh(c_t) for
    // LSTM, the modulated recurrent operand (r.h_prev / a.h_prev) for
    // GRU and BRC.
    Sequence aux;
};

/**
 * The per-family half of BPTT. Kernels are stateless singletons; all
 * step state travels through the cache and the caller-owned carry
 * vectors, and every expression mirrors the cell's stepBatch.
 */
class CellBpttKernel
{
  public:
    virtual ~CellBpttKernel() = default;

    /** True when LayerCache::c carries a per-step cell state. */
    virtual bool usesCellState() const { return false; }

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
     * Compute step @p t activations from @p x and the previous state,
     * filling cache.gate[g][t], cache.aux[t], cache.h[t] (and
     * cache.c[t] when usesCellState()).
     */
    virtual void forwardStep(RnnCell &cell, const std::vector<float> &x,
                             const std::vector<float> &h_prev,
                             const std::vector<float> &c_prev,
                             LayerCache &cache, std::size_t t) const = 0;

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
