/**
 * @file
 * One recurrent layer: a directional cell or a forward/backward pair
 * (paper §2.1.1).
 */

#ifndef NLFM_NN_RNN_LAYER_HH
#define NLFM_NN_RNN_LAYER_HH

#include <memory>
#include <vector>

#include "nn/gru_cell.hh"
#include "nn/lstm_cell.hh"
#include "tensor/batch.hh"

namespace nlfm::nn
{

/** A sequence of per-timestep feature vectors. */
using Sequence = std::vector<std::vector<float>>;

/**
 * A stack layer. Unidirectional layers own one cell; bidirectional layers
 * own a forward and a backward cell and concatenate their outputs per
 * timestep ([h_fwd_t ; h_bwd_t]).
 */
class RnnLayer
{
  public:
    /**
     * @param config network topology
     * @param layer_index position in the stack (determines input width)
     */
    RnnLayer(const RnnConfig &config, std::size_t layer_index);

    std::size_t layerIndex() const { return layerIndex_; }
    std::size_t directions() const { return cells_.size(); }
    std::size_t inputSize() const { return inputSize_; }

    /** Output width per timestep (hidden * directions). */
    std::size_t outputSize() const;

    RnnCell &cell(std::size_t direction);
    const RnnCell &cell(std::size_t direction) const;

    /**
     * Run a whole batch panel-wise through the layer.
     *
     * The forward cell consumes each sequence in order x_1..x_N; the
     * backward cell (if present) consumes x_N..x_1 (paper §2.1.1), each
     * sequence's own reversed traversal regardless of padding.
     * @p outputs must be shaped Batch(outputSize(), inputs.lengths()).
     * @p slot_base is the global sequence index of panel row 0 (forwarded
     * to the evaluator so slot-keyed state lines up across chunks). Each
     * sequence's outputs are bitwise identical to a batch of that
     * sequence alone.
     */
    void forwardBatch(const tensor::Batch &inputs, std::size_t slot_base,
                      BatchGateEvaluator &eval, tensor::Batch &outputs);

  private:
    std::size_t layerIndex_;
    std::size_t inputSize_;
    std::size_t hidden_;
    std::vector<std::unique_ptr<RnnCell>> cells_;
};

} // namespace nlfm::nn

#endif // NLFM_NN_RNN_LAYER_HH
