/**
 * @file
 * BPTT training for small recurrent sequence classifiers.
 *
 * The paper evaluates pretrained networks; our substitution (DESIGN.md §3)
 * trains small models on synthetic tasks so that at least one workload
 * per cell family reports *genuine* task accuracy rather than
 * baseline-drift. The trainer supports unidirectional stacks of any
 * registered cell family (LSTM without peepholes) with a softmax head
 * on the final timestep, optimized with Adam. Its forward pass is the
 * inference one: each layer's cell steps through its own
 * RnnCell::stepBatch on a one-row panel with a DirectBatchEvaluator, so
 * a training loss equals the one computed from RnnNetwork::forward's
 * output, bit for bit, in every build. Only the backward step is
 * per-family code: the descriptor-selected kernels of
 * nn/train_kernels.hh.
 */

#ifndef NLFM_NN_TRAIN_HH
#define NLFM_NN_TRAIN_HH

#include <span>
#include <vector>

#include "common/rng.hh"
#include "nn/train_kernels.hh"

namespace nlfm::nn::train
{

/** Adam hyperparameters. */
struct AdamConfig
{
    double lr = 1e-2;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
};

/** Trainer hyperparameters. */
struct TrainConfig
{
    AdamConfig adam;
    double clipNorm = 5.0; ///< global gradient-norm clip (0 disables)
};

/**
 * Flat registry of trainable parameter blocks with per-element Adam
 * state and gradient buffers.
 */
class ParameterSet
{
  public:
    /** Register a block; returns its index. The span must outlive us. */
    std::size_t add(std::span<float> values);

    std::size_t blockCount() const { return blocks_.size(); }
    std::span<float> values(std::size_t block);
    std::span<float> grad(std::size_t block);

    /** Zero all gradient buffers. */
    void zeroGrads();

    /** Multiply all gradients by @p factor (batch averaging). */
    void scaleGrads(double factor);

    /** Global L2 norm of the gradient. */
    double gradNorm() const;

    /** Clip the global gradient norm to @p max_norm (no-op if smaller). */
    void clipGrads(double max_norm);

    /** One Adam update over every block (increments the shared step). */
    void adamStep(const AdamConfig &config);

    std::size_t totalParameters() const;

  private:
    struct Block
    {
        float *data;
        std::size_t size;
        std::vector<float> grad;
        std::vector<float> m;
        std::vector<float> v;
    };

    std::vector<Block> blocks_;
    std::int64_t step_ = 0;
};

/**
 * Linear + softmax classification head over the final hidden state.
 */
class SoftmaxHead
{
  public:
    SoftmaxHead(std::size_t input_size, std::size_t classes, Rng &rng);

    std::size_t inputSize() const { return weights_.cols(); }
    std::size_t classes() const { return weights_.rows(); }

    /** logits = W h + b. */
    void logits(std::span<const float> h, std::span<float> out) const;

    /** Arg-max class for hidden state @p h. */
    std::size_t predict(std::span<const float> h) const;

    tensor::Matrix &weights() { return weights_; }
    std::vector<float> &bias() { return bias_; }
    const tensor::Matrix &weights() const { return weights_; }
    const std::vector<float> &bias() const { return bias_; }

  private:
    tensor::Matrix weights_; ///< [classes x input]
    std::vector<float> bias_;
};

/** One training example: a feature sequence and its class label. */
struct LabeledSequence
{
    Sequence inputs;
    std::size_t label = 0;
};

/**
 * Backpropagation-through-time trainer for a unidirectional stack +
 * softmax head (cross-entropy on the final timestep).
 */
class BpttTrainer
{
  public:
    /**
     * @param network must be unidirectional; LSTM networks must have
     *                peepholes disabled (the backward pass does not
     *                model peephole gradients).
     */
    BpttTrainer(RnnNetwork &network, SoftmaxHead &head,
                const TrainConfig &config);

    /**
     * Accumulate gradients for one example; returns its loss. Call
     * applyUpdate() after a batch.
     */
    double accumulateExample(const Sequence &inputs, std::size_t label);

    /** Average grads over @p batch_size, clip, Adam step, zero grads. */
    void applyUpdate(std::size_t batch_size);

    /** Convenience: one optimizer step over a whole batch; mean loss. */
    double trainBatch(std::span<const LabeledSequence> batch);

    /** Fraction of examples classified correctly (through @p eval). */
    double evaluateAccuracy(std::span<const LabeledSequence> examples,
                            BatchGateEvaluator &eval);

    /** Mean cross-entropy loss over examples (baseline evaluator). */
    double evaluateLoss(std::span<const LabeledSequence> examples);

    ParameterSet &parameters() { return params_; }

  private:
    /** Step every layer over @p inputs, filling @p caches; the loss. */
    double forwardCached(const Sequence &inputs, std::size_t label,
                         std::vector<LayerCache> &caches,
                         std::vector<float> &probs);
    void backward(const std::vector<LayerCache> &caches,
                  std::span<const float> probs, std::size_t label);

    RnnNetwork &network_;
    SoftmaxHead &head_;
    TrainConfig config_;
    const CellBpttKernel &kernel_; ///< descriptor-selected family math
    ParameterSet params_;
    // Block indices: per layer, per gate: wx, wh, bias; then head W, b.
    struct GateBlocks { std::size_t wx, wh, bias; };
    std::vector<std::vector<GateBlocks>> gateBlocks_;
    std::size_t headWeightBlock_ = 0;
    std::size_t headBiasBlock_ = 0;
};

} // namespace nlfm::nn::train

#endif // NLFM_NN_TRAIN_HH
