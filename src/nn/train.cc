#include "nn/train.hh"

#include <cmath>

#include "common/logging.hh"
#include "nn/activations.hh"
#include "nn/cell_descriptor.hh"
#include "tensor/batch.hh"

namespace nlfm::nn::train
{

// ---------------------------------------------------------------------
// ParameterSet
// ---------------------------------------------------------------------

std::size_t
ParameterSet::add(std::span<float> values)
{
    Block block;
    block.data = values.data();
    block.size = values.size();
    block.grad.assign(values.size(), 0.f);
    block.m.assign(values.size(), 0.f);
    block.v.assign(values.size(), 0.f);
    blocks_.push_back(std::move(block));
    return blocks_.size() - 1;
}

std::span<float>
ParameterSet::values(std::size_t block)
{
    nlfm_assert(block < blocks_.size(), "parameter block out of range");
    return {blocks_[block].data, blocks_[block].size};
}

std::span<float>
ParameterSet::grad(std::size_t block)
{
    nlfm_assert(block < blocks_.size(), "parameter block out of range");
    return blocks_[block].grad;
}

void
ParameterSet::zeroGrads()
{
    for (auto &block : blocks_)
        std::fill(block.grad.begin(), block.grad.end(), 0.f);
}

void
ParameterSet::scaleGrads(double factor)
{
    const auto f = static_cast<float>(factor);
    for (auto &block : blocks_)
        for (auto &g : block.grad)
            g *= f;
}

double
ParameterSet::gradNorm() const
{
    double acc = 0.0;
    for (const auto &block : blocks_)
        for (float g : block.grad)
            acc += static_cast<double>(g) * static_cast<double>(g);
    return std::sqrt(acc);
}

void
ParameterSet::clipGrads(double max_norm)
{
    if (max_norm <= 0.0)
        return;
    const double norm = gradNorm();
    if (norm > max_norm)
        scaleGrads(max_norm / norm);
}

void
ParameterSet::adamStep(const AdamConfig &config)
{
    ++step_;
    const double bias1 = 1.0 - std::pow(config.beta1, step_);
    const double bias2 = 1.0 - std::pow(config.beta2, step_);
    for (auto &block : blocks_) {
        for (std::size_t i = 0; i < block.size; ++i) {
            const double g = block.grad[i];
            block.m[i] = static_cast<float>(config.beta1 * block.m[i] +
                                            (1.0 - config.beta1) * g);
            block.v[i] = static_cast<float>(config.beta2 * block.v[i] +
                                            (1.0 - config.beta2) * g * g);
            const double m_hat = block.m[i] / bias1;
            const double v_hat = block.v[i] / bias2;
            block.data[i] -= static_cast<float>(
                config.lr * m_hat / (std::sqrt(v_hat) + config.eps));
        }
    }
}

std::size_t
ParameterSet::totalParameters() const
{
    std::size_t total = 0;
    for (const auto &block : blocks_)
        total += block.size;
    return total;
}

// ---------------------------------------------------------------------
// SoftmaxHead
// ---------------------------------------------------------------------

SoftmaxHead::SoftmaxHead(std::size_t input_size, std::size_t classes,
                         Rng &rng)
    : weights_(classes, input_size), bias_(classes, 0.f)
{
    nlfm_assert(classes >= 2, "need at least two classes");
    const double scale = 1.0 / std::sqrt(static_cast<double>(input_size));
    for (auto &w : weights_.data())
        w = static_cast<float>(rng.normal(0.0, scale));
}

void
SoftmaxHead::logits(std::span<const float> h, std::span<float> out) const
{
    nlfm_assert(h.size() == weights_.cols() && out.size() == weights_.rows(),
                "softmax head shape mismatch");
    weights_.matvec(h, out);
    for (std::size_t k = 0; k < bias_.size(); ++k)
        out[k] += bias_[k];
}

std::size_t
SoftmaxHead::predict(std::span<const float> h) const
{
    std::vector<float> scores(classes());
    logits(h, scores);
    std::size_t best = 0;
    for (std::size_t k = 1; k < scores.size(); ++k)
        if (scores[k] > scores[best])
            best = k;
    return best;
}

// ---------------------------------------------------------------------
// BpttTrainer
// ---------------------------------------------------------------------

BpttTrainer::BpttTrainer(RnnNetwork &network, SoftmaxHead &head,
                         const TrainConfig &config)
    : network_(network), head_(head), config_(config),
      kernel_(cellDescriptor(network.config().cellType).bpttKernel())
{
    const RnnConfig &cfg = network.config();
    nlfm_assert(!cfg.bidirectional,
                "BpttTrainer supports unidirectional networks only");
    kernel_.checkTrainable(cfg);
    nlfm_assert(head.inputSize() == cfg.outputSize(),
                "head width must match network output");

    gateBlocks_.resize(cfg.layers);
    for (std::size_t l = 0; l < cfg.layers; ++l) {
        RnnCell &cell = network.layer(l).cell(0);
        for (std::size_t g = 0; g < cell.gateCount(); ++g) {
            GateParams &params = cell.gate(g);
            GateBlocks blocks;
            blocks.wx = params_.add(params.wx.data());
            blocks.wh = params_.add(params.wh.data());
            blocks.bias = params_.add(params.bias);
            gateBlocks_[l].push_back(blocks);
        }
    }
    headWeightBlock_ = params_.add(head.weights().data());
    headBiasBlock_ = params_.add(head.bias());
}

double
BpttTrainer::forwardCached(const Sequence &inputs, std::size_t label,
                           std::vector<LayerCache> &caches,
                           std::vector<float> &probs)
{
    const RnnConfig &cfg = network_.config();
    nlfm_assert(!inputs.empty(), "empty training sequence");
    caches.assign(cfg.layers, LayerCache{});

    // Each layer steps its cell as RnnNetwork::forward does, on a
    // one-row panel, and keeps what every step leaves in the state.
    DirectBatchEvaluator eval;
    const auto keep = [](Sequence &rows, const tensor::Matrix &panel) {
        if (!panel.empty())
            rows.emplace_back(panel.row(0).begin(), panel.row(0).end());
    };
    for (std::size_t l = 0; l < cfg.layers; ++l) {
        LayerCache &cache = caches[l];
        cache.x = l == 0 ? inputs : caches[l - 1].h;
        RnnCell &cell = network_.layer(l).cell(0);
        const tensor::Batch x = tensor::Batch::pack({&cache.x, 1},
                                                    cell.xSize());
        BatchCellState state = cell.makeBatchState(1);
        for (std::size_t t = 0; t < x.maxSteps(); ++t) {
            cell.stepBatch(x.panel(t), x.activeRows(t), 0, state, eval);
            keep(cache.h, state.h);
            if (!state.extra.empty())
                keep(cache.c, state.extra[0]);
            for (std::size_t g = 0; g < cell.gateCount(); ++g)
                keep(cache.preact[g], state.preact[g]);
            keep(cache.scratch, state.scratch);
        }
    }

    // Head + cross-entropy on the final timestep.
    std::vector<float> scores(head_.classes());
    head_.logits(caches.back().h.back(), scores);
    probs.assign(head_.classes(), 0.f);
    softmax(scores, probs);
    const double p = std::max(static_cast<double>(probs[label]), 1e-12);
    return -std::log(p);
}

void
BpttTrainer::backward(const std::vector<LayerCache> &caches,
                      std::span<const float> probs, std::size_t label)
{
    const RnnConfig &cfg = network_.config();
    const std::size_t hidden = cfg.hiddenSize;
    const std::size_t steps = caches.front().h.size();

    // Head gradients; dlogits = probs - onehot(label).
    std::vector<float> dlogits(probs.begin(), probs.end());
    dlogits[label] -= 1.f;
    const auto &h_final = caches.back().h.back();
    auto head_w_grad = params_.grad(headWeightBlock_);
    auto head_b_grad = params_.grad(headBiasBlock_);
    const std::size_t head_in = head_.inputSize();
    for (std::size_t k = 0; k < head_.classes(); ++k) {
        for (std::size_t j = 0; j < head_in; ++j)
            head_w_grad[k * head_in + j] += dlogits[k] * h_final[j];
        head_b_grad[k] += dlogits[k];
    }

    // dH[t]: gradient w.r.t. this layer's outputs, accumulated from the
    // layer above (dx) and, at the top, from the head at the final step.
    Sequence d_out(steps, std::vector<float>(hidden, 0.f));
    head_.weights().matvecTransposeAccum(dlogits, d_out.back());

    for (std::size_t li = cfg.layers; li-- > 0;) {
        const LayerCache &cache = caches[li];
        RnnCell &cell = network_.layer(li).cell(0);
        const std::size_t n_gates = cell.gateCount();
        const std::size_t x_size = cache.x.front().size();
        Sequence d_x(steps, std::vector<float>(x_size, 0.f));

        std::vector<float> dh(hidden);
        std::vector<float> dh_next(hidden, 0.f);
        std::vector<float> dc_next(hidden, 0.f);
        std::vector<float> da[4];
        for (auto &buffer : da)
            buffer.assign(hidden, 0.f);

        for (std::size_t t = steps; t-- > 0;) {
            const auto &x = cache.x[t];

            for (std::size_t n = 0; n < hidden; ++n)
                dh[n] = d_out[t][n] + dh_next[n];
            std::fill(dh_next.begin(), dh_next.end(), 0.f);

            // Family math: per-gate pre-activation grads plus the
            // elementwise/modulated recurrent contributions.
            kernel_.backwardStep(cell, cache, t, dh, dc_next, dh_next,
                                 da);

            // Generic scatter: accumulate weight/bias grads and
            // backpropagate through wx (always) and wh (unless the
            // kernel already routed that gate's recurrent gradient).
            for (std::size_t g = 0; g < n_gates; ++g) {
                const GateParams &params = cell.gate(g);
                auto wx_grad = params_.grad(gateBlocks_[li][g].wx);
                auto wh_grad = params_.grad(gateBlocks_[li][g].wh);
                auto b_grad = params_.grad(gateBlocks_[li][g].bias);
                const std::vector<float> *rec_in =
                    kernel_.recurrentOperand(cache, t, g);
                for (std::size_t n = 0; n < hidden; ++n) {
                    const float d = da[g][n];
                    if (d == 0.f)
                        continue;
                    b_grad[n] += d;
                    float *wx_row = wx_grad.data() + n * x_size;
                    for (std::size_t j = 0; j < x_size; ++j)
                        wx_row[j] += d * x[j];
                    if (rec_in) {
                        float *wh_row = wh_grad.data() + n * hidden;
                        for (std::size_t j = 0; j < hidden; ++j)
                            wh_row[j] += d * (*rec_in)[j];
                    }
                }
                params.wx.matvecTransposeAccum(da[g], d_x[t]);
                if (kernel_.backpropRecurrentThroughWh(g))
                    params.wh.matvecTransposeAccum(da[g], dh_next);
            }

            // dh_next now holds contributions destined for step t-1;
            // nothing else to do — the loop continues.
        }

        if (li > 0)
            d_out = std::move(d_x);
    }
}

double
BpttTrainer::accumulateExample(const Sequence &inputs, std::size_t label)
{
    nlfm_assert(label < head_.classes(), "label out of range");
    std::vector<LayerCache> caches;
    std::vector<float> probs;
    const double loss = forwardCached(inputs, label, caches, probs);
    backward(caches, probs, label);
    return loss;
}

void
BpttTrainer::applyUpdate(std::size_t batch_size)
{
    nlfm_assert(batch_size > 0, "empty batch");
    params_.scaleGrads(1.0 / static_cast<double>(batch_size));
    params_.clipGrads(config_.clipNorm);
    params_.adamStep(config_.adam);
    params_.zeroGrads();
}

double
BpttTrainer::trainBatch(std::span<const LabeledSequence> batch)
{
    nlfm_assert(!batch.empty(), "empty batch");
    double total = 0.0;
    for (const auto &example : batch)
        total += accumulateExample(example.inputs, example.label);
    applyUpdate(batch.size());
    return total / static_cast<double>(batch.size());
}

double
BpttTrainer::evaluateAccuracy(std::span<const LabeledSequence> examples,
                              BatchGateEvaluator &eval)
{
    nlfm_assert(!examples.empty(), "no evaluation examples");
    std::size_t correct = 0;
    for (const auto &example : examples) {
        const Sequence outputs = network_.forward(example.inputs, eval);
        if (head_.predict(outputs.back()) == example.label)
            ++correct;
    }
    return static_cast<double>(correct) /
           static_cast<double>(examples.size());
}

double
BpttTrainer::evaluateLoss(std::span<const LabeledSequence> examples)
{
    nlfm_assert(!examples.empty(), "no evaluation examples");
    double total = 0.0;
    std::vector<LayerCache> caches;
    std::vector<float> probs;
    for (const auto &example : examples)
        total += forwardCached(example.inputs, example.label, caches,
                               probs);
    return total / static_cast<double>(examples.size());
}

} // namespace nlfm::nn::train
