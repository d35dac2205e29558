#include "nn/rnn_network.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace nlfm::nn
{

RnnNetwork::RnnNetwork(const RnnConfig &config) : config_(config)
{
    nlfm_assert(config.inputSize > 0 && config.hiddenSize > 0 &&
                    config.layers > 0,
                "invalid RNN configuration: ", config.describe());

    layers_.reserve(config.layers);
    for (std::size_t l = 0; l < config.layers; ++l)
        layers_.emplace_back(config, l);

    // Enumerate gate instances: layer-major, then direction, then gate.
    std::size_t instance_id = 0;
    std::size_t neuron_base = 0;
    std::size_t cell_id = 0;
    for (std::size_t l = 0; l < config.layers; ++l) {
        for (std::size_t dir = 0; dir < config.directions(); ++dir) {
            RnnCell &cell = layers_[l].cell(dir);
            std::vector<GateInstance> cell_instances;
            for (std::size_t g = 0; g < cell.gateCount(); ++g) {
                GateInstance inst;
                inst.instanceId = instance_id++;
                inst.layer = l;
                inst.direction = dir;
                inst.cellId = cell_id;
                inst.gate = g;
                inst.neurons = config.hiddenSize;
                inst.xSize = cell.gate(g).xSize();
                inst.hSize = cell.gate(g).hSize();
                inst.neuronBase = neuron_base;
                neuron_base += inst.neurons;
                instances_.push_back(inst);
                paramRefs_.push_back({l, dir, g});
                cell_instances.push_back(inst);
            }
            cell.setInstances(std::move(cell_instances));
            ++cell_id;
        }
    }
    totalNeurons_ = neuron_base;
    nlfm_assert(totalNeurons_ == config.totalNeurons(),
                "neuron enumeration disagrees with config arithmetic");
}

RnnLayer &
RnnNetwork::layer(std::size_t index)
{
    nlfm_assert(index < layers_.size(), "layer index out of range");
    return layers_[index];
}

const RnnLayer &
RnnNetwork::layer(std::size_t index) const
{
    nlfm_assert(index < layers_.size(), "layer index out of range");
    return layers_[index];
}

const GateParams &
RnnNetwork::gateParams(std::size_t instance_id) const
{
    nlfm_assert(instance_id < paramRefs_.size(),
                "gate instance out of range");
    const ParamRef &ref = paramRefs_[instance_id];
    return layers_[ref.layer].cell(ref.direction).gate(ref.gate);
}

GateParams &
RnnNetwork::gateParams(std::size_t instance_id)
{
    nlfm_assert(instance_id < paramRefs_.size(),
                "gate instance out of range");
    const ParamRef &ref = paramRefs_[instance_id];
    return layers_[ref.layer].cell(ref.direction).gate(ref.gate);
}

Sequence
RnnNetwork::forward(const Sequence &inputs, GateEvaluator &eval)
{
    eval.beginSequence();
    Sequence current = inputs;
    Sequence next;
    for (auto &stack_layer : layers_) {
        stack_layer.forward(current, eval, next);
        current.swap(next);
    }
    return current;
}

Sequence
RnnNetwork::forwardBaseline(const Sequence &inputs)
{
    DirectEvaluator eval;
    return forward(inputs, eval);
}

std::vector<Sequence>
RnnNetwork::forwardBatch(std::span<const Sequence> inputs,
                         BatchGateEvaluator &eval,
                         const BatchForwardOptions &options)
{
    eval.beginBatch(inputs.size());
    std::vector<Sequence> outputs(inputs.size());
    if (inputs.empty())
        return outputs;

    const std::size_t chunk_size = std::max<std::size_t>(1,
                                                         options.chunkSize);
    const std::size_t chunks =
        (inputs.size() + chunk_size - 1) / chunk_size;

    // One task per sequence chunk. Chunk boundaries depend only on
    // chunkSize, so panel composition — and therefore every float — is
    // identical no matter how many workers pick the tasks up.
    const auto run_chunk = [&](std::size_t chunk) {
        const std::size_t begin = chunk * chunk_size;
        const std::size_t end =
            std::min(inputs.size(), begin + chunk_size);
        tensor::Batch current = tensor::Batch::pack(
            inputs.subspan(begin, end - begin), config_.inputSize);
        for (auto &stack_layer : layers_) {
            tensor::Batch next(stack_layer.outputSize(),
                               current.lengths());
            stack_layer.forwardBatch(current, begin, eval, next);
            current = std::move(next);
        }
        for (std::size_t b = begin; b < end; ++b)
            outputs[b] = current.unpackSequence(b - begin);
    };

    ThreadPool *pool = nullptr;
    if (options.threaded)
        pool = options.pool != nullptr ? options.pool : &ThreadPool::global();

    if (pool != nullptr && chunks > 1) {
        pool->run(chunks, [&](std::size_t begin, std::size_t end) {
            for (std::size_t chunk = begin; chunk < end; ++chunk)
                run_chunk(chunk);
        });
        return outputs;
    }

    // One chunk (or unthreaded): chunks run in order on this thread.
    // With a pool, every gate call may split its neurons over it
    // instead; the guard withdraws the pool on every exit path.
    struct NeuronPoolGuard
    {
        BatchGateEvaluator &eval;
        ~NeuronPoolGuard() { eval.neuronPool_ = nullptr; }
    } guard{eval};
    eval.neuronPool_ = pool;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk)
        run_chunk(chunk);
    return outputs;
}

std::vector<Sequence>
RnnNetwork::forwardBatchBaseline(std::span<const Sequence> inputs,
                                 const BatchForwardOptions &options)
{
    DirectBatchEvaluator eval;
    return forwardBatch(inputs, eval, options);
}

} // namespace nlfm::nn
