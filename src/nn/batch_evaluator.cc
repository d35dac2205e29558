#include "nn/batch_evaluator.hh"

#include <algorithm>
#include <atomic>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace nlfm::nn
{

std::size_t
BatchGateEvaluator::neuronRangeCount(const GateInstance &instance,
                                     std::size_t slots) const
{
    if (neuronPool_ == nullptr ||
        instance.neurons * (instance.xSize + instance.hSize) * slots <
            kMinSplitWork)
        return 1;
    const std::size_t blocks =
        (instance.neurons + kNeuronBlock - 1) / kNeuronBlock;
    return std::max<std::size_t>(
        1, std::min(neuronPool_->threadCount(), blocks));
}

std::size_t
BatchGateEvaluator::cellRangeCount(const GateInstance &instance,
                                   std::size_t slots) const
{
    return instance.neurons * slots < kMinSplitElements
               ? 1
               : neuronRangeCount(instance, slots);
}

void
BatchGateEvaluator::splitNeurons(std::size_t ranges, std::size_t neurons,
                                 const NeuronRangeBody &body) const
{
    // ranges <= threadCount(), so ThreadPool::run gives every thread
    // one range index. Each range claims blocks one at a time until none
    // are left: a thread that wakes late or loses its core to another
    // process delays the call by at most one block, where a static
    // share per thread would make the whole call wait for it.
    const std::size_t blocks = (neurons + kNeuronBlock - 1) / kNeuronBlock;
    std::atomic<std::size_t> next_block{0};
    const auto claim = [&] {
        return next_block.fetch_add(1, std::memory_order_relaxed);
    };
    neuronPool_->run(ranges, [&](std::size_t first, std::size_t last) {
        for (std::size_t r = first; r < last; ++r)
            for (std::size_t b = claim(); b < blocks; b = claim())
                body(r, b * kNeuronBlock,
                     std::min(neurons, (b + 1) * kNeuronBlock));
    });
}

void
DirectBatchEvaluator::evaluateGateBatch(const GateInstance &instance,
                                        const GateParams &params,
                                        const tensor::Matrix &x,
                                        const tensor::Matrix &h,
                                        std::span<const std::size_t> rows,
                                        std::size_t slot_base,
                                        tensor::Matrix &preact)
{
    (void)slot_base;
    nlfm_assert(preact.cols() == instance.neurons,
                "preact panel width mismatch for gate instance ",
                instance.instanceId);
    // Two panel passes per run of neurons: preact = Wx * x_b, then
    // += Wh * h_b. Per row this is float(dot + dot), whichever thread
    // evaluates the neuron.
    forEachNeuronRange(instance, rows.size(),
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                           params.wx.matvecPanel(x, rows, preact, false,
                                                 begin, end);
                           params.wh.matvecPanel(h, rows, preact, true,
                                                 begin, end);
                       });
}

} // namespace nlfm::nn
