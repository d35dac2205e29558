#include "nn/batch_evaluator.hh"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/aligned.hh"
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

void
BatchGateEvaluator::evaluatePhase(const GateInstance &cell,
                                  std::span<const GateCall> gates,
                                  std::span<const std::size_t> rows,
                                  std::size_t slot_base,
                                  const EpilogueBody &epilogue)
{
    for (const GateCall &gate : gates)
        evaluateGateBatch(gate.instance, gate.params, gate.x, gate.h, rows,
                          slot_base, gate.preact);
    if (!epilogue)
        return;
    const auto body = [&](std::size_t, std::size_t begin, std::size_t end) {
        epilogue(begin, end);
    };
    runRanges(cell.neurons * rows.size() < kMinSplitElements
                  ? 1
                  : neuronRangeCount(cell, rows.size()),
              cell.neurons, body);
}

void
BatchGateEvaluator::splitNeurons(std::size_t ranges, std::size_t neurons,
                                 const NeuronRangeBody &body) const
{
    // ranges <= threadCount(), so ThreadPool::run gives range r to pool
    // thread r on every call. Range r first claims the blocks of its
    // home share, one at a time, so the same thread keeps the same
    // neurons (their weight, memo-table and panel lines) from call to
    // call. Then it claims what is left of the other ranges' shares: a
    // thread that wakes late or loses its core to another process
    // delays the call by at most one block, where a static share per
    // thread would make the whole call wait for it.
    struct alignas(kCacheLineBytes) Share
    {
        std::atomic<std::size_t> next{0};
        std::size_t end = 0;
    };
    const std::size_t blocks = (neurons + kNeuronBlock - 1) / kNeuronBlock;
    const std::unique_ptr<Share[]> shares(new Share[ranges]);
    for (std::size_t r = 0; r < ranges; ++r) {
        shares[r].next.store(r * blocks / ranges, std::memory_order_relaxed);
        shares[r].end = (r + 1) * blocks / ranges;
    }
    neuronPool_->run(ranges, [&](std::size_t first, std::size_t last) {
        for (std::size_t r = first; r < last; ++r)
            for (std::size_t k = 0; k < ranges; ++k) {
                Share &share = shares[(r + k) % ranges];
                for (std::size_t b = share.next.fetch_add(
                         1, std::memory_order_relaxed);
                     b < share.end;
                     b = share.next.fetch_add(1, std::memory_order_relaxed))
                    body(r, b * kNeuronBlock,
                         std::min(neurons, (b + 1) * kNeuronBlock));
            }
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
    const GateCall gate{instance, params, x, h, preact};
    evaluatePhase(instance, {&gate, 1}, rows, slot_base, {});
}

void
DirectBatchEvaluator::evaluatePhase(const GateInstance &cell,
                                    std::span<const GateCall> gates,
                                    std::span<const std::size_t> rows,
                                    std::size_t slot_base,
                                    const EpilogueBody &epilogue)
{
    if (gates.empty()) {
        BatchGateEvaluator::evaluatePhase(cell, gates, rows, slot_base,
                                          epilogue);
        return;
    }
    for (const GateCall &gate : gates)
        nlfm_assert(gate.preact.cols() == gate.instance.neurons,
                    "preact panel width mismatch for gate instance ",
                    gate.instance.instanceId);
    // Two panel passes per gate and run of neurons: preact = Wx * x_b,
    // then += Wh * h_b. Per row this is float(dot + dot), whichever
    // thread evaluates the neuron.
    forEachPhaseRange(
        cell, rows.size(), epilogue,
        [&](std::size_t, std::size_t begin, std::size_t end) {
            for (const GateCall &gate : gates) {
                gate.params.wx.matvecPanel(gate.x, rows, gate.preact, false,
                                           begin, end);
                gate.params.wh.matvecPanel(gate.h, rows, gate.preact, true,
                                           begin, end);
            }
        });
}

} // namespace nlfm::nn
