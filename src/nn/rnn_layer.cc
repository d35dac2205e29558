#include "nn/rnn_layer.hh"

#include "common/logging.hh"
#include "nn/cell_descriptor.hh"

namespace nlfm::nn
{

RnnLayer::RnnLayer(const RnnConfig &config, std::size_t layer_index)
    : inputSize_(config.layerInputSize(layer_index)),
      hidden_(config.hiddenSize)
{
    const CellDescriptor &desc = cellDescriptor(config.cellType);
    for (std::size_t dir = 0; dir < config.directions(); ++dir)
        cells_.push_back(desc.makeCell(inputSize_, config));
}

std::size_t
RnnLayer::outputSize() const
{
    return hidden_ * cells_.size();
}

RnnCell &
RnnLayer::cell(std::size_t direction)
{
    nlfm_assert(direction < cells_.size(), "direction out of range");
    return *cells_[direction];
}

const RnnCell &
RnnLayer::cell(std::size_t direction) const
{
    nlfm_assert(direction < cells_.size(), "direction out of range");
    return *cells_[direction];
}

void
RnnLayer::forwardBatch(const tensor::Batch &inputs, std::size_t slot_base,
                       BatchGateEvaluator &eval, tensor::Batch &outputs)
{
    const std::size_t batch = inputs.size();
    const std::size_t steps = inputs.maxSteps();
    nlfm_assert(inputs.width() == inputSize_,
                "layer batch input width mismatch");
    nlfm_assert(outputs.size() == batch && outputs.width() == outputSize(),
                "layer batch output shape mismatch");

    // Forward direction: panel t feeds every sequence still live at t.
    BatchCellState state = cells_[0]->makeBatchState(batch);
    for (std::size_t t = 0; t < steps; ++t) {
        const auto rows = inputs.activeRows(t);
        cells_[0]->stepBatch(inputs.panel(t), rows, slot_base, state, eval);
        for (const std::size_t b : rows) {
            const auto h_row = state.h.row(b);
            std::copy(h_row.begin(), h_row.end(),
                      outputs.panel(t).row(b).begin());
        }
    }

    // Backward direction: step s consumes each sequence's own
    // x_{len-1-s}, gathered into a scratch panel, so padding never leaks
    // into shorter sequences.
    if (cells_.size() == 2) {
        BatchCellState back = cells_[1]->makeBatchState(batch);
        tensor::Matrix gather(batch, inputSize_);
        for (std::size_t s = 0; s < steps; ++s) {
            const auto rows = inputs.activeRows(s);
            for (const std::size_t b : rows) {
                const auto src =
                    inputs.panel(inputs.length(b) - 1 - s).row(b);
                std::copy(src.begin(), src.end(), gather.row(b).begin());
            }
            cells_[1]->stepBatch(gather, rows, slot_base, back, eval);
            for (const std::size_t b : rows) {
                const auto h_row = back.h.row(b);
                std::copy(h_row.begin(), h_row.end(),
                          outputs.panel(inputs.length(b) - 1 - s)
                                  .row(b)
                                  .begin() +
                              static_cast<long>(hidden_));
            }
        }
    }
}

} // namespace nlfm::nn
