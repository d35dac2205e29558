#include "nn/gate.hh"

#include "nn/cell_descriptor.hh"

namespace nlfm::nn
{

std::size_t
RnnConfig::totalWeights() const
{
    std::size_t total = 0;
    for (std::size_t layer = 0; layer < layers; ++layer) {
        const std::size_t x_size = layerInputSize(layer);
        const std::size_t per_gate = hiddenSize * (x_size + hiddenSize);
        total += directions() * gateCount(cellType) * per_gate;
    }
    return total;
}

std::string
RnnConfig::describe() const
{
    std::string text = cellDescriptor(cellType).name;
    if (bidirectional)
        text = "Bi" + text;
    text += " layers=" + std::to_string(layers);
    text += " hidden=" + std::to_string(hiddenSize);
    text += " input=" + std::to_string(inputSize);
    return text;
}

} // namespace nlfm::nn
