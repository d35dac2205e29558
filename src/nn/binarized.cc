#include "nn/binarized.hh"

#include "common/logging.hh"

namespace nlfm::nn
{

namespace
{

/** Pack one neuron's concatenated [wx | wh] signs into a bit row. */
void
packRows(tensor::BitMatrix &bits, const GateParams &params)
{
    const std::size_t x_size = params.xSize();
    const std::size_t h_size = params.hSize();
    std::vector<float> concat(x_size + h_size);
    for (std::size_t n = 0; n < params.neurons(); ++n) {
        auto wx = params.wx.row(n);
        auto wh = params.wh.row(n);
        std::copy(wx.begin(), wx.end(), concat.begin());
        std::copy(wh.begin(), wh.end(),
                  concat.begin() + static_cast<long>(x_size));
        bits.setRow(n, concat);
    }
}

} // namespace

BinarizedGate::BinarizedGate(const GateParams &params)
    : weights_(params.neurons(), params.xSize() + params.hSize())
{
    packRows(weights_, params);
}

void
BinarizedGate::refresh(const GateParams &params)
{
    nlfm_assert(params.neurons() == weights_.rows() &&
                    params.xSize() + params.hSize() == weights_.cols(),
                "refresh with mismatched gate shape");
    packRows(weights_, params);
}

BinarizedNetwork::BinarizedNetwork(const RnnNetwork &network)
{
    gates_.reserve(network.gateInstances().size());
    for (const auto &inst : network.gateInstances())
        gates_.emplace_back(network.gateParams(inst.instanceId));
}

BinarizedGate &
BinarizedNetwork::gate(std::size_t instance_id)
{
    nlfm_assert(instance_id < gates_.size(), "gate instance out of range");
    return gates_[instance_id];
}

const BinarizedGate &
BinarizedNetwork::gate(std::size_t instance_id) const
{
    nlfm_assert(instance_id < gates_.size(), "gate instance out of range");
    return gates_[instance_id];
}

void
BinarizedNetwork::refresh(const RnnNetwork &network)
{
    nlfm_assert(network.gateInstances().size() == gates_.size(),
                "refresh with mismatched network");
    for (std::size_t i = 0; i < gates_.size(); ++i)
        gates_[i].refresh(network.gateParams(i));
}

} // namespace nlfm::nn
