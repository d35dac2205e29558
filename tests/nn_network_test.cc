/**
 * @file
 * Tests for layers, the deep network (gate-instance enumeration,
 * bidirectional semantics) and the binarized mirror.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "nn/binarized.hh"
#include "nn/init.hh"
#include "nn/rnn_network.hh"
#include "tensor/bitpack.hh"

namespace nlfm::nn
{
namespace
{

RnnConfig
smallConfig(CellType type, bool bidirectional, std::size_t layers = 2)
{
    RnnConfig config;
    config.cellType = type;
    config.inputSize = 6;
    config.hiddenSize = 5;
    config.layers = layers;
    config.bidirectional = bidirectional;
    config.peepholes = true;
    return config;
}

Sequence
randomSequence(Rng &rng, std::size_t steps, std::size_t dim)
{
    Sequence seq(steps, std::vector<float>(dim));
    for (auto &frame : seq)
        rng.fillNormal(frame, 0.0, 1.0);
    return seq;
}

// -------------------------------------------------------------- config

TEST(RnnConfigTest, Arithmetic)
{
    const RnnConfig config = smallConfig(CellType::Lstm, true, 3);
    EXPECT_EQ(config.directions(), 2u);
    EXPECT_EQ(config.layerInputSize(0), 6u);
    EXPECT_EQ(config.layerInputSize(1), 10u); // hidden * 2
    EXPECT_EQ(config.outputSize(), 10u);
    EXPECT_EQ(config.totalNeurons(), 3u * 2u * 4u * 5u);
    // weights: layer0 gates 4 * 2dirs * 5 * (6 + 5); layers 1-2:
    // 4 * 2 * 5 * (10 + 5) each.
    EXPECT_EQ(config.totalWeights(), 2u * 4u * 5u * 11u +
                                         2u * (2u * 4u * 5u * 15u));
}

TEST(RnnConfigTest, GateCountByType)
{
    EXPECT_EQ(gateCount(CellType::Lstm), 4u);
    EXPECT_EQ(gateCount(CellType::Gru), 3u);
}

// --------------------------------------------------------- enumeration

TEST(RnnNetworkTest, InstanceEnumerationIsDense)
{
    RnnNetwork network(smallConfig(CellType::Lstm, true, 3));
    const auto &instances = network.gateInstances();
    EXPECT_EQ(instances.size(), 3u * 2u * 4u);

    std::set<std::size_t> ids;
    std::size_t expected_base = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
        const auto &inst = instances[i];
        EXPECT_EQ(inst.instanceId, i);
        ids.insert(inst.instanceId);
        EXPECT_EQ(inst.neuronBase, expected_base);
        expected_base += inst.neurons;
        EXPECT_LT(inst.layer, 3u);
        EXPECT_LT(inst.direction, 2u);
        EXPECT_LT(inst.gate, 4u);
    }
    EXPECT_EQ(ids.size(), instances.size());
    EXPECT_EQ(expected_base, network.totalNeurons());
}

TEST(RnnNetworkTest, CellIdGroupsGatesOfOneCell)
{
    RnnNetwork network(smallConfig(CellType::Gru, true, 2));
    const auto &instances = network.gateInstances();
    // 2 layers x 2 dirs cells, 3 gates each.
    for (std::size_t i = 0; i < instances.size(); ++i)
        EXPECT_EQ(instances[i].cellId, i / 3);
}

TEST(RnnNetworkTest, GateParamsMatchInstanceShapes)
{
    RnnNetwork network(smallConfig(CellType::Lstm, false, 2));
    for (const auto &inst : network.gateInstances()) {
        const GateParams &params = network.gateParams(inst.instanceId);
        EXPECT_EQ(params.neurons(), inst.neurons);
        EXPECT_EQ(params.xSize(), inst.xSize);
        EXPECT_EQ(params.hSize(), inst.hSize);
    }
}

// ------------------------------------------------------------- forward

TEST(RnnNetworkTest, ForwardShapes)
{
    RnnNetwork network(smallConfig(CellType::Lstm, true, 2));
    Rng rng(1);
    initNetwork(network, rng);
    const Sequence inputs = randomSequence(rng, 7, 6);
    const Sequence outputs = network.forwardBaseline(inputs);
    ASSERT_EQ(outputs.size(), 7u);
    for (const auto &frame : outputs)
        EXPECT_EQ(frame.size(), 10u);
}

TEST(RnnNetworkTest, ForwardIsDeterministic)
{
    RnnNetwork network(smallConfig(CellType::Gru, false, 2));
    Rng rng(2);
    initNetwork(network, rng);
    Rng data_rng(3);
    const Sequence inputs = randomSequence(data_rng, 5, 6);
    const Sequence a = network.forwardBaseline(inputs);
    const Sequence b = network.forwardBaseline(inputs);
    for (std::size_t t = 0; t < a.size(); ++t)
        for (std::size_t i = 0; i < a[t].size(); ++i)
            EXPECT_FLOAT_EQ(a[t][i], b[t][i]);
}

TEST(RnnNetworkTest, BackwardDirectionSeesReversedSequence)
{
    // One bidirectional layer with the two directional cells sharing
    // weights: running the reversed sequence must swap the roles of the
    // forward and backward halves of the output.
    RnnConfig config = smallConfig(CellType::Lstm, true, 1);
    RnnNetwork network(config);
    Rng rng(4);
    initNetwork(network, rng);
    // Copy direction-0 parameters into direction 1.
    RnnCell &fwd = network.layer(0).cell(0);
    RnnCell &bwd = network.layer(0).cell(1);
    for (std::size_t g = 0; g < fwd.gateCount(); ++g)
        bwd.gate(g) = fwd.gate(g);

    Rng data_rng(5);
    Sequence inputs = randomSequence(data_rng, 6, 6);
    const Sequence outputs = network.forwardBaseline(inputs);

    Sequence reversed_inputs(inputs.rbegin(), inputs.rend());
    const Sequence reversed_outputs =
        network.forwardBaseline(reversed_inputs);

    const std::size_t hidden = config.hiddenSize;
    for (std::size_t t = 0; t < inputs.size(); ++t) {
        const std::size_t rt = inputs.size() - 1 - t;
        // Forward half of run 1 at step t == backward half of run 2 at
        // reversed position (and vice versa).
        for (std::size_t n = 0; n < hidden; ++n) {
            EXPECT_NEAR(outputs[t][n], reversed_outputs[rt][n + hidden],
                        1e-6);
            EXPECT_NEAR(outputs[t][n + hidden], reversed_outputs[rt][n],
                        1e-6);
        }
    }
}

TEST(RnnNetworkTest, EvaluatorSeesEveryGateOncePerStep)
{
    struct CountingEvaluator : BatchGateEvaluator
    {
        DirectBatchEvaluator inner;
        std::map<std::size_t, int> calls;
        void
        evaluateGateBatch(const GateInstance &instance,
                          const GateParams &params, const tensor::Matrix &x,
                          const tensor::Matrix &h,
                          std::span<const std::size_t> rows,
                          std::size_t slot_base,
                          tensor::Matrix &preact) override
        {
            ++calls[instance.instanceId];
            inner.evaluateGateBatch(instance, params, x, h, rows, slot_base,
                                    preact);
        }
    };

    RnnNetwork network(smallConfig(CellType::Lstm, true, 2));
    Rng rng(6);
    initNetwork(network, rng);
    CountingEvaluator eval;
    const Sequence inputs = randomSequence(rng, 4, 6);
    network.forward(inputs, eval);

    EXPECT_EQ(eval.calls.size(), network.gateInstances().size());
    for (const auto &[id, count] : eval.calls)
        EXPECT_EQ(count, 4) << "gate " << id;
}

// ----------------------------------------------------------- binarized

/** BNN output of @p neuron for the binarized input [x; h] (Eq. 8). */
int
signOutput(const BinarizedGate &gate, std::size_t neuron,
           std::span<const float> x, std::span<const float> h)
{
    tensor::BitVector input(x.size() + h.size());
    input.assignConcat(x, h);
    std::int32_t out = 0;
    tensor::bnnDotRows(gate.weights(), neuron, 1, input, {&out, 1});
    return out;
}

TEST(BinarizedTest, GateOutputsMatchNaiveSignDot)
{
    Rng rng(7);
    RnnNetwork network(smallConfig(CellType::Lstm, false, 1));
    initNetwork(network, rng);
    BinarizedNetwork bnn(network);

    const auto &inst = network.gateInstances()[2];
    const GateParams &params = network.gateParams(2);
    std::vector<float> x(inst.xSize), h(inst.hSize);
    rng.fillNormal(x, 0.0, 1.0);
    rng.fillNormal(h, 0.0, 1.0);

    const BinarizedGate &gate = bnn.gate(2);
    for (std::size_t n = 0; n < inst.neurons; ++n) {
        std::vector<float> weights(params.wx.row(n).begin(),
                                   params.wx.row(n).end());
        weights.insert(weights.end(), params.wh.row(n).begin(),
                       params.wh.row(n).end());
        std::vector<float> input(x);
        input.insert(input.end(), h.begin(), h.end());
        EXPECT_EQ(signOutput(gate, n, x, h),
                  tensor::bnnDotNaive(weights, input));
    }
}

TEST(BinarizedTest, RefreshTracksWeightChanges)
{
    Rng rng(8);
    RnnNetwork network(smallConfig(CellType::Gru, false, 1));
    initNetwork(network, rng);
    BinarizedNetwork bnn(network);

    // Flip all weights of gate 0; without refresh outputs are stale.
    GateParams &params = network.gateParams(0);
    for (auto &w : params.wx.data())
        w = -w;
    for (auto &w : params.wh.data())
        w = -w;

    std::vector<float> x(params.xSize(), 1.f), h(params.hSize(), 1.f);
    const BinarizedGate &gate = bnn.gate(0);
    const int stale = signOutput(gate, 0, x, h);
    bnn.refresh(network);
    EXPECT_EQ(signOutput(gate, 0, x, h), -stale);
}

TEST(BinarizedTest, MirrorCoversEveryGate)
{
    RnnNetwork network(smallConfig(CellType::Lstm, true, 3));
    BinarizedNetwork bnn(network);
    EXPECT_EQ(bnn.gateCount(), network.gateInstances().size());
    for (const auto &inst : network.gateInstances()) {
        EXPECT_EQ(bnn.gate(inst.instanceId).neurons(), inst.neurons);
        EXPECT_EQ(bnn.gate(inst.instanceId).inputBits(),
                  inst.xSize + inst.hSize);
    }
}

} // namespace
} // namespace nlfm::nn
