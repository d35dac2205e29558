/**
 * @file
 * RnnNetwork::forward against the scalar reference (reference/
 * scalar_reference.hh): outputs and per-gate reuse counts, bit for bit,
 * for every cell family, uni- and bidirectional stacks, hidden sizes
 * with 8-lane tails, and each evaluation the library offers: exact,
 * Oracle, BNN with Q16 delta_b and throttling, and BNN with double
 * delta_b and no throttling. Two sequences run through one engine, so
 * the per-sequence cold start and the cumulative counters are pinned
 * too. One GRU case has gates above nn::kMinSplitWork at a single row,
 * so the neuron split of a one-sequence forward is pinned as well.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <ostream>
#include <string>

#include "common/rng.hh"
#include "memo/memo_engine.hh"
#include "nn/init.hh"
#include "reference/scalar_reference.hh"

namespace nlfm
{
namespace
{

using reference::Predictor;
using reference::ReferenceOptions;
using reference::ScalarReference;

struct NetworkCase
{
    const char *name;
    nn::CellType cell;
    bool bidirectional;
    bool peepholes;
    std::size_t input;
    std::size_t hidden;
    std::size_t layers;
    std::size_t steps;
};

struct EvalCase
{
    const char *name;
    Predictor predictor;
    double theta;
    bool throttle;
    bool fixedPoint;
};

const NetworkCase kNetworks[] = {
    {"LstmPeephole", nn::CellType::Lstm, false, true, 13, 11, 2, 9},
    {"BiLstmPeephole", nn::CellType::Lstm, true, true, 10, 20, 2, 7},
    {"LstmPlain", nn::CellType::Lstm, false, false, 9, 16, 2, 8},
    {"BiGru", nn::CellType::Gru, true, false, 9, 19, 2, 8},
    {"Brc", nn::CellType::Brc, false, false, 12, 17, 2, 9},
    {"BiBrc", nn::CellType::Brc, true, false, 8, 9, 1, 6},
    {"RateRnn", nn::CellType::RateRnn, false, false, 7, 24, 2, 10},
    // 512 x (64 + 512) = 294912 multiply-adds per gate call, above
    // nn::kMinSplitWork (2^18) at one row: the split one-row path.
    {"GruAboveSplitFloor", nn::CellType::Gru, false, false, 64, 512, 1, 4},
};

const EvalCase kEvals[] = {
    {"Exact", Predictor::Exact, 0.0, true, true},
    {"Oracle", Predictor::Oracle, 0.05, false, true},
    {"BnnQ16Throttled", Predictor::Bnn, 0.3, true, true},
    {"BnnDoubleUnthrottled", Predictor::Bnn, 0.3, false, false},
    // batch_ds2's operating point.
    {"BnnQ16Theta0122", Predictor::Bnn, 0.0122, true, true},
};

void
PrintTo(const NetworkCase &c, std::ostream *os)
{
    *os << c.name;
}

void
PrintTo(const EvalCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Smooth AR(1) frames, so consecutive outputs are close and reuse. */
nn::Sequence
smoothSequence(std::size_t steps, std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    nn::Sequence sequence(steps, std::vector<float>(width));
    std::vector<double> state(width);
    for (double &s : state)
        s = rng.normal();
    for (auto &frame : sequence)
        for (std::size_t d = 0; d < width; ++d) {
            state[d] = 0.9 * state[d] + 0.44 * rng.normal();
            frame[d] = static_cast<float>(state[d]);
        }
    return sequence;
}

void
expectBitwise(const nn::Sequence &expected, const nn::Sequence &actual,
              const std::string &what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (std::size_t t = 0; t < expected.size(); ++t) {
        ASSERT_EQ(expected[t].size(), actual[t].size()) << what;
        for (std::size_t i = 0; i < expected[t].size(); ++i)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(expected[t][i]),
                      std::bit_cast<std::uint32_t>(actual[t][i]))
                << what << " step " << t << " unit " << i << ": "
                << expected[t][i] << " vs " << actual[t][i];
    }
}

class ReferenceTest
    : public ::testing::TestWithParam<std::tuple<NetworkCase, EvalCase>>
{
};

TEST_P(ReferenceTest, ForwardMatchesScalarReference)
{
    const auto &[net, eval] = GetParam();
    nn::RnnConfig config;
    config.cellType = net.cell;
    config.inputSize = net.input;
    config.hiddenSize = net.hidden;
    config.layers = net.layers;
    config.bidirectional = net.bidirectional;
    config.peepholes = net.peepholes;
    nn::RnnNetwork network(config);
    Rng rng(17);
    nn::InitOptions init;
    init.gain = 0.7;
    init.forgetBias = 1.5;
    init.magnitudeDispersion = 0.4;
    nn::initNetwork(network, rng, init);
    nn::BinarizedNetwork bnn(network);

    const ReferenceOptions ref_options{eval.predictor, eval.theta,
                                       eval.throttle, eval.fixedPoint};
    ScalarReference reference(network, ref_options);
    const nn::Sequence inputs[2] = {
        smoothSequence(net.steps, net.input, 101),
        smoothSequence(net.steps + 3, net.input, 202)};

    if (eval.predictor == Predictor::Exact) {
        for (const nn::Sequence &input : inputs)
            expectBitwise(reference.forward(input),
                          network.forwardBaseline(input), "exact");
        return;
    }

    memo::MemoOptions options;
    options.predictor = eval.predictor == Predictor::Oracle
                            ? memo::PredictorKind::Oracle
                            : memo::PredictorKind::Bnn;
    options.theta = eval.theta;
    options.throttle = eval.throttle;
    options.fixedPoint = eval.fixedPoint;
    memo::MemoEngine engine(network, &bnn, options);
    for (std::size_t s = 0; s < 2; ++s)
        expectBitwise(reference.forward(inputs[s]),
                      network.forward(inputs[s], engine),
                      "sequence " + std::to_string(s));

    const memo::ReuseStats stats = engine.stats();
    std::uint64_t reused = 0;
    std::uint64_t total = 0;
    for (const nn::GateInstance &instance : network.gateInstances()) {
        const std::size_t id = instance.instanceId;
        ASSERT_EQ(reference.total(id),
                  instance.neurons * (2 * net.steps + 3));
        // Equal fractions over equal totals are equal counts.
        EXPECT_EQ(stats.gateReuseFraction(id),
                  static_cast<double>(reference.reused(id)) /
                      static_cast<double>(reference.total(id)))
            << "gate " << id;
        reused += reference.reused(id);
        total += reference.total(id);
    }
    EXPECT_EQ(stats.totalReused(), reused);
    EXPECT_EQ(stats.totalSlots(), total);
    // The decisions are exercised: every memoized case reuses something.
    EXPECT_GT(reused, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ReferenceTest,
    ::testing::Combine(::testing::ValuesIn(kNetworks),
                       ::testing::ValuesIn(kEvals)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_" +
               std::get<1>(info.param).name;
    });

TEST(ScalarReferenceTest, LaneDotFollowsTheDocumentedOrder)
{
    // 19 floats: two 8-float blocks and a 3-float tail. Lane 0 holds 1,
    // lanes 2 and 6 hold 2^-24 each, the tail 2^-24. In order,
    // s0 + s2 = 1 + 2^-23 exactly, and adding the tail's 2^-24 is a tie
    // that rounds to even, 1 + 2^-22. A left-to-right sum would lose
    // every 2^-24 against 1 and return 1.
    std::vector<float> w(19, 0.f);
    std::vector<float> x(19, 1.f);
    const float tiny = std::ldexp(1.f, -24);
    w[0] = 1.f;
    w[2] = tiny;
    w[6] = tiny;
    w[18] = tiny;
    EXPECT_EQ(reference::laneDot(w, x), 1.f + std::ldexp(1.f, -22));
}

} // namespace
} // namespace nlfm
