/**
 * @file
 * Unit tests for activations, the four cell families (LSTM, GRU,
 * rate RNN, BRC) against hand-evaluated double-precision references
 * (paper Eqs. 1-6, §2.1.3, and the descriptor docs), each cell
 * stepping a one-row panel, and the cell-descriptor registry.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "common/stats.hh"
#include "nn/activations.hh"
#include "nn/batch_evaluator.hh"
#include "nn/brc_cell.hh"
#include "nn/cell_descriptor.hh"
#include "nn/gru_cell.hh"
#include "nn/init.hh"
#include "nn/lstm_cell.hh"
#include "nn/rate_rnn_cell.hh"

namespace nlfm::nn
{
namespace
{

/** One cell stepping one sequence: a one-row panel, exact gates. */
struct OneRow
{
    RnnCell &cell;
    BatchCellState state;
    DirectBatchEvaluator eval;

    explicit OneRow(RnnCell &stepped)
        : cell(stepped), state(stepped.makeBatchState(1))
    {
    }

    void
    step(const std::vector<float> &frame)
    {
        tensor::Matrix x(1, cell.xSize());
        std::copy(frame.begin(), frame.end(), x.row(0).begin());
        const std::size_t row = 0;
        cell.stepBatch(x, {&row, 1}, 0, state, eval);
    }

    float &h(std::size_t n) { return state.h.row(0)[n]; }
    float &c(std::size_t n) { return state.extra[0].row(0)[n]; }
};

// --------------------------------------------------------- activations

TEST(ActivationsTest, SigmoidKnownValues)
{
    EXPECT_FLOAT_EQ(sigmoid(0.f), 0.5f);
    EXPECT_NEAR(sigmoid(2.f), 1.0 / (1.0 + std::exp(-2.0)), 1e-6);
    EXPECT_NEAR(sigmoid(-20.f), 0.0, 1e-8);
    EXPECT_NEAR(sigmoid(20.f), 1.0, 1e-8);
}

TEST(ActivationsTest, GradientsFromOutputs)
{
    const float s = sigmoid(0.7f);
    EXPECT_NEAR(sigmoidGradFromOutput(s), s * (1 - s), 1e-7);
    const float y = tanhAct(0.3f);
    EXPECT_NEAR(tanhGradFromOutput(y), 1 - y * y, 1e-7);
}

TEST(ActivationsTest, SoftmaxNormalizesAndOrders)
{
    const std::vector<float> logits = {1.f, 3.f, 2.f};
    std::vector<float> probs(3);
    softmax(logits, probs);
    EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0, 1e-6);
    EXPECT_GT(probs[1], probs[2]);
    EXPECT_GT(probs[2], probs[0]);
}

TEST(ActivationsTest, SoftmaxStableForLargeLogits)
{
    const std::vector<float> logits = {1000.f, 1001.f};
    std::vector<float> probs(2);
    softmax(logits, probs);
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-6);
    EXPECT_GT(probs[1], probs[0]);
}

// ----------------------------------------------------------- LSTM cell

/** Single-neuron LSTM with hand-picked weights for golden-value tests. */
struct TinyLstm
{
    LstmCell cell{1, 1, /*peepholes=*/true};

    TinyLstm()
    {
        // gate order: input, forget, update, output
        const float wx[4] = {0.5f, -0.25f, 1.0f, 0.75f};
        const float wh[4] = {0.1f, 0.2f, -0.3f, 0.4f};
        const float bias[4] = {0.05f, 1.0f, -0.1f, 0.0f};
        const float peep[4] = {0.3f, -0.2f, 0.0f, 0.15f};
        for (std::size_t g = 0; g < 4; ++g) {
            cell.gate(g).wx.at(0, 0) = wx[g];
            cell.gate(g).wh.at(0, 0) = wh[g];
            cell.gate(g).bias[0] = bias[g];
            if (g != LstmUpdate)
                cell.gate(g).peephole[0] = peep[g];
        }
        std::vector<GateInstance> instances(4);
        for (std::size_t g = 0; g < 4; ++g) {
            instances[g].instanceId = g;
            instances[g].gate = g;
            instances[g].neurons = 1;
            instances[g].xSize = 1;
            instances[g].hSize = 1;
        }
        cell.setInstances(std::move(instances));
    }
};

/** Reference peephole LSTM step evaluated in double precision. */
void
referenceLstmStep(const TinyLstm &tiny, double x, double &h, double &c)
{
    auto wx = [&](std::size_t g) { return tiny.cell.gate(g).wx.at(0, 0); };
    auto wh = [&](std::size_t g) { return tiny.cell.gate(g).wh.at(0, 0); };
    auto b = [&](std::size_t g) { return tiny.cell.gate(g).bias[0]; };
    auto p = [&](std::size_t g) { return tiny.cell.gate(g).peephole[0]; };
    auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };

    const double i_t =
        sig(wx(LstmInput) * x + wh(LstmInput) * h + p(LstmInput) * c +
            b(LstmInput));
    const double f_t =
        sig(wx(LstmForget) * x + wh(LstmForget) * h + p(LstmForget) * c +
            b(LstmForget));
    const double g_t =
        std::tanh(wx(LstmUpdate) * x + wh(LstmUpdate) * h + b(LstmUpdate));
    const double c_t = f_t * c + i_t * g_t;
    const double o_t =
        sig(wx(LstmOutput) * x + wh(LstmOutput) * h + p(LstmOutput) * c_t +
            b(LstmOutput));
    c = c_t;
    h = o_t * std::tanh(c_t);
}

TEST(LstmCellTest, MatchesReferenceOverSequence)
{
    TinyLstm tiny;
    OneRow one(tiny.cell);

    double h = 0, c = 0;
    const double xs[] = {0.6, -1.2, 0.0, 2.5, -0.3};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        one.step(input);
        referenceLstmStep(tiny, x, h, c);
        EXPECT_NEAR(one.h(0), h, 1e-5);
        EXPECT_NEAR(one.c(0), c, 1e-5);
    }
}

TEST(LstmCellTest, ZeroWeightsGiveBiasDrivenOutput)
{
    LstmCell cell(2, 3, /*peepholes=*/false);
    for (std::size_t g = 0; g < 4; ++g)
        for (auto &b : cell.gate(g).bias)
            b = 0.f;
    std::vector<GateInstance> instances(4);
    for (std::size_t g = 0; g < 4; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 3;
        instances[g].xSize = 2;
        instances[g].hSize = 3;
    }
    cell.setInstances(std::move(instances));

    OneRow one(cell);
    const std::vector<float> x = {1.f, -1.f};
    one.step(x);
    // i = f = o = 0.5, g = 0 -> c = 0, h = 0.
    for (std::size_t n = 0; n < 3; ++n) {
        EXPECT_FLOAT_EQ(one.c(n), 0.f);
        EXPECT_FLOAT_EQ(one.h(n), 0.f);
    }
}

TEST(LstmCellTest, ForgetGateRetainsCellState)
{
    // Large forget bias + zero input gate: c must persist.
    LstmCell cell(1, 1, /*peepholes=*/false);
    cell.gate(LstmForget).bias[0] = 100.f; // f ~= 1
    cell.gate(LstmInput).bias[0] = -100.f; // i ~= 0
    std::vector<GateInstance> instances(4);
    for (std::size_t g = 0; g < 4; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 1;
        instances[g].xSize = 1;
        instances[g].hSize = 1;
    }
    cell.setInstances(std::move(instances));

    OneRow one(cell);
    one.c(0) = 0.7f;
    const std::vector<float> x = {1.f};
    one.step(x);
    EXPECT_NEAR(one.c(0), 0.7f, 1e-4);
}

// ------------------------------------------------------------ GRU cell

/** Single-neuron GRU with hand-picked weights. */
struct TinyGru
{
    GruCell cell{1, 1};

    TinyGru()
    {
        const float wx[3] = {0.4f, -0.6f, 1.1f};
        const float wh[3] = {0.3f, 0.5f, -0.7f};
        const float bias[3] = {-0.2f, 0.1f, 0.25f};
        for (std::size_t g = 0; g < 3; ++g) {
            cell.gate(g).wx.at(0, 0) = wx[g];
            cell.gate(g).wh.at(0, 0) = wh[g];
            cell.gate(g).bias[0] = bias[g];
        }
        std::vector<GateInstance> instances(3);
        for (std::size_t g = 0; g < 3; ++g) {
            instances[g].gate = g;
            instances[g].neurons = 1;
            instances[g].xSize = 1;
            instances[g].hSize = 1;
        }
        cell.setInstances(std::move(instances));
    }
};

void
referenceGruStep(const TinyGru &tiny, double x, double &h)
{
    auto wx = [&](std::size_t g) { return tiny.cell.gate(g).wx.at(0, 0); };
    auto wh = [&](std::size_t g) { return tiny.cell.gate(g).wh.at(0, 0); };
    auto b = [&](std::size_t g) { return tiny.cell.gate(g).bias[0]; };
    auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };

    const double z =
        sig(wx(GruUpdate) * x + wh(GruUpdate) * h + b(GruUpdate));
    const double r = sig(wx(GruReset) * x + wh(GruReset) * h + b(GruReset));
    const double g = std::tanh(wx(GruCandidate) * x +
                               wh(GruCandidate) * (r * h) +
                               b(GruCandidate));
    h = (1.0 - z) * h + z * g;
}

TEST(GruCellTest, MatchesReferenceOverSequence)
{
    TinyGru tiny;
    OneRow one(tiny.cell);

    double h = 0;
    const double xs[] = {1.0, -0.5, 0.25, 3.0, -2.0};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        one.step(input);
        referenceGruStep(tiny, x, h);
        EXPECT_NEAR(one.h(0), h, 1e-5);
    }
}

TEST(GruCellTest, NoCellStateAllocated)
{
    GruCell cell(2, 4);
    const BatchCellState state = cell.makeBatchState(1);
    EXPECT_EQ(state.h.cols(), 4u);
    EXPECT_TRUE(state.extra.empty());
}

TEST(GruCellTest, UpdateGateInterpolates)
{
    // z ~= 0 keeps the previous hidden state.
    GruCell cell(1, 1);
    cell.gate(GruUpdate).bias[0] = -100.f;
    std::vector<GateInstance> instances(3);
    for (std::size_t g = 0; g < 3; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 1;
        instances[g].xSize = 1;
        instances[g].hSize = 1;
    }
    cell.setInstances(std::move(instances));
    OneRow one(cell);
    one.h(0) = 0.42f;
    const std::vector<float> x = {5.f};
    one.step(x);
    EXPECT_NEAR(one.h(0), 0.42f, 1e-4);
}

// ------------------------------------------------------- rate-RNN cell

/** Single-neuron rate RNN with hand-picked weights. */
struct TinyRateRnn
{
    RateRnnCell cell{1, 1};

    TinyRateRnn()
    {
        cell.gate(RateDrive).wx.at(0, 0) = 0.8f;
        cell.gate(RateDrive).wh.at(0, 0) = -0.5f;
        cell.gate(RateDrive).bias[0] = 0.15f;
        cell.gate(RateDrive).peephole[0] = 0.35f; // leak a = dt/tau
        std::vector<GateInstance> instances(1);
        instances[0].gate = RateDrive;
        instances[0].neurons = 1;
        instances[0].xSize = 1;
        instances[0].hSize = 1;
        cell.setInstances(std::move(instances));
    }
};

void
referenceRateRnnStep(const TinyRateRnn &tiny, double x, double &r)
{
    const auto &gate = tiny.cell.gate(RateDrive);
    const double drive = std::tanh(gate.wx.at(0, 0) * x +
                                   gate.wh.at(0, 0) * r + gate.bias[0]);
    const double a = gate.peephole[0];
    r = (1.0 - a) * r + a * drive;
}

TEST(RateRnnCellTest, MatchesReferenceOverSequence)
{
    TinyRateRnn tiny;
    OneRow one(tiny.cell);

    double r = 0;
    const double xs[] = {0.9, -1.4, 0.2, 2.0, -0.6};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        one.step(input);
        referenceRateRnnStep(tiny, x, r);
        EXPECT_NEAR(one.h(0), r, 1e-5);
    }
}

TEST(RateRnnCellTest, LeakSpansGeometricGrid)
{
    RateRnnCell cell(3, 8);
    const auto &leak = cell.gate(RateDrive).peephole;
    ASSERT_EQ(leak.size(), 8u);
    EXPECT_FLOAT_EQ(leak[0], 1.f);
    EXPECT_NEAR(leak[7], 0.1f, 1e-5);
    for (std::size_t n = 1; n < 8; ++n)
        EXPECT_LT(leak[n], leak[n - 1]);
}

TEST(RateRnnCellTest, UnitLeakIsPureTanhRnn)
{
    // a = 1 collapses the Euler update to r_t = tanh(preact): the
    // single-neuron cell has a = 1.0 by construction.
    RateRnnCell cell(1, 1);
    cell.gate(RateDrive).wx.at(0, 0) = 1.f;
    std::vector<GateInstance> instances(1);
    instances[0].gate = RateDrive;
    instances[0].neurons = 1;
    instances[0].xSize = 1;
    instances[0].hSize = 1;
    cell.setInstances(std::move(instances));

    OneRow one(cell);
    one.h(0) = 0.9f; // must not persist when a = 1
    const std::vector<float> x = {0.5f};
    one.step(x);
    EXPECT_NEAR(one.h(0), std::tanh(0.5), 1e-5);
}

TEST(RateRnnCellTest, NoExtraStateSlots)
{
    RateRnnCell cell(2, 4);
    const BatchCellState state = cell.makeBatchState(1);
    EXPECT_EQ(state.h.cols(), 4u);
    EXPECT_TRUE(state.extra.empty());
}

// ------------------------------------------------------------ BRC cell

/** Single-neuron BRC with hand-picked weights. */
struct TinyBrc
{
    BrcCell cell{1, 1};

    TinyBrc()
    {
        const float wx[3] = {0.7f, -0.4f, 1.2f};
        const float wh[3] = {0.25f, 0.6f, -0.8f};
        const float bias[3] = {0.1f, -0.15f, 0.3f};
        for (std::size_t g = 0; g < 3; ++g) {
            cell.gate(g).wx.at(0, 0) = wx[g];
            cell.gate(g).wh.at(0, 0) = wh[g];
            cell.gate(g).bias[0] = bias[g];
        }
        std::vector<GateInstance> instances(3);
        for (std::size_t g = 0; g < 3; ++g) {
            instances[g].gate = g;
            instances[g].neurons = 1;
            instances[g].xSize = 1;
            instances[g].hSize = 1;
        }
        cell.setInstances(std::move(instances));
    }
};

void
referenceBrcStep(const TinyBrc &tiny, double x, double &h)
{
    auto wx = [&](std::size_t g) { return tiny.cell.gate(g).wx.at(0, 0); };
    auto wh = [&](std::size_t g) { return tiny.cell.gate(g).wh.at(0, 0); };
    auto b = [&](std::size_t g) { return tiny.cell.gate(g).bias[0]; };
    auto sig = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };

    const double a =
        1.0 + std::tanh(wx(BrcMod) * x + wh(BrcMod) * h + b(BrcMod));
    const double c =
        sig(wx(BrcUpdate) * x + wh(BrcUpdate) * h + b(BrcUpdate));
    const double g = std::tanh(wx(BrcCandidate) * x +
                               wh(BrcCandidate) * (a * h) +
                               b(BrcCandidate));
    h = c * h + (1.0 - c) * g;
}

TEST(BrcCellTest, MatchesReferenceOverSequence)
{
    TinyBrc tiny;
    OneRow one(tiny.cell);

    double h = 0;
    const double xs[] = {1.2, -0.7, 0.4, 2.5, -1.8};
    for (double x : xs) {
        const std::vector<float> input = {static_cast<float>(x)};
        one.step(input);
        referenceBrcStep(tiny, x, h);
        EXPECT_NEAR(one.h(0), h, 1e-5);
    }
}

TEST(BrcCellTest, UpdateGateRetainsHiddenState)
{
    // c ~= 1 must keep h unchanged — BRC's long-memory regime.
    BrcCell cell(1, 1);
    cell.gate(BrcUpdate).bias[0] = 100.f;
    std::vector<GateInstance> instances(3);
    for (std::size_t g = 0; g < 3; ++g) {
        instances[g].gate = g;
        instances[g].neurons = 1;
        instances[g].xSize = 1;
        instances[g].hSize = 1;
    }
    cell.setInstances(std::move(instances));

    OneRow one(cell);
    one.h(0) = 0.65f;
    const std::vector<float> x = {1.f};
    one.step(x);
    EXPECT_NEAR(one.h(0), 0.65f, 1e-4);
}

TEST(BrcCellTest, NoExtraStateSlots)
{
    BrcCell cell(2, 4);
    const BatchCellState state = cell.makeBatchState(1);
    EXPECT_EQ(state.h.cols(), 4u);
    EXPECT_TRUE(state.extra.empty());
}

// ------------------------------------------------------ cell registry

TEST(CellDescriptorTest, RegistryMatchesCellObjects)
{
    RnnConfig config;
    config.inputSize = 3;
    config.hiddenSize = 4;
    for (const CellType type : {CellType::Lstm, CellType::Gru,
                                CellType::RateRnn, CellType::Brc}) {
        config.cellType = type;
        const CellDescriptor &desc = cellDescriptor(type);
        EXPECT_EQ(desc.type, type);
        const auto cell = desc.makeCell(config.inputSize, config);
        EXPECT_EQ(cell->type(), type);
        EXPECT_EQ(cell->gateCount(), desc.gates.size());
        EXPECT_EQ(cell->makeBatchState(1).extra.size(),
                  desc.extraStateSlots());
        EXPECT_EQ(gateCount(type), desc.gates.size());
    }
}

TEST(CellDescriptorTest, NamesRoundTrip)
{
    EXPECT_STREQ(cellTypeName(CellType::Lstm), "LSTM");
    EXPECT_STREQ(cellTypeName(CellType::RateRnn), "RateRNN");
    EXPECT_STREQ(cellTypeName(CellType::Brc), "BRC");
    EXPECT_EQ(cellTypeByName("lstm"), CellType::Lstm);
    EXPECT_EQ(cellTypeByName("gru"), CellType::Gru);
    EXPECT_EQ(cellTypeByName("raternn"), CellType::RateRnn);
    EXPECT_EQ(cellTypeByName("brc"), CellType::Brc);
    EXPECT_STREQ(gateName(CellType::Lstm, LstmForget), "forget");
    EXPECT_STREQ(gateName(CellType::RateRnn, RateDrive), "drive");
    EXPECT_STREQ(gateName(CellType::Brc, BrcCandidate), "candidate");
}

TEST(CellDescriptorTest, UnknownCliNameDies)
{
    EXPECT_DEATH(cellTypeByName("elman"), "unknown cell family");
}

TEST(CellDescriptorTest, KnownCellIds)
{
    EXPECT_TRUE(isKnownCellType(0));
    EXPECT_TRUE(isKnownCellType(3));
    EXPECT_FALSE(isKnownCellType(4));
    EXPECT_NE(knownCellNames().find("raternn"), std::string::npos);
}

// ----------------------------------------------------------------- init

TEST(InitTest, ScalesFollowFanIn)
{
    Rng rng(10);
    GateParams params;
    params.wx = tensor::Matrix(64, 400);
    params.wh = tensor::Matrix(64, 100);
    params.bias.assign(64, 1.f);
    InitOptions options;
    options.gain = 1.0;
    options.magnitudeDispersion = 1.0;
    initGate(params, rng, options);

    RunningStats sx, sh;
    for (float v : params.wx.data())
        sx.add(v);
    for (float v : params.wh.data())
        sh.add(v);
    EXPECT_NEAR(sx.stddev(), 1.0 / 20.0, 0.005);  // 1/sqrt(400)
    EXPECT_NEAR(sh.stddev(), 1.0 / 10.0, 0.01);   // 1/sqrt(100)
    EXPECT_NEAR(sx.mean(), 0.0, 0.002);
    for (float b : params.bias)
        EXPECT_FLOAT_EQ(b, 0.f);
}

TEST(InitTest, DispersionZeroGivesConstantMagnitude)
{
    Rng rng(11);
    GateParams params;
    params.wx = tensor::Matrix(8, 100);
    params.wh = tensor::Matrix(8, 100);
    params.bias.assign(8, 0.f);
    InitOptions options;
    options.magnitudeDispersion = 0.0;
    initGate(params, rng, options);
    const float expected = std::fabs(params.wx.at(0, 0));
    for (float v : params.wx.data())
        EXPECT_FLOAT_EQ(std::fabs(v), expected);
}

} // namespace
} // namespace nlfm::nn
