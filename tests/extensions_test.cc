/**
 * @file
 * Tests for the extension modules: weight serialization, the FP16
 * datapath evaluator, the cycle-by-cycle pipeline simulator, and
 * per-layer reuse reporting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/half.hh"
#include "common/rng.hh"
#include "epur/pipeline_sim.hh"
#include "memo/memo_engine.hh"
#include "nn/cell_descriptor.hh"
#include "nn/init.hh"
#include "nn/quantized.hh"
#include "nn/serialize.hh"

namespace nlfm
{
namespace
{

using nn::CellType;
using nn::RnnConfig;
using nn::RnnNetwork;
using nn::Sequence;

RnnConfig
smallConfig(CellType type = CellType::Lstm)
{
    RnnConfig config;
    config.cellType = type;
    config.inputSize = 7;
    config.hiddenSize = 9;
    config.layers = 2;
    config.bidirectional = type == CellType::Lstm;
    config.peepholes = type == CellType::Lstm;
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

std::string
tempPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("nlfm_test_" + tag + ".bin"))
        .string();
}

// --------------------------------------------------------- serialize

TEST(SerializeTest, RoundTripPreservesOutputs)
{
    RnnConfig no_peepholes = smallConfig(CellType::Lstm);
    no_peepholes.peepholes = false;
    for (const RnnConfig &config :
         {smallConfig(CellType::Lstm), no_peepholes,
          smallConfig(CellType::Gru), smallConfig(CellType::RateRnn),
          smallConfig(CellType::Brc)}) {
        RnnNetwork network(config);
        Rng rng(3);
        nn::initNetwork(network, rng);

        const std::string path =
            tempPath(nn::cellDescriptor(config.cellType).cliName);
        nn::saveNetwork(network, path);
        const auto restored = nn::loadNetwork(path);
        std::remove(path.c_str());

        Rng data_rng(4);
        const Sequence inputs =
            randomSequence(data_rng, 5, network.config().inputSize);
        const Sequence expected = network.forwardBaseline(inputs);
        const Sequence actual = restored->forwardBaseline(inputs);
        for (std::size_t t = 0; t < expected.size(); ++t)
            for (std::size_t i = 0; i < expected[t].size(); ++i)
                EXPECT_FLOAT_EQ(actual[t][i], expected[t][i]);
    }
}

TEST(SerializeTest, RoundTripPreservesEveryParameter)
{
    RnnNetwork network(smallConfig());
    Rng rng(5);
    nn::initNetwork(network, rng);
    const std::string path = tempPath("params");
    nn::saveNetwork(network, path);
    const auto restored = nn::loadNetwork(path);
    std::remove(path.c_str());

    for (const auto &inst : network.gateInstances()) {
        const auto &a = network.gateParams(inst.instanceId);
        const auto &b = restored->gateParams(inst.instanceId);
        ASSERT_EQ(a.wx.size(), b.wx.size());
        for (std::size_t i = 0; i < a.wx.size(); ++i)
            EXPECT_FLOAT_EQ(a.wx.data()[i], b.wx.data()[i]);
        for (std::size_t i = 0; i < a.wh.size(); ++i)
            EXPECT_FLOAT_EQ(a.wh.data()[i], b.wh.data()[i]);
        EXPECT_EQ(a.bias, b.bias);
        EXPECT_EQ(a.peephole, b.peephole);
    }
}

/** Byte offsets into the on-disk FileHeader (see nn/serialize.cc). */
constexpr long kVersionOffset = 8;
constexpr long kCellTypeOffset = 12;
constexpr long kHiddenSizeOffset = 24;

std::uint32_t
readHeaderField(const std::string &path, long offset)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    std::uint32_t value = 0;
    EXPECT_EQ(std::fread(&value, sizeof(value), 1, f), 1u);
    std::fclose(f);
    return value;
}

template <typename Field>
void
patchHeaderField(const std::string &path, long offset, Field value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
    std::fclose(f);
}

TEST(SerializeTest, LegacyFamiliesKeepVersionOneStamp)
{
    // Pre-registry builds wrote version 1 and only knew LSTM/GRU; their
    // files must keep loading, and new LSTM/GRU files must stay
    // byte-compatible with them. Registry-era families are stamped 2.
    for (CellType type : {CellType::Lstm, CellType::Gru,
                          CellType::RateRnn, CellType::Brc}) {
        RnnNetwork network(smallConfig(type));
        Rng rng(6);
        nn::initNetwork(network, rng);
        const std::string path = tempPath("version");
        nn::saveNetwork(network, path);
        const std::uint32_t expected =
            type <= CellType::Gru ? 1u : 2u;
        EXPECT_EQ(readHeaderField(path, kVersionOffset), expected)
            << nn::cellTypeName(type);
        const auto restored = nn::loadNetwork(path);
        EXPECT_EQ(restored->config().cellType, type);
        std::remove(path.c_str());
    }
}

TEST(SerializeTest, UnknownCellFamilyIdIsFatal)
{
    RnnNetwork network(smallConfig());
    Rng rng(6);
    nn::initNetwork(network, rng);
    const std::string path = tempPath("unknown_cell");
    nn::saveNetwork(network, path);
    patchHeaderField(path, kCellTypeOffset, std::uint32_t{42});
    EXPECT_DEATH(
        {
            auto loaded = nn::loadNetwork(path);
            (void)loaded;
        },
        "unknown cell family id 42.*lstm");
    std::remove(path.c_str());
}

TEST(SerializeTest, VersionOneCannotHoldRegistryEraCells)
{
    RnnNetwork network(smallConfig(CellType::RateRnn));
    Rng rng(6);
    nn::initNetwork(network, rng);
    const std::string path = tempPath("v1_raternn");
    nn::saveNetwork(network, path);
    patchHeaderField(path, kVersionOffset, std::uint32_t{1});
    EXPECT_DEATH(
        {
            auto loaded = nn::loadNetwork(path);
            (void)loaded;
        },
        "corrupt.*RateRNN");
    std::remove(path.c_str());
}

TEST(SerializeTest, OversizedHeaderDimensionIsFatal)
{
    // A hiddenSize of 2^40 would have the loader allocate petabytes of
    // weights; the header bound rejects it before anything is built.
    RnnNetwork network(smallConfig());
    Rng rng(6);
    nn::initNetwork(network, rng);
    const std::string path = tempPath("huge_hidden");
    nn::saveNetwork(network, path);
    patchHeaderField(path, kHiddenSizeOffset, std::uint64_t{1} << 40);
    EXPECT_DEATH(
        {
            auto loaded = nn::loadNetwork(path);
            (void)loaded;
        },
        "hiddenSize = 1099511627776 is out of range");
    std::remove(path.c_str());
}

TEST(SerializeTest, FileShorterThanItsHeaderPayloadIsFatal)
{
    // The header is valid, but the weights it declares do not fit in
    // what is left of the file.
    RnnNetwork network(smallConfig(CellType::Gru));
    Rng rng(6);
    nn::initNetwork(network, rng);
    const std::string path = tempPath("truncated");
    nn::saveNetwork(network, path);
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) - 5);
    EXPECT_DEATH(
        {
            auto loaded = nn::loadNetwork(path);
            (void)loaded;
        },
        "corrupt: its header declares [0-9]+ bytes of weights, but "
        "[0-9]+ bytes follow it");
    std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbageFiles)
{
    const std::string path = tempPath("garbage");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[64] = "definitely not a network";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    EXPECT_DEATH(
        {
            auto network = nn::loadNetwork(path);
            (void)network;
        },
        "not an NLFM network file");
    std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsFatal)
{
    EXPECT_DEATH(
        {
            auto network =
                nn::loadNetwork("/nonexistent/dir/net.bin");
            (void)network;
        },
        "cannot open");
}

// -------------------------------------------------------------- fp16

TEST(Fp16EvaluatorTest, StaysCloseToFloat32)
{
    RnnNetwork network(smallConfig());
    Rng rng(7);
    nn::initNetwork(network, rng);
    Rng data_rng(8);
    const Sequence inputs =
        randomSequence(data_rng, 6, network.config().inputSize);

    const Sequence fp32 = network.forwardBaseline(inputs);
    nn::Fp16Evaluator fp16;
    const Sequence half = network.forward(inputs, fp16);

    for (std::size_t t = 0; t < fp32.size(); ++t) {
        for (std::size_t i = 0; i < fp32[t].size(); ++i) {
            // binary16 has ~3 decimal digits; through two stacked
            // layers the divergence stays small for unit-scale data.
            EXPECT_NEAR(half[t][i], fp32[t][i], 0.02)
                << "t=" << t << " i=" << i;
        }
    }
}

TEST(Fp16EvaluatorTest, NeuronMatchesManualQuantization)
{
    nn::GateParams params;
    params.wx = tensor::Matrix(1, 3);
    params.wh = tensor::Matrix(1, 2);
    params.bias.assign(1, 0.f);
    params.wx.at(0, 0) = 0.1f;
    params.wx.at(0, 1) = -0.2f;
    params.wx.at(0, 2) = 0.3f;
    params.wh.at(0, 0) = 1.5f;
    params.wh.at(0, 1) = -2.5f;
    const std::vector<float> x = {1.1f, 2.2f, 3.3f};
    const std::vector<float> h = {0.5f, 0.25f};

    float expected = 0.f;
    for (std::size_t i = 0; i < 3; ++i)
        expected += nlfm::quantizeToHalf(params.wx.at(0, i)) *
                    quantizeToHalf(x[i]);
    for (std::size_t i = 0; i < 2; ++i)
        expected += nlfm::quantizeToHalf(params.wh.at(0, i)) *
                    quantizeToHalf(h[i]);
    expected = nlfm::quantizeToHalf(expected);

    EXPECT_FLOAT_EQ(nn::evaluateNeuronFp16(params, 0, x, h), expected);
}

// ------------------------------------------------------ pipeline sim

TEST(PipelineSimTest, SerializedMatchesAnalyticModel)
{
    const epur::EpurConfig config;
    const epur::PipelineSimulator pipeline(config);
    const epur::TimingModel timing(config);

    for (std::size_t width : {256u, 640u, 2048u}) {
        for (std::size_t misses : {0u, 13u, 64u, 128u}) {
            const std::size_t neurons = 128;
            const std::uint64_t detailed = pipeline.simulateGateStep(
                width, neurons, misses, epur::FmuSchedule::Serialized);
            const std::uint64_t analytic =
                misses * timing.missCyclesPerNeuron(width) +
                (neurons - misses) * timing.fmuCyclesPerNeuron(width);
            EXPECT_EQ(detailed, analytic)
                << "width=" << width << " misses=" << misses;
        }
    }
}

TEST(PipelineSimTest, PipelinedNeverSlowerBeyondPipelineFill)
{
    // The pipelined FMU pays a one-time pipeline-fill latency (the DPU
    // cannot start until the first decision retires); beyond that
    // constant it must never lose to the serialized discipline.
    const epur::EpurConfig config;
    const epur::PipelineSimulator pipeline(config);
    for (std::size_t width : {256u, 640u, 2048u}) {
        for (std::size_t misses : {0u, 32u, 96u, 128u}) {
            const std::uint64_t serialized = pipeline.simulateGateStep(
                width, 128, misses, epur::FmuSchedule::Serialized);
            const std::uint64_t pipelined = pipeline.simulateGateStep(
                width, 128, misses, epur::FmuSchedule::Pipelined);
            EXPECT_LE(pipelined, serialized + config.fmuLatencyCycles)
                << "width=" << width << " misses=" << misses;
        }
    }
}

TEST(PipelineSimTest, PipelinedWinsAtHighReuse)
{
    const epur::EpurConfig config;
    const epur::PipelineSimulator pipeline(config);
    // ~97% reuse on an EESEN-shaped gate: probes dominate the
    // serialized schedule (310 x 5 cycles vs 10 x 60 DPU cycles), and
    // pipelining collapses them to ~1 cycle each.
    const std::uint64_t serialized = pipeline.simulateGateStep(
        960, 320, 10, epur::FmuSchedule::Serialized);
    const std::uint64_t pipelined = pipeline.simulateGateStep(
        960, 320, 10, epur::FmuSchedule::Pipelined);
    EXPECT_LT(pipelined, serialized / 2);
}

TEST(PipelineSimTest, PipelinedLowerBoundIsDpuWork)
{
    const epur::EpurConfig config;
    const epur::PipelineSimulator pipeline(config);
    const epur::TimingModel timing(config);
    const std::size_t width = 640;
    const std::size_t misses = 77;
    const std::uint64_t pipelined = pipeline.simulateGateStep(
        width, 128, misses, epur::FmuSchedule::Pipelined);
    EXPECT_GE(pipelined, misses * timing.dpuCyclesPerNeuron(width));
}

TEST(PipelineSimTest, AllHitPipelinedIsIssueBound)
{
    const epur::EpurConfig config;
    const epur::PipelineSimulator pipeline(config);
    // 128 probes at 1/cycle + 5-cycle latency for the last one.
    const std::uint64_t cycles = pipeline.simulateGateStep(
        640, 128, 0, epur::FmuSchedule::Pipelined);
    EXPECT_EQ(cycles, 127u + config.fmuLatencyCycles);
}

TEST(PipelineSimTest, ExplicitHitVectorRespected)
{
    const epur::EpurConfig config;
    const epur::PipelineSimulator pipeline(config);
    const epur::TimingModel timing(config);
    std::vector<bool> hit = {true, false, true, false};
    const std::uint64_t cycles = pipeline.simulateGateStep(
        320, hit, epur::FmuSchedule::Serialized);
    EXPECT_EQ(cycles, 2 * timing.fmuCyclesPerNeuron(320) +
                          2 * timing.missCyclesPerNeuron(320));
}

// -------------------------------------------------- layer reuse view

TEST(LayerReuseTest, AggregatesPerLayer)
{
    RnnConfig config = smallConfig();
    config.bidirectional = false;
    RnnNetwork network(config);
    Rng rng(11);
    nn::initNetwork(network, rng);
    nn::BinarizedNetwork bnn(network);

    memo::MemoOptions options;
    options.theta = 0.4;
    memo::MemoEngine engine(network, &bnn, options);
    Rng data_rng(12);
    const Sequence inputs =
        randomSequence(data_rng, 10, config.inputSize);
    network.forward(inputs, engine);

    const auto layers = memo::layerReuseFractions(
        engine.stats(), network.gateInstances());
    ASSERT_EQ(layers.size(), config.layers);
    double weighted = 0;
    for (double fraction : layers) {
        EXPECT_GE(fraction, 0.0);
        EXPECT_LE(fraction, 1.0);
        weighted += fraction;
    }
    // Both layers have the same slot count, so the mean of the layer
    // fractions equals the global fraction.
    EXPECT_NEAR(weighted / static_cast<double>(layers.size()),
                engine.stats().reuseFraction(), 1e-9);
}

} // namespace
} // namespace nlfm
