/**
 * @file
 * Tests for the batched evaluation path: Batch packing, panel kernels,
 * and bitwise identity of forwardBatch / BatchMemoEngine with the serial
 * per-sequence path.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "nn/init.hh"
#include "nn/rnn_network.hh"
#include "tensor/batch.hh"
#include "tensor/vector_ops.hh"

namespace nlfm
{
namespace
{

nn::RnnConfig
smallConfig(nn::CellType type, bool bidirectional)
{
    nn::RnnConfig config;
    config.cellType = type;
    config.inputSize = 6;
    config.hiddenSize = 5;
    config.layers = 2;
    config.bidirectional = bidirectional;
    config.peepholes = true;
    return config;
}

std::unique_ptr<nn::RnnNetwork>
buildNetwork(const nn::RnnConfig &config, std::uint64_t seed = 7)
{
    auto network = std::make_unique<nn::RnnNetwork>(config);
    Rng rng(seed);
    nn::initNetwork(*network, rng);
    return network;
}

/** Batch of varying-length sequences; slot 2 (when present) is empty. */
std::vector<nn::Sequence>
makeSequences(std::size_t batch, std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t steps = b == 2 ? 0 : 1 + (b * 5) % 9;
        sequences[b].assign(steps, std::vector<float>(width));
        for (auto &frame : sequences[b])
            rng.fillNormal(frame, 0.0, 1.0);
    }
    return sequences;
}

void
expectBitwiseEqual(const nn::Sequence &expected, const nn::Sequence &actual,
                   std::size_t slot)
{
    ASSERT_EQ(expected.size(), actual.size()) << "slot " << slot;
    for (std::size_t t = 0; t < expected.size(); ++t) {
        ASSERT_EQ(expected[t].size(), actual[t].size())
            << "slot " << slot << " step " << t;
        for (std::size_t i = 0; i < expected[t].size(); ++i)
            ASSERT_EQ(expected[t][i], actual[t][i])
                << "slot " << slot << " step " << t << " element " << i;
    }
}

// -------------------------------------------------------- tensor::Batch

TEST(BatchTest, PackUnpackRoundTrip)
{
    const auto sequences = makeSequences(5, 4, 11);
    const tensor::Batch batch = tensor::Batch::pack(sequences, 4);

    EXPECT_EQ(batch.size(), 5u);
    EXPECT_EQ(batch.width(), 4u);
    EXPECT_EQ(batch.length(2), 0u);

    const auto unpacked = batch.unpack();
    ASSERT_EQ(unpacked.size(), sequences.size());
    for (std::size_t b = 0; b < sequences.size(); ++b)
        expectBitwiseEqual(sequences[b], unpacked[b], b);
}

TEST(BatchTest, ActiveRowsTrackLengths)
{
    const auto sequences = makeSequences(5, 4, 12);
    const tensor::Batch batch = tensor::Batch::pack(sequences, 4);

    for (std::size_t t = 0; t < batch.maxSteps(); ++t) {
        const auto rows = batch.activeRows(t);
        for (std::size_t b = 0; b < batch.size(); ++b) {
            const bool live = batch.length(b) > t;
            const bool listed =
                std::find(rows.begin(), rows.end(), b) != rows.end();
            EXPECT_EQ(live, listed) << "step " << t << " slot " << b;
        }
    }
}

TEST(BatchTest, PaddingRowsStayZero)
{
    const auto sequences = makeSequences(4, 3, 13);
    const tensor::Batch batch = tensor::Batch::pack(sequences, 3);
    for (std::size_t t = 0; t < batch.maxSteps(); ++t)
        for (std::size_t b = 0; b < batch.size(); ++b) {
            if (batch.length(b) > t)
                continue;
            for (const float value : batch.panel(t).row(b))
                EXPECT_EQ(value, 0.f);
        }
}

// -------------------------------------------------------- panel kernels

TEST(MatvecPanelTest, MatchesSerialRowKernelBitwise)
{
    // The panel kernel's contract is bitwise identity with the
    // explicit-lane row kernel (dotLanes) that the serial gate path
    // evaluates per neuron, in both modes: every width tail n % 8 plus
    // DeepSpeech2's gate widths (161, 800, 961), neuron counts that fill
    // whole four-neuron groups and leave each remainder, and panels that
    // fill whole 8-row blocks and leave each remainder.
    std::vector<std::size_t> widths;
    for (std::size_t width = 1; width <= 17; ++width)
        widths.push_back(width);
    widths.insert(widths.end(), {161, 800, 961});
    Rng rng(3);
    for (const std::size_t width : widths)
        for (std::size_t neurons = 1; neurons <= 9; ++neurons) {
            tensor::Matrix weights(neurons, width);
            for (float &value : weights.data())
                value = static_cast<float>(rng.normal(0.0, 1.0));
            for (std::size_t panel_rows = 1; panel_rows <= 17;
                 ++panel_rows) {
                tensor::Matrix inputs(panel_rows + 1, width);
                for (float &value : inputs.data())
                    value = static_cast<float>(rng.normal(0.0, 1.0));

                std::vector<std::size_t> rows(panel_rows);
                for (std::size_t i = 0; i < panel_rows; ++i)
                    rows[i] = i + 1; // row 0 inactive
                tensor::Matrix out(panel_rows + 1, neurons);
                out.at(0, 0) = 42.f; // must remain untouched
                weights.matvecPanel(inputs, rows, out, false);
                const tensor::Matrix once = out;
                // Accumulate pass adds on top.
                weights.matvecPanel(inputs, rows, out, true);

                for (const std::size_t b : rows)
                    for (std::size_t r = 0; r < neurons; ++r) {
                        const float expected =
                            tensor::dotLanes(weights.row(r), inputs.row(b));
                        ASSERT_EQ(once.at(b, r), expected)
                            << "width " << width << ", neurons " << neurons
                            << ", rows " << panel_rows << ", row " << b
                            << ", neuron " << r;
                        ASSERT_EQ(out.at(b, r), expected + expected)
                            << "accumulate: width " << width
                            << ", neurons " << neurons << ", rows "
                            << panel_rows << ", row " << b << ", neuron "
                            << r;
                    }
                ASSERT_EQ(out.at(0, 0), 42.f);
            }
        }
}

// ------------------------------------------- forwardBatch == forward

TEST(ForwardBatchTest, BitwiseIdenticalToSerialAcrossTopologies)
{
    for (const nn::CellType type :
         {nn::CellType::Lstm, nn::CellType::Gru, nn::CellType::RateRnn,
          nn::CellType::Brc}) {
        for (const bool bidirectional : {false, true}) {
            const nn::RnnConfig config = smallConfig(type, bidirectional);
            const auto network = buildNetwork(config);
            for (const std::size_t batch : {1u, 3u, 17u}) {
                const auto sequences =
                    makeSequences(batch, config.inputSize, 100 + batch);

                std::vector<nn::Sequence> serial;
                for (const auto &sequence : sequences)
                    serial.push_back(network->forwardBaseline(sequence));

                const auto batched =
                    network->forwardBatchBaseline(sequences);
                ASSERT_EQ(batched.size(), serial.size());
                for (std::size_t b = 0; b < serial.size(); ++b)
                    expectBitwiseEqual(serial[b], batched[b], b);
            }
        }
    }
}

TEST(ForwardBatchTest, ChunkSizeDoesNotChangeResults)
{
    const nn::RnnConfig config = smallConfig(nn::CellType::Lstm, true);
    const auto network = buildNetwork(config);
    const auto sequences = makeSequences(9, config.inputSize, 42);

    const auto reference = network->forwardBatchBaseline(sequences);
    for (const std::size_t chunk : {1u, 2u, 5u, 64u}) {
        nn::BatchForwardOptions options;
        options.chunkSize = chunk;
        const auto outputs =
            network->forwardBatchBaseline(sequences, options);
        for (std::size_t b = 0; b < sequences.size(); ++b)
            expectBitwiseEqual(reference[b], outputs[b], b);
    }
}

// ------------------------------------------------- batched memo engine

TEST(BatchMemoTest, OracleThetaZeroReproducesExactOutputs)
{
    for (const nn::CellType type :
         {nn::CellType::Lstm, nn::CellType::Gru, nn::CellType::RateRnn,
          nn::CellType::Brc}) {
        const nn::RnnConfig config = smallConfig(type, type ==
                                                           nn::CellType::Lstm);
        const auto network = buildNetwork(config);
        const auto sequences = makeSequences(6, config.inputSize, 21);

        memo::MemoOptions options;
        options.predictor = memo::PredictorKind::Oracle;
        options.theta = 0.0;

        memo::BatchMemoEngine engine(*network, nullptr, options);
        const auto memoized = network->forwardBatch(sequences, engine);

        for (std::size_t b = 0; b < sequences.size(); ++b)
            expectBitwiseEqual(network->forwardBaseline(sequences[b]),
                               memoized[b], b);
    }
}

TEST(BatchMemoTest, MatchesSerialEngineOutputsAndStats)
{
    for (const memo::PredictorKind predictor :
         {memo::PredictorKind::Oracle, memo::PredictorKind::Bnn}) {
        const nn::RnnConfig config = smallConfig(nn::CellType::Lstm, true);
        const auto network = buildNetwork(config);
        nn::BinarizedNetwork bnn(*network);
        const auto sequences = makeSequences(7, config.inputSize, 33);

        memo::MemoOptions options;
        options.predictor = predictor;
        options.theta = 0.08;

        // Serial reference: one engine, per-sequence cold start.
        memo::MemoEngine serial(*network, &bnn, options);
        std::vector<nn::Sequence> serial_outputs;
        for (const auto &sequence : sequences)
            serial_outputs.push_back(network->forward(sequence, serial));

        memo::BatchMemoEngine batched(*network, &bnn, options);
        const auto batch_outputs =
            network->forwardBatch(sequences, batched);

        for (std::size_t b = 0; b < sequences.size(); ++b)
            expectBitwiseEqual(serial_outputs[b], batch_outputs[b], b);

        const memo::ReuseStats stats = batched.stats();
        EXPECT_EQ(stats.totalSlots(), serial.stats().totalSlots());
        EXPECT_EQ(stats.totalReused(), serial.stats().totalReused());
        for (std::size_t gate = 0; gate < network->gateInstances().size();
             ++gate)
            EXPECT_EQ(stats.gateReuseFraction(gate),
                      serial.stats().gateReuseFraction(gate))
                << "gate " << gate;
    }
}

TEST(BatchMemoTest, NewCellFamiliesMatchSerialEngineOutputsAndStats)
{
    // The LSTM/GRU contract extends unchanged to the registry-era
    // families: the batched engine must reproduce the serial engine's
    // outputs and per-gate reuse statistics exactly, for both the
    // oracle and the BNN predictor.
    for (const nn::CellType type :
         {nn::CellType::RateRnn, nn::CellType::Brc}) {
        for (const memo::PredictorKind predictor :
             {memo::PredictorKind::Oracle, memo::PredictorKind::Bnn}) {
            const nn::RnnConfig config = smallConfig(type, true);
            const auto network = buildNetwork(config);
            nn::BinarizedNetwork bnn(*network);
            const auto sequences = makeSequences(7, config.inputSize, 33);

            memo::MemoOptions options;
            options.predictor = predictor;
            options.theta = 0.08;

            memo::MemoEngine serial(*network, &bnn, options);
            std::vector<nn::Sequence> serial_outputs;
            for (const auto &sequence : sequences)
                serial_outputs.push_back(
                    network->forward(sequence, serial));

            memo::BatchMemoEngine batched(*network, &bnn, options);
            const auto batch_outputs =
                network->forwardBatch(sequences, batched);

            for (std::size_t b = 0; b < sequences.size(); ++b)
                expectBitwiseEqual(serial_outputs[b], batch_outputs[b],
                                   b);

            const memo::ReuseStats stats = batched.stats();
            EXPECT_EQ(stats.totalSlots(), serial.stats().totalSlots());
            EXPECT_EQ(stats.totalReused(), serial.stats().totalReused());
            for (std::size_t gate = 0;
                 gate < network->gateInstances().size(); ++gate)
                EXPECT_EQ(stats.gateReuseFraction(gate),
                          serial.stats().gateReuseFraction(gate))
                    << "gate " << gate;
        }
    }
}

TEST(BatchMemoTest, ProbeIsaVariantsGiveIdenticalOutputsAndStats)
{
    // The probe rewrite dispatches XOR-popcount kernels by ISA at
    // runtime; every variant must leave outputs AND reuse decisions
    // bit-identical (and identical to the serial engine, which pins the
    // pre-rewrite behaviour). Run the same batch under every supported
    // variant and compare against the portable one.
    const nn::RnnConfig config = smallConfig(nn::CellType::Gru, true);
    const auto network = buildNetwork(config);
    nn::BinarizedNetwork bnn(*network);
    const auto sequences = makeSequences(7, config.inputSize, 77);

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = 0.07;

    ASSERT_TRUE(tensor::bnnSetIsa(tensor::BnnIsa::Portable));
    memo::MemoEngine serial(*network, &bnn, options);
    std::vector<nn::Sequence> reference;
    for (const auto &sequence : sequences)
        reference.push_back(network->forward(sequence, serial));

    for (const tensor::BnnIsa isa :
         {tensor::BnnIsa::Portable, tensor::BnnIsa::Avx2,
          tensor::BnnIsa::Avx512}) {
        if (!tensor::bnnSetIsa(isa))
            continue; // unsupported on this host
        memo::BatchMemoEngine batched(*network, &bnn, options);
        const auto outputs = network->forwardBatch(sequences, batched);
        for (std::size_t b = 0; b < sequences.size(); ++b)
            expectBitwiseEqual(reference[b], outputs[b], b);
        EXPECT_EQ(batched.stats().totalReused(),
                  serial.stats().totalReused())
            << "isa " << tensor::bnnIsaName(isa);
        EXPECT_EQ(batched.stats().totalSlots(),
                  serial.stats().totalSlots())
            << "isa " << tensor::bnnIsaName(isa);
    }
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

TEST(BatchMemoTest, ThrottlingStateIsPerSequence)
{
    // A batch of identical sequences must give every slot the same
    // decisions — and the same decisions a lone serial run makes. A
    // shared (non-slot-indexed) delta_b would accumulate across slots
    // and throttle later slots harder.
    const nn::RnnConfig config = smallConfig(nn::CellType::Gru, false);
    const auto network = buildNetwork(config);
    nn::BinarizedNetwork bnn(*network);

    const auto one = makeSequences(1, config.inputSize, 55);
    const std::vector<nn::Sequence> repeated(5, one[0]);

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = 0.1;

    memo::MemoEngine serial(*network, &bnn, options);
    const nn::Sequence reference = network->forward(one[0], serial);
    const double serial_reuse = serial.stats().reuseFraction();

    memo::BatchMemoEngine batched(*network, &bnn, options);
    const auto outputs = network->forwardBatch(repeated, batched);
    for (std::size_t b = 0; b < repeated.size(); ++b) {
        expectBitwiseEqual(reference, outputs[b], b);
        EXPECT_EQ(batched.slotReuseFraction(b), serial_reuse)
            << "slot " << b;
    }
}

} // namespace
} // namespace nlfm
