/**
 * @file
 * Tests for the E-PUR accelerator model: timing formulas, energy
 * accounting identities, area inventory, and the calibration anchors
 * the paper states in §5.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "epur/area_model.hh"
#include "epur/report.hh"
#include "epur/simulator.hh"
#include "memo/memo_engine.hh"
#include "nn/init.hh"

namespace nlfm::epur
{
namespace
{

using memo::GateStepTrace;
using memo::SequenceTrace;

/** EESEN-shaped single-cell network for closed-form checks. */
nn::RnnConfig
uniformConfig(std::size_t hidden, std::size_t layers = 1)
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = hidden; // K = 2 * hidden for every gate
    config.hiddenSize = hidden;
    config.layers = layers;
    config.peepholes = true;
    return config;
}

/** Build a trace with a constant per-gate miss count. */
std::vector<SequenceTrace>
constantTrace(const nn::RnnNetwork &network, std::size_t steps,
              std::uint32_t misses)
{
    SequenceTrace trace;
    trace.gates.resize(network.gateInstances().size());
    for (auto &gate : trace.gates)
        gate.misses.assign(steps, misses);
    return {trace};
}

// -------------------------------------------------------------- timing

TEST(TimingModelTest, DpuCyclesFormula)
{
    TimingModel timing{EpurConfig{}};
    EXPECT_EQ(timing.dpuCyclesPerNeuron(256), 16u); // 256/16
    EXPECT_EQ(timing.dpuCyclesPerNeuron(257), 17u);
    EXPECT_EQ(timing.dpuCyclesPerNeuron(1), 1u);
    // IMDB-like gate (128+128): the paper's "16 cycles" lower bound.
    EXPECT_EQ(timing.dpuCyclesPerNeuron(256), 16u);
    // MNMT-like gate (1024+1024).
    EXPECT_EQ(timing.dpuCyclesPerNeuron(2048), 128u);
}

TEST(TimingModelTest, FmuCyclesRespectLatencyAndWidth)
{
    TimingModel timing{EpurConfig{}};
    // Narrow gates pay the 5-cycle latency (Table 2).
    EXPECT_EQ(timing.fmuCyclesPerNeuron(256), 5u);
    EXPECT_EQ(timing.fmuCyclesPerNeuron(2048), 5u);
    // Wider than the BDPU: throughput-limited.
    EXPECT_EQ(timing.fmuCyclesPerNeuron(2048 * 6), 6u);
}

TEST(TimingModelTest, BaselineClosedForm)
{
    // Single LSTM cell, hidden=320, K=640: per gate per step,
    // 320 neurons x ceil(640/16)=40 cycles = 12800; 4 gates concurrent
    // -> cell step = 12800.
    nn::RnnNetwork network(uniformConfig(320));
    TimingModel timing{EpurConfig{}};
    const std::size_t steps[] = {10};
    const TimingResult result = timing.simulateBaseline(network, steps);
    EXPECT_EQ(result.cycles, 12800u * 10u);
    EXPECT_DOUBLE_EQ(result.seconds,
                     static_cast<double>(result.cycles) / 500e6);
}

TEST(TimingModelTest, AllMissTraceMatchesBaselineWhenDpuBound)
{
    // K = 640 -> dpu 40 >= fmu 5, so a zero-reuse memoized run costs
    // exactly the baseline (FMU fully overlapped).
    nn::RnnNetwork network(uniformConfig(320));
    TimingModel timing{EpurConfig{}};
    const std::size_t steps[] = {7};
    const auto baseline = timing.simulateBaseline(network, steps);
    const auto memoized = timing.simulateMemoized(
        network, constantTrace(network, 7, 320));
    EXPECT_EQ(memoized.cycles, baseline.cycles);
}

TEST(TimingModelTest, FullReuseCostsFmuLatencyOnly)
{
    nn::RnnNetwork network(uniformConfig(320));
    TimingModel timing{EpurConfig{}};
    const auto memoized =
        timing.simulateMemoized(network, constantTrace(network, 7, 0));
    // 320 neurons x 5 cycles x 7 steps (single cell, gates concurrent).
    EXPECT_EQ(memoized.cycles, 320u * 5u * 7u);
}

TEST(TimingModelTest, SpeedupMatchesPaperCalibration)
{
    // Paper §5: EESEN at 2% accuracy loss reuses ~40% and speeds up
    // ~1.55x. With D=40 and hit cost 5: D / (r*5 + (1-r)*D) = 1.54x.
    nn::RnnNetwork network(uniformConfig(320));
    TimingModel timing{EpurConfig{}};
    const std::size_t steps[] = {100};
    const auto baseline = timing.simulateBaseline(network, steps);
    const auto memoized = timing.simulateMemoized(
        network, constantTrace(network, 100, 192)); // 40% reuse
    const double speedup = static_cast<double>(baseline.cycles) /
                           static_cast<double>(memoized.cycles);
    EXPECT_NEAR(speedup, 1.54, 0.02);
}

TEST(TimingModelTest, CellsSerializeGatesParallelize)
{
    // Two stacked cells double the time of one.
    nn::RnnNetwork one(uniformConfig(64, 1));
    nn::RnnConfig two_cfg = uniformConfig(64, 2);
    two_cfg.inputSize = 64;
    nn::RnnNetwork two(two_cfg);
    TimingModel timing{EpurConfig{}};
    const std::size_t steps[] = {5};
    const auto t1 = timing.simulateBaseline(one, steps);
    const auto t2 = timing.simulateBaseline(two, steps);
    EXPECT_EQ(t2.cycles, 2 * t1.cycles);
}

// -------------------------------------------------------------- energy

TEST(EnergyModelTest, BreakdownIdentity)
{
    EnergyEvents events;
    events.weightBufferBytes = 1e6;
    events.inputBufferBytes = 2e5;
    events.dpuMacs = 5e5;
    events.muOps = 1e4;
    events.dramBytes = 3e5;
    events.bdpuWords = 1e3;
    events.cmpOps = 4e3;
    events.memoBufferBytes = 6e3;
    events.signBufferBytes = 1.25e5;
    events.seconds = 1e-3;
    events.fmuPresent = true;
    const EnergyParams params = EnergyParams::defaults();
    const EnergyBreakdown breakdown = computeEnergy(events, params);
    EXPECT_NEAR(breakdown.totalJ(),
                breakdown.scratchpadJ + breakdown.operationsJ +
                    breakdown.dramJ + breakdown.fmuJ,
                1e-18);
    EXPECT_GT(breakdown.scratchpadJ, 0.0);
    EXPECT_GT(breakdown.fmuJ, 0.0);
}

TEST(SimulatorTest, ZeroReuseCostsMoreThanBaseline)
{
    // With no reuse, E-PUR+BM pays the whole baseline datapath plus the
    // FMU probes: energy must exceed the baseline.
    nn::RnnNetwork network(uniformConfig(128));
    Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const std::size_t steps[] = {20};
    const auto baseline = sim.simulateBaseline(network, steps);
    const auto memoized =
        sim.simulateMemoized(network, constantTrace(network, 20, 128));
    EXPECT_GT(memoized.energy.totalJ(), baseline.energy.totalJ());
    // ... but only slightly (the FMU is cheap; paper: "negligible").
    EXPECT_LT(memoized.energy.totalJ(), 1.08 * baseline.energy.totalJ());
}

TEST(SimulatorTest, HighReuseSavesEnergy)
{
    nn::RnnNetwork network(uniformConfig(320));
    Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const std::size_t steps[] = {20};
    const auto baseline = sim.simulateBaseline(network, steps);
    const auto memoized = sim.simulateMemoized(
        network, constantTrace(network, 20, 224)); // 30% reuse
    EXPECT_LT(memoized.energy.totalJ(), baseline.energy.totalJ());
    const double savings = Simulator::energySavings(baseline, memoized);
    EXPECT_GT(savings, 0.10);
    EXPECT_LT(savings, 0.35);
}

TEST(SimulatorTest, DramEnergyUnaffectedByMemoization)
{
    // Paper §5: both designs load all weights once per sequence.
    nn::RnnNetwork network(uniformConfig(96));
    Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const std::size_t steps[] = {10};
    const auto baseline = sim.simulateBaseline(network, steps);
    const auto memoized =
        sim.simulateMemoized(network, constantTrace(network, 10, 13));
    EXPECT_DOUBLE_EQ(baseline.energy.dramJ, memoized.energy.dramJ);
}

TEST(SimulatorTest, BaselineBreakdownIsScratchpadDominant)
{
    // Fig. 18 shape: on-chip memories dominate, then operations;
    // weight fetching is the top consumer (§3.1).
    nn::RnnNetwork network(uniformConfig(320, 2));
    Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const std::size_t steps[] = {50};
    const auto baseline = sim.simulateBaseline(network, steps);
    const double total = baseline.energy.totalJ();
    EXPECT_GT(baseline.energy.scratchpadJ / total, 0.40);
    EXPECT_GT(baseline.energy.scratchpadJ, baseline.energy.operationsJ);
    EXPECT_GT(baseline.energy.operationsJ, baseline.energy.dramJ * 0.5);
    EXPECT_DOUBLE_EQ(baseline.energy.fmuJ, 0.0);
}

TEST(SimulatorTest, SpeedupAndSavingsHelpers)
{
    nn::RnnNetwork network(uniformConfig(256));
    Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const std::size_t steps[] = {10};
    const auto baseline = sim.simulateBaseline(network, steps);
    const auto memoized = sim.simulateMemoized(
        network, constantTrace(network, 10, 128)); // 50% reuse
    EXPECT_GT(Simulator::speedup(baseline, memoized), 1.0);
    EXPECT_GT(Simulator::energySavings(baseline, memoized), 0.0);
}

TEST(SimulatorTest, EventsScaleLinearlyWithSteps)
{
    nn::RnnNetwork network(uniformConfig(64));
    Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const std::size_t steps10[] = {10};
    const std::size_t steps20[] = {20};
    const auto a = sim.simulateBaseline(network, steps10);
    const auto b = sim.simulateBaseline(network, steps20);
    EXPECT_DOUBLE_EQ(b.events.dpuMacs, 2 * a.events.dpuMacs);
    EXPECT_DOUBLE_EQ(b.events.weightBufferBytes,
                     2 * a.events.weightBufferBytes);
    // DRAM scales with sequences, not steps.
    EXPECT_DOUBLE_EQ(b.events.dramBytes, a.events.dramBytes);
}

// ---------------------------------------------------------------- area

TEST(AreaModelTest, PaperTotals)
{
    AreaModel area{EpurConfig{}};
    EXPECT_NEAR(area.baselineArea(), 64.6, 0.5);
    EXPECT_NEAR(area.memoizedArea(), 66.8, 0.5);
    EXPECT_NEAR(area.overheadFraction(), 0.04, 0.01);
    EXPECT_NEAR(area.scratchpadOverheadFraction(), 0.03, 0.005);
}

TEST(AreaModelTest, ComponentsArePositiveAndTagged)
{
    AreaModel area{EpurConfig{}};
    std::size_t memo_only = 0;
    for (const auto &component : area.components()) {
        EXPECT_GT(component.mm2, 0.0) << component.name;
        memo_only += component.memoizationOnly ? 1 : 0;
    }
    EXPECT_EQ(memo_only, 3u);
}

// -------------------------------------------------------------- report

TEST(ReportTest, BreakdownItemsOrderAndShares)
{
    EnergyBreakdown breakdown;
    breakdown.scratchpadJ = 6;
    breakdown.operationsJ = 3;
    breakdown.dramJ = 1;
    const auto items = breakdownItems(breakdown);
    ASSERT_EQ(items.size(), 4u);
    EXPECT_EQ(items[0].first, "scratchpad");
    const auto shares = breakdownShares(breakdown, breakdown.totalJ());
    EXPECT_NEAR(shares[0].second, 0.6, 1e-12);
    EXPECT_NEAR(shares[3].second, 0.0, 1e-12);
}

// ------------------------------------------- traces from closed batches

TEST(EpurTraceTest, ClosedBatchTracesMatchOneSequenceRuns)
{
    // A ragged batch through a bidirectional stack: each slot's trace,
    // backward cells included, must equal that of the sequence run on
    // its own, and so must what the accelerator model makes of them.
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 10;
    config.hiddenSize = 24;
    config.layers = 2;
    config.bidirectional = true;
    nn::RnnNetwork network(config);
    Rng rng(31);
    nn::InitOptions init;
    init.magnitudeDispersion = 0.4;
    nn::initNetwork(network, rng, init);
    nn::BinarizedNetwork bnn(network);

    std::vector<nn::Sequence> inputs;
    for (const std::size_t steps : {5, 9, 3}) {
        nn::Sequence sequence(steps, std::vector<float>(config.inputSize));
        for (auto &frame : sequence)
            rng.fillNormal(frame, 0.0, 1.0);
        inputs.push_back(std::move(sequence));
    }

    memo::MemoOptions options;
    options.theta = 0.3;
    options.recordTrace = true;
    memo::MemoEngine one(network, &bnn, options);
    for (const nn::Sequence &input : inputs)
        network.forward(input, one);
    ASSERT_EQ(one.traces().size(), inputs.size());

    const Simulator sim{EpurConfig{}, EnergyParams::defaults()};
    const SimResult expected = sim.simulateMemoized(network, one.traces());

    // One chunk, and one chunk per sequence (chunks run in parallel).
    for (const std::size_t chunk : {64, 1}) {
        memo::BatchMemoEngine batch(network, &bnn, options);
        nn::BatchForwardOptions forward;
        forward.chunkSize = chunk;
        network.forwardBatch(inputs, batch, forward);
        ASSERT_EQ(batch.traces().size(), inputs.size());
        for (std::size_t s = 0; s < inputs.size(); ++s) {
            const auto &want = one.traces()[s].gates;
            const auto &got = batch.traces()[s].gates;
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t g = 0; g < want.size(); ++g)
                EXPECT_EQ(got[g].misses, want[g].misses)
                    << "chunk " << chunk << " slot " << s << " gate " << g;
            EXPECT_EQ(batch.traces()[s].steps(), inputs[s].size());
        }

        const SimResult actual =
            sim.simulateMemoized(network, batch.traces());
        EXPECT_EQ(actual.timing.cycles, expected.timing.cycles);
        EXPECT_EQ(actual.energy.scratchpadJ, expected.energy.scratchpadJ);
        EXPECT_EQ(actual.energy.operationsJ, expected.energy.operationsJ);
        EXPECT_EQ(actual.energy.dramJ, expected.energy.dramJ);
        EXPECT_EQ(actual.energy.fmuJ, expected.energy.fmuJ);
    }
}

// -------------------------------------------- config description sanity

TEST(EpurConfigTest, Table2Defaults)
{
    const EpurConfig config;
    EXPECT_EQ(config.computeUnits, 4u);
    EXPECT_EQ(config.dpuWidth, 16u);
    EXPECT_EQ(config.weightBufferBytesPerCu, 2u << 20);
    EXPECT_EQ(config.inputBufferBytesPerCu, 8u << 10);
    EXPECT_EQ(config.intermediateMemoryBytes, 6u << 20);
    EXPECT_EQ(config.bdpuWidthBits, 2048u);
    EXPECT_EQ(config.fmuLatencyCycles, 5u);
    EXPECT_EQ(config.memoBufferBytes, 8u << 10);
    EXPECT_DOUBLE_EQ(config.frequencyHz, 500e6);
    EXPECT_EQ(config.memoEntryBytes(), 6u);
    EXPECT_FALSE(config.describe().empty());
}

} // namespace
} // namespace nlfm::epur
