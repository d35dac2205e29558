/**
 * @file
 * Tests for the fuzzy memoization engine: exactness at theta = 0
 * (Oracle), equation semantics (Eqs. 9-17), throttling behaviour,
 * monotonicity properties, trace consistency, and fixed-point fidelity.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "memo/memo_engine.hh"
#include "memo/threshold_tuner.hh"
#include "nn/init.hh"

namespace nlfm::memo
{
namespace
{

using nn::CellType;
using nn::RnnConfig;
using nn::RnnNetwork;
using nn::Sequence;

struct Fixture
{
    RnnConfig config;
    std::unique_ptr<RnnNetwork> network;
    std::unique_ptr<nn::BinarizedNetwork> bnn;
    Sequence inputs;

    explicit Fixture(CellType type = CellType::Lstm,
                     bool bidirectional = false, std::size_t layers = 2,
                     std::size_t steps = 12, std::uint64_t seed = 1,
                     double input_rho = 0.9)
    {
        config.cellType = type;
        config.inputSize = 10;
        config.hiddenSize = 12;
        config.layers = layers;
        config.bidirectional = bidirectional;
        config.peepholes = type == CellType::Lstm;
        network = std::make_unique<RnnNetwork>(config);
        Rng rng(seed);
        nn::InitOptions init;
        init.gain = 0.6;
        init.forgetBias = 1.5;
        init.magnitudeDispersion = 0.4;
        nn::initNetwork(*network, rng, init);
        bnn = std::make_unique<nn::BinarizedNetwork>(*network);

        // Smooth AR(1) inputs so memoization has real opportunity.
        inputs.assign(steps, std::vector<float>(config.inputSize, 0.f));
        std::vector<double> state(config.inputSize);
        for (auto &s : state)
            s = rng.normal();
        const double innov = std::sqrt(1 - input_rho * input_rho);
        for (auto &frame : inputs) {
            for (std::size_t d = 0; d < state.size(); ++d) {
                state[d] = input_rho * state[d] + innov * rng.normal();
                frame[d] = static_cast<float>(state[d]);
            }
        }
    }
};

// ----------------------------------------------------- exactness cases

TEST(MemoEngineTest, OracleAtThetaZeroMatchesBaselineExactly)
{
    Fixture f;
    const Sequence baseline = f.network->forwardBaseline(f.inputs);

    MemoOptions options;
    options.predictor = PredictorKind::Oracle;
    options.theta = 0.0;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    const Sequence memoized = f.network->forward(f.inputs, engine);

    for (std::size_t t = 0; t < baseline.size(); ++t)
        for (std::size_t i = 0; i < baseline[t].size(); ++i)
            EXPECT_FLOAT_EQ(memoized[t][i], baseline[t][i]);
}

TEST(MemoEngineTest, OracleThetaZeroReusesOnlyIdenticalOutputs)
{
    // With theta = 0 the oracle reuses only bit-identical outputs, so
    // the output must still equal the baseline even when reuse > 0.
    Fixture f(CellType::Gru);
    MemoOptions options;
    options.predictor = PredictorKind::Oracle;
    options.theta = 0.0;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    const Sequence memoized = f.network->forward(f.inputs, engine);
    const Sequence baseline = f.network->forwardBaseline(f.inputs);
    for (std::size_t t = 0; t < baseline.size(); ++t)
        for (std::size_t i = 0; i < baseline[t].size(); ++i)
            EXPECT_FLOAT_EQ(memoized[t][i], baseline[t][i]);
}

TEST(MemoEngineTest, FirstTimestepNeverReuses)
{
    Fixture f;
    for (auto kind : {PredictorKind::Oracle, PredictorKind::Bnn}) {
        MemoOptions options;
        options.predictor = kind;
        options.theta = 100.0; // reuse everything possible
        options.recordTrace = true;
        MemoEngine engine(*f.network, f.bnn.get(), options);
        f.network->forward(f.inputs, engine);
        ASSERT_EQ(engine.traces().size(), 1u);
        for (const auto &gate : engine.traces()[0].gates) {
            ASSERT_FALSE(gate.misses.empty());
            // Cold table: every neuron evaluates at processing step 0.
            EXPECT_EQ(gate.misses[0],
                      f.config.hiddenSize);
        }
    }
}

TEST(MemoEngineTest, HugeThetaOracleReusesEverythingAfterWarmup)
{
    Fixture f;
    MemoOptions options;
    options.predictor = PredictorKind::Oracle;
    options.theta = 1e9;
    options.recordTrace = true;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);
    for (const auto &gate : engine.traces()[0].gates)
        for (std::size_t s = 1; s < gate.misses.size(); ++s)
            EXPECT_EQ(gate.misses[s], 0u);
    // Total reuse = (steps - 1) / steps of all slots.
    const double expected =
        static_cast<double>(f.inputs.size() - 1) /
        static_cast<double>(f.inputs.size());
    EXPECT_NEAR(engine.stats().reuseFraction(), expected, 1e-9);
}

TEST(MemoEngineTest, HugeThetaBnnReusesAlmostEverything)
{
    // The BNN predictor refuses to reuse when yb_t == 0 and yb_m != 0
    // (the relative difference of Eq. 12 is undefined at zero), so a
    // small residue of evaluations remains even at huge theta.
    Fixture f;
    MemoOptions options;
    options.predictor = PredictorKind::Bnn;
    options.theta = 1e6;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);
    const double ceiling =
        static_cast<double>(f.inputs.size() - 1) /
        static_cast<double>(f.inputs.size());
    EXPECT_GT(engine.stats().reuseFraction(), 0.6 * ceiling);
    EXPECT_LE(engine.stats().reuseFraction(), ceiling + 1e-12);
}

// ------------------------------------------------------------- stats

TEST(MemoEngineTest, StatsCountEverySlot)
{
    Fixture f(CellType::Lstm, true, 2, 9);
    MemoOptions options;
    options.predictor = PredictorKind::Bnn;
    options.theta = 0.1;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);

    const std::uint64_t expected_slots =
        static_cast<std::uint64_t>(f.network->totalNeurons()) *
        f.inputs.size();
    EXPECT_EQ(engine.stats().totalSlots(), expected_slots);
    EXPECT_LE(engine.stats().totalReused(), expected_slots);
}

TEST(MemoEngineTest, ResetStatsClears)
{
    Fixture f;
    MemoOptions options;
    options.theta = 0.5;
    options.recordTrace = true;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);
    EXPECT_GT(engine.stats().totalSlots(), 0u);
    engine.resetStats();
    EXPECT_EQ(engine.stats().totalSlots(), 0u);
    EXPECT_TRUE(engine.traces().empty());
}

TEST(MemoEngineTest, TraceMissesPlusHitsEqualSlots)
{
    Fixture f(CellType::Gru, false, 3, 10);
    MemoOptions options;
    options.theta = 0.2;
    options.recordTrace = true;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);

    const auto &trace = engine.traces()[0];
    std::uint64_t misses = 0;
    std::uint64_t slots = 0;
    for (const auto &gate : trace.gates) {
        EXPECT_EQ(gate.misses.size(), f.inputs.size());
        for (std::uint32_t m : gate.misses) {
            EXPECT_LE(m, f.config.hiddenSize);
            misses += m;
            slots += f.config.hiddenSize;
        }
    }
    EXPECT_EQ(slots - misses, engine.stats().totalReused());
}

TEST(MemoEngineTest, SequencesResetTheTable)
{
    Fixture f;
    MemoOptions options;
    options.theta = 1e6;
    options.recordTrace = true;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);
    f.network->forward(f.inputs, engine);
    ASSERT_EQ(engine.traces().size(), 2u);
    // Second sequence also cold-starts (paper: the scheme operates per
    // input sequence).
    for (const auto &gate : engine.traces()[1].gates)
        EXPECT_EQ(gate.misses[0], f.config.hiddenSize);
}

// ------------------------------------------------------- monotonicity

struct SweepParam
{
    PredictorKind predictor;
    bool throttle;
};

class ReuseMonotonicity : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(ReuseMonotonicity, ReuseGrowsWithTheta)
{
    Fixture f(CellType::Lstm, false, 2, 16, /*seed=*/3);
    double last = -1.0;
    for (double theta : {0.0, 0.01, 0.05, 0.1, 0.3, 0.6, 1.2}) {
        MemoOptions options;
        options.predictor = GetParam().predictor;
        options.throttle = GetParam().throttle;
        options.theta = theta;
        MemoEngine engine(*f.network, f.bnn.get(), options);
        f.network->forward(f.inputs, engine);
        const double reuse = engine.stats().reuseFraction();
        EXPECT_GE(reuse + 1e-12, last) << "theta " << theta;
        last = reuse;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Predictors, ReuseMonotonicity,
    ::testing::Values(SweepParam{PredictorKind::Oracle, false},
                      SweepParam{PredictorKind::Bnn, true},
                      SweepParam{PredictorKind::Bnn, false}));

TEST(MemoEngineTest, ThrottlingNeverIncreasesReuse)
{
    Fixture f(CellType::Lstm, false, 2, 20, /*seed=*/5);
    for (double theta : {0.05, 0.1, 0.3}) {
        MemoOptions with;
        with.theta = theta;
        with.throttle = true;
        MemoEngine engine_with(*f.network, f.bnn.get(), with);
        f.network->forward(f.inputs, engine_with);

        MemoOptions without = with;
        without.throttle = false;
        MemoEngine engine_without(*f.network, f.bnn.get(), without);
        f.network->forward(f.inputs, engine_without);

        // delta accumulates, so the throttled engine is at least as
        // conservative per neuron-step.
        EXPECT_LE(engine_with.stats().reuseFraction(),
                  engine_without.stats().reuseFraction() + 1e-12);
    }
}

TEST(MemoEngineTest, ThrottlingBoundsReuseRunLengths)
{
    // Single neuron with a constant input: eps_b == 0 every step, so
    // both variants reuse forever; with a slowly drifting input the
    // throttled engine must break long runs.
    RnnConfig config;
    config.cellType = CellType::Lstm;
    config.inputSize = 64;
    config.hiddenSize = 1;
    config.layers = 1;
    config.peepholes = false;
    RnnNetwork network(config);
    Rng rng(7);
    nn::InitOptions init;
    init.magnitudeDispersion = 0.2;
    nn::initNetwork(network, rng, init);
    nn::BinarizedNetwork bnn(network);

    // Drift: rotate the input slightly each step so the BNN sees a
    // small but nonzero eps at every step.
    Sequence inputs;
    std::vector<float> base(config.inputSize);
    rng.fillNormal(base, 0.0, 1.0);
    for (int t = 0; t < 64; ++t) {
        inputs.push_back(base);
        // Flip one coordinate per step.
        base[static_cast<std::size_t>(t) % config.inputSize] *= -1.f;
    }

    auto longest_run = [&](bool throttle) {
        MemoOptions options;
        options.theta = 0.3;
        options.throttle = throttle;
        options.recordTrace = true;
        MemoEngine engine(network, &bnn, options);
        network.forward(inputs, engine);
        std::size_t best = 0, run = 0;
        // Gate 0 trace; single neuron -> misses[s] in {0, 1}.
        for (std::uint32_t m : engine.traces()[0].gates[0].misses) {
            run = (m == 0) ? run + 1 : 0;
            best = std::max(best, run);
        }
        return best;
    };

    EXPECT_LE(longest_run(true), longest_run(false));
}

TEST(MemoEngineTest, SetThetaTakesEffect)
{
    Fixture f;
    MemoOptions options;
    options.theta = 0.0;
    MemoEngine engine(*f.network, f.bnn.get(), options);
    f.network->forward(f.inputs, engine);
    const double low = engine.stats().reuseFraction();
    engine.resetStats();
    engine.setTheta(10.0);
    f.network->forward(f.inputs, engine);
    EXPECT_GT(engine.stats().reuseFraction(), low);
}

// -------------------------------------------------------- phase sink

/** Totals and every gate's reuse of @p a equal those of @p b. */
void
expectSameStats(const ReuseStats &a, const ReuseStats &b,
                std::size_t gates)
{
    EXPECT_EQ(a.totalSlots(), b.totalSlots());
    EXPECT_EQ(a.totalReused(), b.totalReused());
    for (std::size_t gate = 0; gate < gates; ++gate)
        EXPECT_EQ(a.gateReuseFraction(gate), b.gateReuseFraction(gate))
            << "gate " << gate;
}

TEST(MemoEngineTest, PhaseSinkTimesEveryPhaseAndChangesNoResult)
{
    // LSTM 128 x 128: a gate call of 16 rows has 2^19 multiply-adds, at
    // least nn::kMinSplitWork, so on a pool of two its neurons split
    // over two ranges (whose probe, decide and commit times the caller
    // adds up after the join), and on AVX-512 hosts they decide in
    // groups of four. A one-row forward stays below the split floor and
    // decides one neuron at a time.
    RnnConfig config;
    config.cellType = CellType::Lstm;
    config.inputSize = 128;
    config.hiddenSize = 128;
    config.layers = 1;
    RnnNetwork network(config);
    Rng rng(7);
    nn::initNetwork(network, rng);
    nn::BinarizedNetwork bnn(network);
    ASSERT_GE(config.hiddenSize * (config.inputSize + config.hiddenSize) *
                  16,
              nn::kMinSplitWork);

    std::vector<Sequence> batch(16, Sequence(12));
    for (Sequence &sequence : batch)
        for (auto &frame : sequence) {
            frame.resize(config.inputSize);
            for (float &v : frame)
                v = static_cast<float>(rng.normal());
        }

    MemoOptions options;
    options.predictor = PredictorKind::Bnn;
    options.theta = 0.0122;
    GatePhaseTimes times;
    const auto read = [&times] {
        return std::array<std::uint64_t, 3>{times.probeNs.load(),
                                            times.decideNs.load(),
                                            times.commitNs.load()};
    };
    const auto expect_advanced = [&](const std::array<std::uint64_t, 3> &
                                         before,
                                     const char *pass) {
        const std::array<std::uint64_t, 3> after = read();
        EXPECT_GT(after[0], before[0]) << pass << ": probe";
        EXPECT_GT(after[1], before[1]) << pass << ": decide";
        EXPECT_GT(after[2], before[2]) << pass << ": commit";
    };
    const std::size_t gates = network.gateInstances().size();

    ThreadPool pool(2);
    nn::BatchForwardOptions split;
    split.pool = &pool;
    BatchMemoEngine plain(network, &bnn, options);
    const auto expected = network.forwardBatch(batch, plain, split);
    BatchMemoEngine timed(network, &bnn, options);
    timed.setPhaseSink(&times);
    const auto before_batch = read();
    EXPECT_EQ(network.forwardBatch(batch, timed, split), expected);
    expect_advanced(before_batch, "16-sequence batch");
    expectSameStats(timed.stats(), plain.stats(), gates);

    MemoEngine plain_one(network, &bnn, options);
    const Sequence expected_one = network.forward(batch[0], plain_one);
    MemoEngine timed_one(network, &bnn, options);
    timed_one.setPhaseSink(&times);
    const auto before_one = read();
    EXPECT_EQ(network.forward(batch[0], timed_one), expected_one);
    expect_advanced(before_one, "one-sequence forward");
    expectSameStats(timed_one.stats(), plain_one.stats(), gates);
}

// ------------------------------------------------------------- tuner

TEST(ThresholdTunerTest, LinspaceEndpoints)
{
    const auto grid = linspace(0.0, 1.0, 5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.0);
    EXPECT_DOUBLE_EQ(grid.back(), 1.0);
    EXPECT_DOUBLE_EQ(grid[2], 0.5);
}

TEST(ThresholdTunerTest, SelectsHighestReuseUnderBudget)
{
    const std::vector<TunePoint> points = {
        {0.0, 0.00, 0.0},
        {0.1, 0.20, 0.5},
        {0.2, 0.35, 0.9},
        {0.3, 0.50, 2.5},
    };
    const auto best = selectThreshold(points, 1.0);
    ASSERT_TRUE(best.has_value());
    EXPECT_DOUBLE_EQ(best->theta, 0.2);
}

TEST(ThresholdTunerTest, NoneQualifiesGivesNullopt)
{
    const std::vector<TunePoint> points = {{0.1, 0.2, 5.0}};
    EXPECT_FALSE(selectThreshold(points, 1.0).has_value());
}

TEST(ThresholdTunerTest, LinspaceRejectsDegenerateGrids)
{
    // A one-point "grid" would divide by zero computing the step, and
    // a single-sample curve gives the autopilot's safety bound nothing
    // to interpolate. Hard error in every build type.
    EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
    EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
    EXPECT_THROW(linspace(1.0, 0.0, 5), std::invalid_argument);

    // Two points is the smallest valid grid: exactly the endpoints.
    const auto grid = linspace(0.25, 0.75, 2);
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.25);
    EXPECT_DOUBLE_EQ(grid.back(), 0.75);
}

TEST(ThresholdTunerTest, SelectTieBreaksAreOrderIndependent)
{
    // Equal reuse: lower accuracy loss wins.
    const std::vector<TunePoint> loss_tie = {
        {0.3, 0.50, 0.9},
        {0.1, 0.50, 0.2},
        {0.2, 0.50, 0.5},
    };
    auto best = selectThreshold(loss_tie, 1.0);
    ASSERT_TRUE(best.has_value());
    EXPECT_DOUBLE_EQ(best->theta, 0.1);

    // Equal reuse AND loss: lower theta wins — the cheaper-to-miss
    // threshold when the sweep cannot tell the points apart.
    const std::vector<TunePoint> full_tie = {
        {0.3, 0.50, 0.5},
        {0.1, 0.50, 0.5},
        {0.2, 0.50, 0.5},
    };
    best = selectThreshold(full_tie, 1.0);
    ASSERT_TRUE(best.has_value());
    EXPECT_DOUBLE_EQ(best->theta, 0.1);

    // Same winner when the sweep arrives in the opposite order.
    const std::vector<TunePoint> reversed(full_tie.rbegin(),
                                          full_tie.rend());
    best = selectThreshold(reversed, 1.0);
    ASSERT_TRUE(best.has_value());
    EXPECT_DOUBLE_EQ(best->theta, 0.1);
}

TEST(ThresholdTunerTest, SweepRunsEveryTheta)
{
    std::vector<double> seen;
    const auto experiment = [&](double theta) {
        seen.push_back(theta);
        return TunePoint{theta, theta, 0.0};
    };
    const auto thetas = linspace(0.0, 0.4, 5);
    const auto points = sweepThresholds(experiment, thetas);
    EXPECT_EQ(points.size(), 5u);
    EXPECT_EQ(seen.size(), 5u);
}

} // namespace
} // namespace nlfm::memo
