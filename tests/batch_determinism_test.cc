/**
 * @file
 * Determinism of the batched evaluation path under the thread pool:
 * every schedule forwardBatch can pick (chunk-parallel, or a single
 * chunk with each gate's neurons and each cell's elementwise stage
 * split over the pool) must yield bitwise-identical outputs and
 * identical ReuseStats to a 1-thread pool, to threaded = false, and to
 * the serial per-sequence path, for the exact and the memoized
 * evaluators alike, called directly or through a pass-through
 * decorator (which splits the cells' loops but runs its gates inline).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "nn/init.hh"
#include "nn/rnn_network.hh"

namespace nlfm
{
namespace
{

/** A network family of the sweep: all four cells, LSTM bidirectional. */
struct Family
{
    nn::CellType type;
    bool bidirectional;
};

constexpr Family kFamilies[] = {{nn::CellType::Lstm, true},
                                {nn::CellType::Gru, false},
                                {nn::CellType::RateRnn, false},
                                {nn::CellType::Brc, false}};

/** Below one neuron block, two blocks with a ragged tail, four blocks. */
constexpr std::size_t kHiddenSizes[] = {8, 33, 100};

constexpr std::size_t kInputSize = 128;

/**
 * 1, 2 and 4 chunks of the default 64-sequence chunk size: on the pools
 * of 2, 4 and 7 threads below, the one-chunk batch splits each gate's
 * neurons and the others run chunk-parallel, with fewer, as many and
 * more chunks than threads.
 */
constexpr std::size_t kBatches[] = {64, 70, 200};
constexpr std::size_t kLargestBatch = kBatches[std::size(kBatches) - 1];

// The one-chunk batch is wide enough for the split: the first layer's
// gate calls reach nn::kMinSplitWork at hidden 33 while at least 50
// sequences are live, and drop below it (inline) as sequences end.
static_assert(33 * (kInputSize + 33) * 50 >= nn::kMinSplitWork);
static_assert(33 * (kInputSize + 33) * 45 < nn::kMinSplitWork);
// While those gate calls split, so do the cells' elementwise loops:
// they have at least nn::kMinSplitElements neuron-slots.
static_assert(33 * 50 >= nn::kMinSplitElements);

constexpr std::size_t kPoolThreads[] = {1, 2, 4, 7};

nn::RnnConfig
testConfig(const Family &family, std::size_t hidden)
{
    nn::RnnConfig config;
    config.cellType = family.type;
    config.inputSize = kInputSize;
    config.hiddenSize = hidden;
    config.layers = 2;
    config.bidirectional = family.bidirectional;
    config.peepholes = family.type == nn::CellType::Lstm;
    return config;
}

std::vector<nn::Sequence>
makeSequences(std::size_t batch, std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        sequences[b].assign(2 + (b * 5) % 7, std::vector<float>(width));
        for (auto &frame : sequences[b])
            rng.fillNormal(frame, 0.0, 1.0);
    }
    return sequences;
}

/** One pool per kPoolThreads entry, shared by every case of a test. */
std::vector<std::unique_ptr<ThreadPool>>
makePools()
{
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (const std::size_t threads : kPoolThreads)
        pools.push_back(std::make_unique<ThreadPool>(threads));
    return pools;
}

/** Every schedule a case runs: each pool, then threaded = false. */
std::vector<nn::BatchForwardOptions>
schedules(const std::vector<std::unique_ptr<ThreadPool>> &pools)
{
    std::vector<nn::BatchForwardOptions> all;
    for (const auto &pool : pools) {
        nn::BatchForwardOptions options;
        options.pool = pool.get();
        all.push_back(options);
    }
    nn::BatchForwardOptions unthreaded;
    unthreaded.threaded = false;
    all.push_back(unthreaded);
    return all;
}

std::string
describe(const nn::BatchForwardOptions &options, std::size_t batch)
{
    return "batch " + std::to_string(batch) + ", " +
           (options.threaded
                ? std::to_string(options.pool->threadCount()) + " threads"
                : std::string("unthreaded"));
}

/**
 * Decorator that forwards every call to the evaluator it wraps. Handed
 * to forwardBatch, it holds the neuron pool itself: on a one-chunk batch
 * the cells' elementwise loops split while the gate calls it forwards
 * run inline.
 */
class PassThroughEvaluator : public nn::BatchGateEvaluator
{
  public:
    explicit PassThroughEvaluator(nn::BatchGateEvaluator &inner)
        : inner_(inner)
    {
    }

    void beginBatch(std::size_t total_sequences) override
    {
        inner_.beginBatch(total_sequences);
    }

    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override
    {
        inner_.evaluateGateBatch(instance, params, x, h, rows, slot_base,
                                 preact);
    }

  private:
    nn::BatchGateEvaluator &inner_;
};

void
expectIdentical(std::span<const nn::Sequence> expected,
                std::span<const nn::Sequence> actual)
{
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t b = 0; b < expected.size(); ++b) {
        ASSERT_EQ(expected[b].size(), actual[b].size()) << "slot " << b;
        for (std::size_t t = 0; t < expected[b].size(); ++t)
            for (std::size_t i = 0; i < expected[b][t].size(); ++i)
                ASSERT_EQ(expected[b][t][i], actual[b][t][i])
                    << "slot " << b << " step " << t << " element " << i;
    }
}

TEST(BatchDeterminismTest, DirectPathIdenticalAcrossWorkerCounts)
{
    const auto pools = makePools();
    for (const Family &family : kFamilies)
        for (const std::size_t hidden : kHiddenSizes) {
            const nn::RnnConfig config = testConfig(family, hidden);
            SCOPED_TRACE(config.describe());
            nn::RnnNetwork network(config);
            Rng rng(19);
            nn::initNetwork(network, rng);
            const auto sequences =
                makeSequences(kLargestBatch, config.inputSize, 91);
            std::vector<nn::Sequence> reference;
            for (const nn::Sequence &sequence : sequences)
                reference.push_back(network.forwardBaseline(sequence));

            for (const std::size_t batch : kBatches)
                for (const auto &options : schedules(pools)) {
                    SCOPED_TRACE(describe(options, batch));
                    const std::span<const nn::Sequence> inputs(
                        sequences.data(), batch);
                    const std::span<const nn::Sequence> expected(
                        reference.data(), batch);
                    expectIdentical(
                        expected,
                        network.forwardBatchBaseline(inputs, options));

                    SCOPED_TRACE("through a pass-through decorator");
                    nn::DirectBatchEvaluator direct;
                    PassThroughEvaluator decorated(direct);
                    expectIdentical(expected,
                                    network.forwardBatch(inputs, decorated,
                                                         options));
                }
        }
}

/** A memoized evaluator configuration of the sweep. */
struct MemoCase
{
    const char *name;
    memo::PredictorKind predictor;
    /// Throttling: on selects the AVX-512 decide (where the host has
    /// it), off the scalar decide; either way the gate loop commits
    /// the misses of each group of one or four neurons.
    bool throttle;
    double theta;
};

/**
 * The throttled BNN cases decide through the vector path, so
 * where the host has the wide kernel, panels of more than 8 live slots
 * decide their neurons in groups of four before committing them
 * (smaller panels run groups of one). At theta 0.2 nearly every slot
 * misses and every group of four takes one grouped call. At theta 2
 * about half the neuron-steps reuse: the misses are sparse and partly
 * overlap, and about half of the groups of four take the grouped call
 * over the live panel, the rest commit each neuron on its own.
 */
constexpr MemoCase kMemoCases[] = {
    {"oracle", memo::PredictorKind::Oracle, true, 0.1},
    {"bnn throttled", memo::PredictorKind::Bnn, true, 0.2},
    {"bnn unthrottled", memo::PredictorKind::Bnn, false, 0.2},
    {"bnn throttled, high theta", memo::PredictorKind::Bnn, true, 2.0},
};

/** The serial MemoEngine's results on the first kLargestBatch inputs. */
struct SerialReference
{
    std::vector<nn::Sequence> outputs;
    std::vector<double> sequenceReuse;
    /// Per-gate stats over the first kBatches[k] sequences.
    std::vector<memo::ReuseStats> prefixStats;
};

SerialReference
serialReference(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
                const memo::MemoOptions &options,
                const std::vector<nn::Sequence> &sequences)
{
    SerialReference reference;
    memo::MemoEngine engine(network, &bnn, options);
    for (const nn::Sequence &sequence : sequences) {
        const std::uint64_t reused = engine.stats().totalReused();
        const std::uint64_t total = engine.stats().totalSlots();
        reference.outputs.push_back(network.forward(sequence, engine));
        reference.sequenceReuse.push_back(
            static_cast<double>(engine.stats().totalReused() - reused) /
            static_cast<double>(engine.stats().totalSlots() - total));
        for (const std::size_t batch : kBatches)
            if (reference.outputs.size() == batch)
                reference.prefixStats.push_back(engine.stats());
    }
    return reference;
}

/**
 * Run the first kBatches[k] sequences through a fresh BatchMemoEngine,
 * called directly or through a PassThroughEvaluator, and check outputs,
 * per-gate stats and per-slot reuse against the serial reference.
 */
void
checkMemoizedBatch(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
                   const memo::MemoOptions &memo_options,
                   const SerialReference &reference,
                   const std::vector<nn::Sequence> &sequences, std::size_t k,
                   const nn::BatchForwardOptions &options, bool decorate)
{
    const std::size_t batch = kBatches[k];
    memo::BatchMemoEngine engine(network, &bnn, memo_options);
    PassThroughEvaluator decorated(engine);
    nn::BatchGateEvaluator &eval =
        decorate ? static_cast<nn::BatchGateEvaluator &>(decorated) : engine;
    expectIdentical(
        std::span<const nn::Sequence>(reference.outputs.data(), batch),
        network.forwardBatch(
            std::span<const nn::Sequence>(sequences.data(), batch), eval,
            options));

    const memo::ReuseStats stats = engine.stats();
    const memo::ReuseStats &expected = reference.prefixStats[k];
    EXPECT_EQ(stats.totalSlots(), expected.totalSlots());
    EXPECT_EQ(stats.totalReused(), expected.totalReused());
    for (std::size_t gate = 0; gate < network.gateInstances().size(); ++gate)
        ASSERT_EQ(stats.gateReuseFraction(gate),
                  expected.gateReuseFraction(gate))
            << "gate " << gate;
    for (std::size_t slot = 0; slot < batch; ++slot)
        ASSERT_EQ(engine.slotReuseFraction(slot),
                  reference.sequenceReuse[slot])
            << "slot " << slot;
}

TEST(BatchDeterminismTest, MemoizedPathIdenticalOutputsAndStats)
{
    const auto pools = makePools();
    for (const Family &family : kFamilies)
        for (const std::size_t hidden : kHiddenSizes) {
            const nn::RnnConfig config = testConfig(family, hidden);
            nn::RnnNetwork network(config);
            Rng rng(23);
            nn::initNetwork(network, rng);
            nn::BinarizedNetwork bnn(network);
            const auto sequences =
                makeSequences(kLargestBatch, config.inputSize, 97);

            for (const MemoCase &memo_case : kMemoCases) {
                SCOPED_TRACE(config.describe() + ", " + memo_case.name);
                memo::MemoOptions memo_options;
                memo_options.predictor = memo_case.predictor;
                memo_options.throttle = memo_case.throttle;
                memo_options.theta = memo_case.theta;
                const SerialReference reference =
                    serialReference(network, bnn, memo_options, sequences);

                for (std::size_t k = 0; k < std::size(kBatches); ++k)
                    for (const auto &options : schedules(pools))
                        for (const bool decorate : {false, true}) {
                            SCOPED_TRACE(describe(options, kBatches[k]) +
                                         (decorate ? ", decorated" : ""));
                            checkMemoizedBatch(network, bnn, memo_options,
                                               reference, sequences, k,
                                               options, decorate);
                        }
            }
        }
}

} // namespace
} // namespace nlfm
