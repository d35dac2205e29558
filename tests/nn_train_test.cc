/**
 * @file
 * Trainer tests: numerical gradient checks for every cell family's
 * BPTT kernel, Adam behaviour, and end-to-end learning on the
 * synthetic sentiment task.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.hh"
#include "nn/activations.hh"
#include "nn/cell_descriptor.hh"
#include "nn/init.hh"
#include "nn/train.hh"
#include "workloads/tasks.hh"

namespace nlfm::nn::train
{
namespace
{

RnnConfig
trainableConfig(CellType type, std::size_t layers)
{
    RnnConfig config;
    config.cellType = type;
    config.inputSize = 3;
    config.hiddenSize = 4;
    config.layers = layers;
    config.bidirectional = false;
    config.peepholes = false;
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

/**
 * Compare analytic gradients against central finite differences for a
 * sample of parameters.
 */
void
gradientCheck(CellType type, std::size_t layers, std::uint64_t seed)
{
    const RnnConfig config = trainableConfig(type, layers);
    RnnNetwork network(config);
    Rng rng(seed);
    initNetwork(network, rng);
    SoftmaxHead head(config.outputSize(), 3, rng);

    TrainConfig tc;
    tc.clipNorm = 0.0; // clipping would corrupt the comparison
    BpttTrainer trainer(network, head, tc);

    const Sequence inputs = randomSequence(rng, 6, config.inputSize);
    const std::size_t label = 1;

    trainer.parameters().zeroGrads();
    trainer.accumulateExample(inputs, label);

    ParameterSet &params = trainer.parameters();
    std::size_t checked = 0;
    const double h = 1e-2;
    for (std::size_t block = 0; block < params.blockCount(); ++block) {
        auto values = params.values(block);
        auto grads = params.grad(block);
        // Sample a few entries per block.
        const std::size_t stride = std::max<std::size_t>(
            1, values.size() / 5);
        const std::vector<LabeledSequence> example = {{inputs, label}};
        for (std::size_t i = 0; i < values.size(); i += stride) {
            const float saved = values[i];
            values[i] = static_cast<float>(saved + h);
            const double loss_plus = trainer.evaluateLoss(example);
            values[i] = static_cast<float>(saved - h);
            const double loss_minus = trainer.evaluateLoss(example);
            values[i] = saved;

            const double numeric = (loss_plus - loss_minus) / (2 * h);
            const double analytic = grads[i];
            const double scale =
                std::max({1e-3, std::fabs(numeric), std::fabs(analytic)});
            EXPECT_NEAR(analytic, numeric, 0.05 * scale)
                << "block " << block << " index " << i;
            ++checked;
        }
    }
    EXPECT_GT(checked, 20u);
}

TEST(GradCheckTest, LstmSingleLayer)
{
    gradientCheck(CellType::Lstm, 1, 101);
}

TEST(GradCheckTest, LstmTwoLayers)
{
    gradientCheck(CellType::Lstm, 2, 102);
}

TEST(GradCheckTest, GruSingleLayer)
{
    gradientCheck(CellType::Gru, 1, 103);
}

TEST(GradCheckTest, GruTwoLayers)
{
    gradientCheck(CellType::Gru, 2, 104);
}

TEST(GradCheckTest, RateRnnSingleLayer)
{
    gradientCheck(CellType::RateRnn, 1, 105);
}

TEST(GradCheckTest, RateRnnTwoLayers)
{
    gradientCheck(CellType::RateRnn, 2, 106);
}

TEST(GradCheckTest, BrcSingleLayer)
{
    gradientCheck(CellType::Brc, 1, 107);
}

TEST(GradCheckTest, BrcTwoLayers)
{
    gradientCheck(CellType::Brc, 2, 108);
}

// -------------------------------------------------------- ParameterSet

TEST(ParameterSetTest, RegistersAndZeroes)
{
    std::vector<float> a = {1, 2, 3};
    ParameterSet params;
    const std::size_t block = params.add(a);
    EXPECT_EQ(params.totalParameters(), 3u);
    auto grads = params.grad(block);
    grads[0] = 5.f;
    params.zeroGrads();
    EXPECT_FLOAT_EQ(params.grad(block)[0], 0.f);
}

TEST(ParameterSetTest, ClipScalesDownOnly)
{
    std::vector<float> a = {0.f, 0.f};
    ParameterSet params;
    const std::size_t block = params.add(a);
    auto grads = params.grad(block);
    grads[0] = 3.f;
    grads[1] = 4.f; // norm 5
    params.clipGrads(10.0);
    EXPECT_FLOAT_EQ(params.grad(block)[0], 3.f);
    params.clipGrads(2.5);
    EXPECT_NEAR(params.gradNorm(), 2.5, 1e-6);
}

TEST(ParameterSetTest, AdamDescendsQuadratic)
{
    // Minimize f(x) = (x - 3)^2 with Adam.
    std::vector<float> x = {0.f};
    ParameterSet params;
    const std::size_t block = params.add(x);
    AdamConfig adam;
    adam.lr = 0.1;
    for (int iter = 0; iter < 300; ++iter) {
        params.zeroGrads();
        params.grad(block)[0] = 2.f * (x[0] - 3.f);
        params.adamStep(adam);
    }
    EXPECT_NEAR(x[0], 3.0, 0.05);
}

// --------------------------------------------------------- SoftmaxHead

TEST(SoftmaxHeadTest, LogitsAndPredict)
{
    Rng rng(7);
    SoftmaxHead head(4, 3, rng);
    // Overwrite with a deterministic pattern.
    for (auto &w : head.weights().data())
        w = 0.f;
    head.weights().at(2, 0) = 1.f;
    head.bias() = {0.f, 0.f, 0.f};
    const std::vector<float> h = {2.f, 0.f, 0.f, 0.f};
    EXPECT_EQ(head.predict(h), 2u);
}

// ------------------------------------------------------------ learning

TEST(TrainingTest, LearnsSentimentTask)
{
    workloads::SentimentTaskOptions task_options;
    task_options.steps = 16;
    workloads::SentimentTask task(task_options, 55);

    RnnConfig config;
    config.cellType = CellType::Lstm;
    config.inputSize = task_options.embedDim;
    config.hiddenSize = 16;
    config.layers = 1;
    config.bidirectional = false;
    config.peepholes = false;

    RnnNetwork network(config);
    Rng rng(56);
    initNetwork(network, rng);
    SoftmaxHead head(config.outputSize(), 2, rng);
    TrainConfig tc;
    tc.adam.lr = 1e-2;
    BpttTrainer trainer(network, head, tc);

    Rng data_rng(57);
    const auto train_set = task.sample(256, data_rng);
    const auto test_set = task.sample(128, data_rng);

    DirectBatchEvaluator direct;
    const double before = trainer.evaluateAccuracy(test_set, direct);

    const std::size_t batch = 32;
    double last_loss = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
        for (std::size_t i = 0; i + batch <= train_set.size(); i += batch) {
            last_loss = trainer.trainBatch(
                std::span<const LabeledSequence>(train_set.data() + i,
                                                 batch));
        }
    }
    const double after = trainer.evaluateAccuracy(test_set, direct);

    EXPECT_LT(last_loss, 0.55);
    EXPECT_GT(after, 0.85);
    EXPECT_GT(after, before);
}

TEST(TrainingTest, LossDecreasesOnFixedBatch)
{
    const RnnConfig config = trainableConfig(CellType::Gru, 1);
    RnnNetwork network(config);
    Rng rng(58);
    initNetwork(network, rng);
    SoftmaxHead head(config.outputSize(), 3, rng);
    BpttTrainer trainer(network, head, TrainConfig{});

    std::vector<LabeledSequence> batch;
    for (std::size_t i = 0; i < 8; ++i) {
        batch.push_back(
            {randomSequence(rng, 5, config.inputSize), i % 3});
    }
    const double initial = trainer.evaluateLoss(batch);
    for (int iter = 0; iter < 150; ++iter)
        trainer.trainBatch(batch);
    // Overfitting a fixed 8-example batch must cut the loss sharply.
    EXPECT_LT(trainer.evaluateLoss(batch), initial * 0.35);
}

TEST(TrainingTest, LossIsInferenceForwardLoss)
{
    // The trainer's loss is the cross-entropy of the inference forward's
    // final output, bit for bit, in every build: an -O0 build contracts
    // no multiply-add, so this holds there only if training steps the
    // cells' own code.
    std::uint64_t seed = 61;
    for (const CellType type :
         {CellType::Lstm, CellType::Gru, CellType::RateRnn, CellType::Brc})
        for (const std::size_t layers : {1, 2})
            for (const std::size_t hidden : {4, 37}) {
                RnnConfig config = trainableConfig(type, layers);
                config.inputSize = 16;
                config.hiddenSize = hidden;
                RnnNetwork network(config);
                Rng rng(seed++);
                initNetwork(network, rng);
                SoftmaxHead head(config.outputSize(), 3, rng);
                BpttTrainer trainer(network, head, TrainConfig{});

                std::size_t differing = 0;
                for (std::size_t i = 0; i < 20; ++i) {
                    const Sequence seq =
                        randomSequence(rng, 24, config.inputSize);
                    const std::size_t label = i % head.classes();
                    const std::vector<LabeledSequence> example = {
                        {seq, label}};
                    const double loss = trainer.evaluateLoss(example);

                    std::vector<float> scores(head.classes());
                    std::vector<float> probs(head.classes());
                    head.logits(network.forwardBaseline(seq).back(),
                                scores);
                    softmax(scores, probs);
                    const double expected = -std::log(std::max(
                        static_cast<double>(probs[label]), 1e-12));
                    if (std::memcmp(&loss, &expected, sizeof loss) != 0)
                        ++differing;
                }
                EXPECT_EQ(differing, 0u)
                    << cellTypeName(type) << " layers " << layers
                    << " hidden " << hidden;
            }
}

TEST(TrainerGuardsTest, RejectsBidirectional)
{
    RnnConfig config = trainableConfig(CellType::Lstm, 1);
    config.bidirectional = true;
    RnnNetwork network(config);
    Rng rng(59);
    SoftmaxHead head(config.outputSize(), 2, rng);
    EXPECT_DEATH(BpttTrainer(network, head, TrainConfig{}),
                 "unidirectional");
}

TEST(TrainerGuardsTest, RejectsPeepholes)
{
    RnnConfig config = trainableConfig(CellType::Lstm, 1);
    config.peepholes = true;
    RnnNetwork network(config);
    Rng rng(60);
    SoftmaxHead head(config.outputSize(), 2, rng);
    EXPECT_DEATH(BpttTrainer(network, head, TrainConfig{}),
                 "peephole");
}

} // namespace
} // namespace nlfm::nn::train
