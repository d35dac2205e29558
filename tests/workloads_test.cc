/**
 * @file
 * Tests for the workload layer: generators, tasks, the Table-1 model
 * zoo, and the drift evaluators.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/init.hh"
#include "workloads/evaluators.hh"
#include "workloads/model_zoo.hh"
#include "workloads/tasks.hh"

namespace nlfm::workloads
{
namespace
{

// ---------------------------------------------------------- generators

TEST(SpeechGenTest, ShapeAndDeterminism)
{
    SpeechGenOptions options;
    options.dim = 12;
    Rng a(5), b(5);
    const auto s1 = generateSpeechFrames(20, options, a);
    const auto s2 = generateSpeechFrames(20, options, b);
    ASSERT_EQ(s1.size(), 20u);
    EXPECT_EQ(s1[0].size(), 12u);
    for (std::size_t t = 0; t < s1.size(); ++t)
        for (std::size_t d = 0; d < 12; ++d)
            EXPECT_FLOAT_EQ(s1[t][d], s2[t][d]);
}

TEST(SpeechGenTest, HigherCorrelationMeansSmootherFrames)
{
    auto mean_step = [](double rho) {
        SpeechGenOptions options;
        options.dim = 32;
        options.correlation = rho;
        options.meanScale = 0.0;
        options.envelopeDepth = 0.0;
        Rng rng(9);
        const auto frames = generateSpeechFrames(200, options, rng);
        double total = 0;
        std::size_t count = 0;
        for (std::size_t t = 1; t < frames.size(); ++t)
            for (std::size_t d = 0; d < 32; ++d) {
                total += std::fabs(frames[t][d] - frames[t - 1][d]);
                ++count;
            }
        return total / static_cast<double>(count);
    };
    EXPECT_LT(mean_step(0.98), mean_step(0.6));
}

TEST(SpeechGenTest, MeanScaleShiftsOperatingPoints)
{
    SpeechGenOptions with_mean;
    with_mean.dim = 16;
    with_mean.meanScale = 2.0;
    Rng rng(11);
    const auto frames = generateSpeechFrames(100, with_mean, rng);
    // Per-dim averages should be spread away from zero.
    double spread = 0;
    for (std::size_t d = 0; d < 16; ++d) {
        double m = 0;
        for (const auto &frame : frames)
            m += frame[d];
        spread += std::fabs(m / static_cast<double>(frames.size()));
    }
    EXPECT_GT(spread / 16.0, 0.5);
}

TEST(MarkovTokensTest, RespectsVocabAndBias)
{
    Rng rng(13);
    const auto tokens = generateMarkovTokens(2000, 10, 0.7, rng);
    std::size_t repeats = 0;
    for (std::size_t t = 0; t < tokens.size(); ++t) {
        EXPECT_GE(tokens[t], 0);
        EXPECT_LT(tokens[t], 10);
        if (t > 0 && tokens[t] == tokens[t - 1])
            ++repeats;
    }
    // Self-bias 0.7 plus 1/10 chance of re-drawing the same token.
    const double repeat_rate =
        static_cast<double>(repeats) / static_cast<double>(tokens.size());
    EXPECT_NEAR(repeat_rate, 0.7 + 0.3 * 0.1, 0.05);
}

TEST(TokenEmbedderTest, EmbedsDeterministically)
{
    Rng rng(15);
    TokenEmbedder embedder(8, 6, rng);
    EXPECT_EQ(embedder.vocab(), 8u);
    EXPECT_EQ(embedder.dim(), 6u);
    const auto a = embedder.embed(3);
    const auto b = embedder.embed(3);
    for (std::size_t d = 0; d < 6; ++d)
        EXPECT_FLOAT_EQ(a[d], b[d]);
    const metrics::TokenSeq tokens = {0, 3, 7};
    const auto seq = embedder.embedSequence(tokens);
    EXPECT_EQ(seq.size(), 3u);
    EXPECT_EQ(seq[0].size(), 6u);
}

TEST(TokenEmbedderTest, SharedMeanRaisesRowSimilarity)
{
    Rng rng1(17), rng2(17);
    TokenEmbedder flat(16, 32, rng1, 0.0);
    TokenEmbedder shifted(16, 32, rng2, 3.0);
    auto mean_dot = [](const TokenEmbedder &e) {
        double total = 0;
        int pairs = 0;
        for (std::int32_t a = 0; a < 8; ++a)
            for (std::int32_t b = a + 1; b < 8; ++b) {
                double dot = 0, na = 0, nb = 0;
                for (std::size_t d = 0; d < e.dim(); ++d) {
                    dot += e.embed(a)[d] * e.embed(b)[d];
                    na += e.embed(a)[d] * e.embed(a)[d];
                    nb += e.embed(b)[d] * e.embed(b)[d];
                }
                total += dot / std::sqrt(na * nb);
                ++pairs;
            }
        return total / pairs;
    };
    EXPECT_GT(mean_dot(shifted), mean_dot(flat) + 0.3);
}

// --------------------------------------------------------------- tasks

TEST(SentimentTaskTest, LabelsAreBalancedAndConsistent)
{
    SentimentTaskOptions options;
    SentimentTask task(options, 77);
    Rng rng(78);
    const auto examples = task.sample(400, rng);
    ASSERT_EQ(examples.size(), 400u);
    std::size_t positive = 0;
    for (const auto &example : examples) {
        EXPECT_EQ(example.inputs.size(), options.steps);
        EXPECT_EQ(example.inputs[0].size(), options.embedDim);
        EXPECT_LE(example.label, 1u);
        positive += example.label;
    }
    EXPECT_GT(positive, 120u);
    EXPECT_LT(positive, 280u);
}

TEST(LongMemoryTaskTest, MarkerOnlyAtStepZeroAndLabelsBalanced)
{
    LongMemoryTaskOptions options;
    options.steps = 12;
    LongMemoryTask task(options, 81);
    Rng rng(82);
    const auto examples = task.sample(300, rng);
    ASSERT_EQ(examples.size(), 300u);
    std::size_t class_one = 0;
    for (const auto &example : examples) {
        EXPECT_EQ(example.inputs.size(), options.steps);
        EXPECT_EQ(example.inputs[0].size(), options.embedDim);
        EXPECT_LT(example.label, options.classes);
        class_one += example.label;
        // The marker embedding at step 0 determines the label; every
        // later step embeds a filler token, so no two examples with
        // different labels may share their step-0 embedding.
        const auto marker =
            task.embedder().embed(static_cast<std::int32_t>(
                example.label + 1));
        for (std::size_t d = 0; d < options.embedDim; ++d)
            EXPECT_FLOAT_EQ(example.inputs[0][d], marker[d]);
    }
    EXPECT_GT(class_one, 100u);
    EXPECT_LT(class_one, 200u);
}

// --------------------------------------------- trained registry cells

/** Train @p config on @p train_set and return test-set accuracy. */
double
trainAndScore(nn::RnnConfig config,
              const std::vector<nn::train::LabeledSequence> &train_set,
              const std::vector<nn::train::LabeledSequence> &test_set,
              std::size_t classes, int epochs, std::uint64_t seed)
{
    nn::RnnNetwork network(config);
    Rng rng(seed);
    nn::initNetwork(network, rng);
    nn::train::SoftmaxHead head(config.outputSize(), classes, rng);
    nn::train::TrainConfig tc;
    tc.adam.lr = 1e-2;
    nn::train::BpttTrainer trainer(network, head, tc);

    const std::size_t batch = 32;
    for (int epoch = 0; epoch < epochs; ++epoch) {
        for (std::size_t i = 0; i + batch <= train_set.size();
             i += batch) {
            trainer.trainBatch(
                std::span<const nn::train::LabeledSequence>(
                    train_set.data() + i, batch));
        }
    }
    nn::DirectBatchEvaluator direct;
    return trainer.evaluateAccuracy(test_set, direct);
}

TEST(TrainedCellsTest, RateRnnLearnsSentimentCounting)
{
    // Marker counting is leaky integration — the rate cell's native
    // mode — so the accuracy floor matches the LSTM's in
    // nn_train_test.cc.
    SentimentTaskOptions task_options;
    task_options.steps = 16;
    SentimentTask task(task_options, 91);
    Rng data_rng(92);
    const auto train_set = task.sample(256, data_rng);
    const auto test_set = task.sample(128, data_rng);

    nn::RnnConfig config;
    config.cellType = nn::CellType::RateRnn;
    config.inputSize = task_options.embedDim;
    config.hiddenSize = 16;
    config.layers = 1;
    config.bidirectional = false;
    config.peepholes = false;
    const double accuracy = trainAndScore(config, train_set, test_set,
                                          2, 6, 93);
    EXPECT_GT(accuracy, 0.85);
}

TEST(TrainedCellsTest, BrcLearnsLongMemoryRecall)
{
    // Copy-first-input: the class marker at step 0 must survive 19
    // filler steps — the bistable cell's headline capability.
    LongMemoryTaskOptions task_options;
    task_options.steps = 20;
    LongMemoryTask task(task_options, 94);
    Rng data_rng(95);
    const auto train_set = task.sample(256, data_rng);
    const auto test_set = task.sample(128, data_rng);

    nn::RnnConfig config;
    config.cellType = nn::CellType::Brc;
    config.inputSize = task_options.embedDim;
    config.hiddenSize = 16;
    config.layers = 1;
    config.bidirectional = false;
    config.peepholes = false;
    const double accuracy = trainAndScore(config, train_set, test_set,
                                          task_options.classes, 6, 96);
    EXPECT_GT(accuracy, 0.9); // chance is 0.5
}

// ------------------------------------------------------------ the zoo

TEST(ModelZooTest, HasTheFourTable1Networks)
{
    const auto &specs = table1Networks();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].name, "IMDB");
    EXPECT_EQ(specs[1].name, "DeepSpeech2");
    EXPECT_EQ(specs[2].name, "EESEN");
    EXPECT_EQ(specs[3].name, "MNMT");
}

TEST(ModelZooTest, Table1Topologies)
{
    const auto &imdb = specByName("IMDB");
    EXPECT_EQ(imdb.rnn.cellType, nn::CellType::Lstm);
    EXPECT_EQ(imdb.rnn.layers, 1u);
    EXPECT_EQ(imdb.rnn.hiddenSize, 128u);
    EXPECT_FALSE(imdb.rnn.bidirectional);
    EXPECT_DOUBLE_EQ(imdb.paperBaseAccuracy, 86.5);
    EXPECT_DOUBLE_EQ(imdb.paperReuseAt1pct, 36.2);

    const auto &ds2 = specByName("DeepSpeech2");
    EXPECT_EQ(ds2.rnn.cellType, nn::CellType::Gru);
    EXPECT_EQ(ds2.rnn.layers, 5u);
    EXPECT_EQ(ds2.rnn.hiddenSize, 800u);

    const auto &eesen = specByName("EESEN");
    EXPECT_TRUE(eesen.rnn.bidirectional);
    // "10 layers" in Table 1 = 5 stacks x 2 directions.
    EXPECT_EQ(eesen.rnn.layers * eesen.rnn.directions(), 10u);
    EXPECT_EQ(eesen.rnn.hiddenSize, 320u);

    const auto &mnmt = specByName("MNMT");
    EXPECT_EQ(mnmt.rnn.layers, 8u);
    EXPECT_EQ(mnmt.rnn.hiddenSize, 1024u);
    EXPECT_EQ(mnmt.task, TaskKind::TranslationBleu);
}

TEST(ModelZooTest, ExtendedNetworksJoinTheRegistry)
{
    const auto &extended = extendedNetworks();
    ASSERT_EQ(extended.size(), 2u);
    EXPECT_EQ(extended[0].name, "RateRNN");
    EXPECT_EQ(extended[1].name, "BRC");
    // Table 1 stays untouched; allNetworks appends the additions.
    const auto &all = allNetworks();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[3].name, "MNMT");
    EXPECT_EQ(all[4].name, "RateRNN");
    EXPECT_EQ(all[5].name, "BRC");

    const auto &rate = specByName("RateRNN");
    EXPECT_EQ(rate.rnn.cellType, nn::CellType::RateRnn);
    EXPECT_EQ(rate.rnn.hiddenSize, 256u);
    EXPECT_EQ(rate.rnn.layers, 2u);
    EXPECT_EQ(rate.task, TaskKind::SpeechWer);
    EXPECT_DOUBLE_EQ(rate.thetaMax, 0.8);

    const auto &brc = specByName("BRC");
    EXPECT_EQ(brc.rnn.cellType, nn::CellType::Brc);
    EXPECT_EQ(brc.rnn.hiddenSize, 128u);
    EXPECT_EQ(brc.task, TaskKind::SentimentAccuracy);
    EXPECT_DOUBLE_EQ(brc.thetaMax, 0.8);
}

TEST(ModelZooTest, BuildsExtendedWorkloads)
{
    // Shrink for speed; exercises the full build path (decode head,
    // input splits, and for BRC the sentiment margin filter) on the
    // registry-era cells.
    NetworkSpec rate = specByName("RateRNN");
    rate.rnn.hiddenSize = 24;
    const auto rate_workload = buildWorkload(rate, /*steps=*/10,
                                             /*sequences=*/2);
    EXPECT_EQ(rate_workload->testInputs.size(), 2u);
    EXPECT_EQ(rate_workload->decodeHead.cols(), rate.rnn.outputSize());

    NetworkSpec brc = specByName("BRC");
    brc.rnn.hiddenSize = 24;
    const auto brc_workload = buildWorkload(brc, /*steps=*/10,
                                            /*sequences=*/4);
    EXPECT_EQ(brc_workload->testInputs.size(), 4u);
    EXPECT_EQ(brc_workload->decodeHead.rows(), 2u);
}

TEST(ModelZooTest, BuildWorkloadShapes)
{
    const auto &spec = specByName("IMDB");
    const auto workload = buildWorkload(spec, /*steps=*/12,
                                        /*sequences=*/6);
    EXPECT_EQ(workload->network->config().hiddenSize, 128u);
    // Sentiment corpora are margin-filtered down to the requested count.
    EXPECT_EQ(workload->tuneInputs.size(), 6u);
    EXPECT_EQ(workload->testInputs.size(), 6u);
    EXPECT_EQ(workload->tuneInputs[0].size(), 12u);
    EXPECT_EQ(workload->decodeHead.rows(), spec.decodeVocab);
    EXPECT_EQ(workload->decodeHead.cols(), spec.rnn.outputSize());
}

TEST(ModelZooTest, BuildIsDeterministic)
{
    const auto &spec = specByName("IMDB");
    const auto a = buildWorkload(spec, 10, 4);
    const auto b = buildWorkload(spec, 10, 4);
    EXPECT_EQ(a->network->gateParams(0).wx.at(3, 5),
              b->network->gateParams(0).wx.at(3, 5));
    EXPECT_FLOAT_EQ(a->tuneInputs[1][2][3], b->tuneInputs[1][2][3]);
}

// ---------------------------------------------------------- evaluators

/** Small custom speech spec so evaluator tests stay fast. */
NetworkSpec
tinySpeechSpec()
{
    NetworkSpec spec = specByName("EESEN");
    spec.rnn.hiddenSize = 24;
    spec.rnn.layers = 2;
    spec.rnn.inputSize = 16;
    spec.defaultSteps = 20;
    spec.defaultSequences = 2;
    return spec;
}

TEST(EvaluatorTest, OracleThetaZeroHasZeroLoss)
{
    auto workload = buildWorkload(tinySpeechSpec());
    WorkloadEvaluator evaluator(*workload);
    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Oracle;
    options.theta = 0.0;
    const EvalResult result = evaluator.evaluate(options, Split::Tune);
    EXPECT_DOUBLE_EQ(result.lossPercent, 0.0);
    EXPECT_DOUBLE_EQ(result.reuse, 0.0);
}

TEST(EvaluatorTest, ReuseGrowsWithThetaOnTestSplit)
{
    auto workload = buildWorkload(tinySpeechSpec());
    WorkloadEvaluator evaluator(*workload);
    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Oracle;
    double last = -1;
    for (double theta : {0.0, 0.1, 0.4}) {
        options.theta = theta;
        const EvalResult result =
            evaluator.evaluate(options, Split::Test);
        EXPECT_GE(result.reuse + 1e-12, last);
        last = result.reuse;
    }
}

TEST(EvaluatorTest, TraceShapeMatchesWorkload)
{
    auto workload = buildWorkload(tinySpeechSpec());
    WorkloadEvaluator evaluator(*workload);
    memo::MemoOptions options;
    options.theta = 0.1;
    options.recordTrace = true;
    const EvalRun run = evaluator.evaluateWithTrace(options, Split::Tune);
    ASSERT_EQ(run.traces.size(), workload->tuneInputs.size());
    for (const auto &trace : run.traces) {
        EXPECT_EQ(trace.gates.size(),
                  workload->network->gateInstances().size());
        EXPECT_EQ(trace.steps(), workload->tuneInputs[0].size());
    }
}

TEST(EvaluatorTest, TuneExperimentMatchesDirectEvaluate)
{
    auto workload = buildWorkload(tinySpeechSpec());
    WorkloadEvaluator evaluator(*workload);
    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    auto experiment = evaluator.tuneExperiment(options, Split::Tune);
    const memo::TunePoint point = experiment(0.2);
    options.theta = 0.2;
    const EvalResult direct = evaluator.evaluate(options, Split::Tune);
    EXPECT_DOUBLE_EQ(point.reuse, direct.reuse);
    EXPECT_DOUBLE_EQ(point.accuracyLoss, direct.lossPercent);
}

TEST(EvaluatorTest, BaselineDecodesAreCachedAndStable)
{
    auto workload = buildWorkload(tinySpeechSpec());
    WorkloadEvaluator evaluator(*workload);
    const auto &first = evaluator.baselineDecodes(Split::Tune);
    const auto copy = first;
    const auto &second = evaluator.baselineDecodes(Split::Tune);
    EXPECT_EQ(copy, second);
}

} // namespace
} // namespace nlfm::workloads
