/**
 * @file
 * Sentiment scenario with *real training*: train a small LSTM
 * classifier with BPTT on the synthetic polarity task, then measure
 * genuine task-accuracy loss (not baseline drift) under fuzzy
 * memoization — the IMDB-style experiment of Table 1.
 */

#include <cstdio>

#include "memo/memo_engine.hh"
#include "nn/init.hh"
#include "nn/train.hh"
#include "workloads/tasks.hh"

using namespace nlfm;
using nn::train::LabeledSequence;

int
main()
{
    // Task: does a sequence contain more positive or negative markers?
    workloads::SentimentTaskOptions task_options;
    task_options.steps = 24;
    workloads::SentimentTask task(task_options, 2024);

    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = task_options.embedDim;
    config.hiddenSize = 32;
    config.layers = 1;
    config.peepholes = false; // the trainer does not model peepholes

    nn::RnnNetwork network(config);
    Rng rng(7);
    nn::initNetwork(network, rng);
    nn::train::SoftmaxHead head(config.outputSize(), 2, rng);
    nn::train::TrainConfig train_config;
    train_config.adam.lr = 1e-2;
    nn::train::BpttTrainer trainer(network, head, train_config);

    Rng data_rng(8);
    const auto train_set = task.sample(512, data_rng);
    const auto test_set = task.sample(256, data_rng);

    std::printf("training a %s classifier (%zu parameters)...\n",
                config.describe().c_str(),
                trainer.parameters().totalParameters());

    const std::size_t batch = 32;
    for (int epoch = 0; epoch < 8; ++epoch) {
        double loss = 0;
        std::size_t batches = 0;
        for (std::size_t i = 0; i + batch <= train_set.size();
             i += batch) {
            loss += trainer.trainBatch(std::span<const LabeledSequence>(
                train_set.data() + i, batch));
            ++batches;
        }
        nn::DirectBatchEvaluator direct;
        std::printf("epoch %d: loss %.3f, test accuracy %.1f%%\n",
                    epoch, loss / static_cast<double>(batches),
                    100.0 * trainer.evaluateAccuracy(test_set, direct));
    }

    // The binarized mirror must be refreshed after training.
    nn::BinarizedNetwork bnn(network);

    nn::DirectBatchEvaluator direct;
    const double base_accuracy =
        trainer.evaluateAccuracy(test_set, direct);
    std::printf("\ntrained accuracy: %.1f%%\n", 100.0 * base_accuracy);
    std::printf("\n%8s  %10s  %14s  %14s\n", "theta", "reuse(%)",
                "accuracy(%)", "true loss(pts)");
    for (double theta : {0.0, 0.1, 0.25, 0.5, 1.0}) {
        memo::MemoOptions options;
        options.predictor = memo::PredictorKind::Bnn;
        options.theta = theta;
        memo::MemoEngine engine(network, &bnn, options);
        const double accuracy =
            trainer.evaluateAccuracy(test_set, engine);
        std::printf("%8.2f  %10.1f  %14.1f  %14.1f\n", theta,
                    100.0 * engine.stats().reuseFraction(),
                    100.0 * accuracy,
                    100.0 * (base_accuracy - accuracy));
    }
    std::printf("\nThis is genuine task accuracy from a trained model — "
                "the error-tolerance property the paper exploits.\n");
    return 0;
}
