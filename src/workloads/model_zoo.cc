#include "workloads/model_zoo.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "nn/init.hh"

namespace nlfm::workloads
{

const std::vector<NetworkSpec> &
table1Networks()
{
    static const std::vector<NetworkSpec> specs = [] {
        std::vector<NetworkSpec> out;

        {
            NetworkSpec spec;
            spec.name = "IMDB";
            spec.domain = "Sentiment Classification";
            spec.dataset = "IMDB dataset (synthetic token substitute)";
            spec.rnn.cellType = nn::CellType::Lstm;
            spec.rnn.inputSize = 64;
            spec.rnn.hiddenSize = 128;
            spec.rnn.layers = 1;
            spec.rnn.bidirectional = false;
            spec.rnn.peepholes = true;
            spec.task = TaskKind::SentimentAccuracy;
            spec.paperAccuracyMetric = "Accuracy (%)";
            spec.paperBaseAccuracy = 86.5;
            spec.paperReuseAt1pct = 36.2;
            spec.thetaMax = 1.0;
            spec.defaultSteps = 100;
            spec.defaultSequences = 100;
            spec.decodeVocab = 2;
            spec.inputSmoothness = 0.5; // token self-bias
            spec.initGain = 0.6;
            spec.forgetBias = 1.5;
            spec.weightDispersion = 0.3;
            spec.decodeSmoothWindow = 0; // mean-pooled head instead
            spec.seed = 11;
            out.push_back(spec);
        }
        {
            NetworkSpec spec;
            spec.name = "DeepSpeech2";
            spec.domain = "Speech Recognition";
            spec.dataset = "LibriSpeech (synthetic AR-frame substitute)";
            spec.rnn.cellType = nn::CellType::Gru;
            spec.rnn.inputSize = 161;
            spec.rnn.hiddenSize = 800;
            spec.rnn.layers = 5;
            spec.rnn.bidirectional = false;
            spec.rnn.peepholes = false;
            spec.task = TaskKind::SpeechWer;
            spec.paperAccuracyMetric = "WER";
            spec.paperBaseAccuracy = 10.24;
            spec.paperReuseAt1pct = 16.4;
            spec.thetaMax = 0.6;
            spec.defaultSteps = 80;
            spec.defaultSequences = 4;
            spec.decodeVocab = 30;
            spec.inputSmoothness = 0.95; // AR(1) rho
            spec.initGain = 0.5;
            spec.weightDispersion = 0.25;
            spec.decodeSmoothWindow = 3;
            spec.seed = 12;
            out.push_back(spec);
        }
        {
            NetworkSpec spec;
            spec.name = "EESEN";
            spec.domain = "Speech Recognition";
            spec.dataset = "Tedlium V1 (synthetic AR-frame substitute)";
            spec.rnn.cellType = nn::CellType::Lstm;
            spec.rnn.inputSize = 120;
            spec.rnn.hiddenSize = 320;
            // Table 1 lists 10 layers for the bidirectional EESEN:
            // 5 stacked layers x 2 directions.
            spec.rnn.layers = 5;
            spec.rnn.bidirectional = true;
            spec.rnn.peepholes = true;
            spec.task = TaskKind::SpeechWer;
            spec.paperAccuracyMetric = "WER";
            spec.paperBaseAccuracy = 23.8;
            spec.paperReuseAt1pct = 30.5;
            spec.thetaMax = 0.6;
            spec.defaultSteps = 80;
            spec.defaultSequences = 6;
            spec.decodeVocab = 30;
            spec.inputSmoothness = 0.95;
            spec.initGain = 0.5;
            spec.forgetBias = 2.0;
            spec.weightDispersion = 0.25;
            spec.decodeSmoothWindow = 3;
            spec.seed = 13;
            out.push_back(spec);
        }
        {
            NetworkSpec spec;
            spec.name = "MNMT";
            spec.domain = "Machine Translation";
            spec.dataset = "WMT'15 En->De (synthetic token substitute)";
            spec.rnn.cellType = nn::CellType::Lstm;
            spec.rnn.inputSize = 512;
            spec.rnn.hiddenSize = 1024;
            spec.rnn.layers = 8;
            spec.rnn.bidirectional = false;
            spec.rnn.peepholes = true;
            spec.task = TaskKind::TranslationBleu;
            spec.paperAccuracyMetric = "BLEU";
            spec.paperBaseAccuracy = 29.8;
            spec.paperReuseAt1pct = 19.0;
            spec.thetaMax = 0.8;
            spec.defaultSteps = 40;
            spec.defaultSequences = 4;
            spec.decodeVocab = 50;
            spec.inputSmoothness = 0.45; // token self-bias
            spec.initGain = 0.5;
            spec.embedMeanScale = 0.3;
            spec.forgetBias = 1.5;
            spec.weightDispersion = 0.25;
            spec.decodeSmoothWindow = 2;
            spec.seed = 14;
            out.push_back(spec);
        }
        return out;
    }();
    return specs;
}

const std::vector<NetworkSpec> &
extendedNetworks()
{
    static const std::vector<NetworkSpec> specs = [] {
        std::vector<NetworkSpec> out;

        {
            // A leaky-integrator rate network on the speech workload:
            // the per-neuron time-constant grid gives every layer a
            // spread of smoothing scales, the regime where temporal
            // output locality (and hence fuzzy memoization) is
            // strongest.
            NetworkSpec spec;
            spec.name = "RateRNN";
            spec.domain = "Speech Recognition";
            spec.dataset = "Synthetic AR frames (registry-era cell)";
            spec.rnn.cellType = nn::CellType::RateRnn;
            spec.rnn.inputSize = 64;
            spec.rnn.hiddenSize = 256;
            spec.rnn.layers = 2;
            spec.rnn.bidirectional = false;
            spec.rnn.peepholes = false;
            spec.task = TaskKind::SpeechWer;
            spec.paperAccuracyMetric = "WER";
            spec.thetaMax = 0.8;
            spec.defaultSteps = 80;
            spec.defaultSequences = 4;
            spec.decodeVocab = 30;
            spec.inputSmoothness = 0.95; // AR(1) rho
            spec.initGain = 0.5;
            spec.weightDispersion = 0.25;
            spec.decodeSmoothWindow = 3;
            spec.seed = 15;
            out.push_back(spec);
        }
        {
            // The bistable cell on the sentiment workload, mirroring
            // IMDB's topology so LSTM-vs-BRC reuse curves compare like
            // for like.
            NetworkSpec spec;
            spec.name = "BRC";
            spec.domain = "Sentiment Classification";
            spec.dataset = "Synthetic tokens (registry-era cell)";
            spec.rnn.cellType = nn::CellType::Brc;
            spec.rnn.inputSize = 64;
            spec.rnn.hiddenSize = 128;
            spec.rnn.layers = 1;
            spec.rnn.bidirectional = false;
            spec.rnn.peepholes = false;
            spec.task = TaskKind::SentimentAccuracy;
            spec.paperAccuracyMetric = "Accuracy (%)";
            spec.thetaMax = 0.8;
            spec.defaultSteps = 100;
            spec.defaultSequences = 100;
            spec.decodeVocab = 2;
            spec.inputSmoothness = 0.5; // token self-bias
            spec.initGain = 0.6;
            spec.forgetBias = 1.0; // BRC update-gate bias
            spec.weightDispersion = 0.3;
            spec.decodeSmoothWindow = 0; // mean-pooled head instead
            spec.seed = 16;
            out.push_back(spec);
        }
        return out;
    }();
    return specs;
}

const std::vector<NetworkSpec> &
allNetworks()
{
    static const std::vector<NetworkSpec> specs = [] {
        std::vector<NetworkSpec> out = table1Networks();
        const auto &extended = extendedNetworks();
        out.insert(out.end(), extended.begin(), extended.end());
        return out;
    }();
    return specs;
}

const NetworkSpec &
specByName(const std::string &name)
{
    for (const auto &spec : allNetworks()) {
        if (spec.name == name)
            return spec;
    }
    nlfm_fatal("unknown network spec: ", name,
               " (known: IMDB, DeepSpeech2, EESEN, MNMT, RateRNN, BRC)");
}

std::unique_ptr<Workload>
buildWorkload(const NetworkSpec &spec, std::size_t steps,
              std::size_t sequences)
{
    auto workload = std::make_unique<Workload>();
    workload->spec = spec;
    if (steps == 0)
        steps = spec.defaultSteps;
    if (sequences == 0)
        sequences = spec.defaultSequences;

    Rng rng(spec.seed * 0x9e3779b97f4a7c15ull + 1);
    workload->network = std::make_unique<nn::RnnNetwork>(spec.rnn);
    nn::InitOptions init;
    init.gain = spec.initGain;
    init.forgetBias = spec.forgetBias;
    init.magnitudeDispersion = spec.weightDispersion;
    nn::initNetwork(*workload->network, rng, init);
    workload->bnn =
        std::make_unique<nn::BinarizedNetwork>(*workload->network);

    // Decode head: fixed random projection over the top layer output.
    Rng head_rng = rng.fork(101);
    workload->decodeHead =
        tensor::Matrix(spec.decodeVocab, spec.rnn.outputSize());
    const double head_scale =
        1.0 / std::sqrt(static_cast<double>(spec.rnn.outputSize()));
    for (auto &value : workload->decodeHead.data())
        value = static_cast<float>(head_rng.normal(0.0, head_scale));

    // Shared embedding table for the token-stream tasks.
    std::unique_ptr<TokenEmbedder> embedder;
    const std::size_t token_vocab = 64;
    if (spec.task != TaskKind::SpeechWer) {
        Rng embed_rng(spec.seed * 7919 + 17);
        embedder = std::make_unique<TokenEmbedder>(
            token_vocab, spec.rnn.inputSize, embed_rng,
            spec.embedMeanScale);
    }

    // Input splits.
    auto make_inputs = [&](std::uint64_t split_tag) {
        std::vector<nn::Sequence> inputs;
        Rng split_rng = rng.fork(split_tag);
        for (std::size_t s = 0; s < sequences; ++s) {
            Rng seq_rng = split_rng.fork(s);
            switch (spec.task) {
              case TaskKind::SpeechWer: {
                SpeechGenOptions options;
                options.dim = spec.rnn.inputSize;
                options.correlation = spec.inputSmoothness;
                inputs.push_back(
                    generateSpeechFrames(steps, options, seq_rng));
                break;
              }
              case TaskKind::TranslationBleu:
              case TaskKind::SentimentAccuracy: {
                const auto tokens = generateMarkovTokens(
                    steps, token_vocab, spec.inputSmoothness, seq_rng);
                inputs.push_back(embedder->embedSequence(tokens));
                break;
              }
            }
        }
        return inputs;
    };
    workload->tuneInputs = make_inputs(1001);
    workload->testInputs = make_inputs(2002);

    // Sentiment corpora: keep the confidently-classified half of an
    // oversampled pool. A trained classifier at Table 1's 86.5 %
    // accuracy decides most examples with real margin; random sequences
    // through a random head include a borderline population (pooled
    // logit margin ~ 0) no trained-model test set exhibits, and their
    // coin-flip decisions would dominate the drift metric.
    if (spec.task == TaskKind::SentimentAccuracy) {
        auto filter_by_margin = [&](std::vector<nn::Sequence> &split,
                                    std::uint64_t tag) {
            std::vector<nn::Sequence> pool = std::move(split);
            auto extra = make_inputs(tag);
            pool.insert(pool.end(),
                        std::make_move_iterator(extra.begin()),
                        std::make_move_iterator(extra.end()));
            std::vector<std::pair<double, std::size_t>> margins;
            nn::DirectBatchEvaluator direct;
            for (std::size_t i = 0; i < pool.size(); ++i) {
                const nn::Sequence outputs =
                    workload->network->forward(pool[i], direct);
                std::vector<float> pooled(spec.decodeVocab, 0.f);
                std::vector<float> step(spec.decodeVocab, 0.f);
                for (const auto &h : outputs) {
                    workload->decodeHead.matvec(h, step);
                    for (std::size_t k = 0; k < pooled.size(); ++k)
                        pooled[k] += step[k];
                }
                // Binary head: margin = |logit0 - logit1|.
                margins.emplace_back(
                    -std::fabs(pooled[0] - pooled[1]), i);
            }
            std::sort(margins.begin(), margins.end());
            split.clear();
            for (std::size_t r = 0; r < pool.size() / 2; ++r)
                split.push_back(std::move(pool[margins[r].second]));
        };
        filter_by_margin(workload->tuneInputs, 3003);
        filter_by_margin(workload->testInputs, 4004);
    }
    return workload;
}

} // namespace nlfm::workloads
