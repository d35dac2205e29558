#include "workloads/evaluators.hh"

#include "common/logging.hh"
#include "metrics/accuracy.hh"
#include "metrics/bleu.hh"

namespace nlfm::workloads
{

namespace
{

/** Arg-max index of a score vector. */
std::int32_t
argmaxIndex(std::span<const float> scores)
{
    std::int32_t best = 0;
    float best_score = scores[0];
    for (std::size_t k = 1; k < scores.size(); ++k) {
        if (scores[k] > best_score) {
            best_score = scores[k];
            best = static_cast<std::int32_t>(k);
        }
    }
    return best;
}

/** Per-step logits of the whole sequence. */
std::vector<std::vector<float>>
sequenceLogits(const tensor::Matrix &head, const nn::Sequence &outputs)
{
    std::vector<std::vector<float>> logits(
        outputs.size(), std::vector<float>(head.rows()));
    for (std::size_t t = 0; t < outputs.size(); ++t)
        head.matvec(outputs[t], logits[t]);
    return logits;
}

/** Arg-max token at step @p t after +/-window moving-average smoothing. */
std::int32_t
smoothedArgmax(const std::vector<std::vector<float>> &logits,
               std::size_t t, std::size_t window)
{
    const std::size_t classes = logits.front().size();
    std::vector<float> acc(classes, 0.f);
    const std::size_t lo = t >= window ? t - window : 0;
    const std::size_t hi = std::min(logits.size() - 1, t + window);
    for (std::size_t u = lo; u <= hi; ++u)
        for (std::size_t k = 0; k < classes; ++k)
            acc[k] += logits[u][k];
    return argmaxIndex(acc);
}

} // namespace

WorkloadEvaluator::WorkloadEvaluator(Workload &workload)
    : workload_(workload)
{
    nlfm_assert(workload.network != nullptr && workload.bnn != nullptr,
                "workload not materialized");
}

const std::vector<nn::Sequence> &
WorkloadEvaluator::inputs(Split split) const
{
    return split == Split::Tune ? workload_.tuneInputs
                                : workload_.testInputs;
}

metrics::TokenSeq
WorkloadEvaluator::decodeSequence(const nn::Sequence &outputs) const
{
    const auto logits = sequenceLogits(workload_.decodeHead, outputs);
    const std::size_t window = workload_.spec.decodeSmoothWindow;

    metrics::TokenSeq decoded;
    switch (workload_.spec.task) {
      case TaskKind::SpeechWer:
      case TaskKind::TranslationBleu: {
        // Greedy frame-level decode on smoothed logits. Scoring at the
        // frame level keeps the WER granularity fine on short synthetic
        // corpora; collapseCtc() remains available for utterance-style
        // decoding (examples/tests).
        decoded.reserve(outputs.size());
        for (std::size_t t = 0; t < outputs.size(); ++t)
            decoded.push_back(smoothedArgmax(logits, t, window));
        break;
      }
      case TaskKind::SentimentAccuracy: {
        // Mean-pooled logits: the standard robust read-out for
        // classification heads.
        std::vector<float> pooled(workload_.decodeHead.rows(), 0.f);
        for (const auto &step : logits)
            for (std::size_t k = 0; k < pooled.size(); ++k)
                pooled[k] += step[k];
        decoded.push_back(argmaxIndex(pooled));
        break;
      }
    }
    return decoded;
}

double
WorkloadEvaluator::scoreLoss(
    const std::vector<metrics::TokenSeq> &reference,
    const std::vector<metrics::TokenSeq> &hypothesis) const
{
    switch (workload_.spec.task) {
      case TaskKind::SpeechWer:
        return 100.0 * metrics::corpusWordErrorRate(reference, hypothesis);
      case TaskKind::TranslationBleu:
        return 100.0 - metrics::corpusBleu(reference, hypothesis);
      case TaskKind::SentimentAccuracy: {
        nlfm_assert(reference.size() == hypothesis.size(),
                    "sentiment decode count mismatch");
        std::size_t flips = 0;
        for (std::size_t i = 0; i < reference.size(); ++i)
            flips += reference[i] != hypothesis[i] ? 1 : 0;
        return 100.0 * static_cast<double>(flips) /
               static_cast<double>(std::max<std::size_t>(1,
                                                         reference.size()));
      }
    }
    nlfm_panic("unhandled task kind");
}

std::vector<metrics::TokenSeq>
WorkloadEvaluator::decode(Split split, nn::BatchGateEvaluator &eval)
{
    const auto outputs = workload_.network->forwardBatch(inputs(split), eval);
    std::vector<metrics::TokenSeq> decodes;
    decodes.reserve(outputs.size());
    for (const auto &sequence : outputs)
        decodes.push_back(decodeSequence(sequence));
    return decodes;
}

const std::vector<metrics::TokenSeq> &
WorkloadEvaluator::baselineDecodes(Split split)
{
    const auto index = static_cast<std::size_t>(split);
    if (!baselineReady_[index]) {
        nn::DirectBatchEvaluator direct;
        baseline_[index] = decode(split, direct);
        baselineReady_[index] = true;
    }
    return baseline_[index];
}

EvalResult
WorkloadEvaluator::evaluate(const memo::MemoOptions &options, Split split)
{
    return evaluateWithTrace(options, split).result;
}

EvalRun
WorkloadEvaluator::evaluateWithTrace(const memo::MemoOptions &options,
                                     Split split)
{
    const auto &reference = baselineDecodes(split);
    memo::BatchMemoEngine engine(*workload_.network, workload_.bnn.get(),
                                 options);
    const auto hypothesis = decode(split, engine);

    EvalRun run;
    run.result.reuse = engine.stats().reuseFraction();
    run.result.lossPercent = scoreLoss(reference, hypothesis);
    run.traces = engine.traces();
    return run;
}

memo::TuneExperiment
WorkloadEvaluator::tuneExperiment(memo::MemoOptions options, Split split)
{
    return [this, options, split](double theta) {
        memo::MemoOptions local = options;
        local.theta = theta;
        const EvalResult result = evaluate(local, split);
        memo::TunePoint point;
        point.theta = theta;
        point.reuse = result.reuse;
        point.accuracyLoss = result.lossPercent;
        return point;
    };
}

} // namespace nlfm::workloads
