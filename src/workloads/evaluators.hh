/**
 * @file
 * Accuracy-loss evaluation of a memoized workload (DESIGN.md §3).
 *
 * The paper reports *absolute accuracy loss* of the memoized network
 * relative to the unmodified baseline (Table 1 base accuracy). Lacking
 * the original datasets, we score the degradation channel directly: the
 * baseline network's decoded output is the reference, and the memoized
 * network's output is scored against it —
 *
 *   SpeechWer:         corpus WER of memoized vs baseline decodes (%)
 *   TranslationBleu:   100 - corpus BLEU of memoized vs baseline (%)
 *   SentimentAccuracy: prediction flip rate (%)
 *
 * At theta = 0 every metric is exactly 0; it grows with the error the
 * memoization scheme injects, exactly like the paper's loss curves.
 */

#ifndef NLFM_WORKLOADS_EVALUATORS_HH
#define NLFM_WORKLOADS_EVALUATORS_HH

#include "memo/memo_batch.hh"
#include "memo/threshold_tuner.hh"
#include "workloads/model_zoo.hh"

namespace nlfm::workloads
{

/** Which input split to run. */
enum class Split
{
    Tune, ///< used for threshold exploration (paper §3.2.1)
    Test, ///< used to report final numbers
};

/** Outcome of one memoized run. */
struct EvalResult
{
    double reuse = 0.0;       ///< fraction of neuron evals avoided
    double lossPercent = 0.0; ///< task-specific loss vs baseline
};

/** Outcome plus the per-step traces the accelerator model consumes. */
struct EvalRun
{
    EvalResult result;
    std::vector<memo::SequenceTrace> traces;
};

/**
 * Runs a workload under a memoization configuration and scores the loss
 * against cached baseline decodes. Each run of a split is one
 * RnnNetwork::forwardBatch of all its sequences on the thread pool.
 */
class WorkloadEvaluator
{
  public:
    explicit WorkloadEvaluator(Workload &workload);

    /** Run the split with @p options; returns reuse + loss. */
    EvalResult evaluate(const memo::MemoOptions &options, Split split);

    /** Same, also returning per-step reuse traces. */
    EvalRun evaluateWithTrace(const memo::MemoOptions &options,
                              Split split);

    /** Tuner adapter: evaluate at theta on the split. */
    memo::TuneExperiment tuneExperiment(memo::MemoOptions options,
                                        Split split);

    /** Decoded baseline outputs of the split (computed once, cached). */
    const std::vector<metrics::TokenSeq> &baselineDecodes(Split split);

    /**
     * Decode the split through an arbitrary evaluator, as one batch:
     * eval.beginBatch sees the split's sequence count, and slot i is
     * sequence i.
     */
    std::vector<metrics::TokenSeq> decode(Split split,
                                          nn::BatchGateEvaluator &eval);

    const Workload &workload() const { return workload_; }

    /**
     * Decode ONE raw output sequence with the workload's canonical
     * read-out (smoothed frame argmax for speech/translation, pooled
     * argmax for sentiment). Public so serving-side callers can score
     * delivered outputs (serve::Response::output is exactly such a
     * sequence) with the same labels the tune sweeps use.
     */
    metrics::TokenSeq decodeSequence(const nn::Sequence &outputs) const;

    /**
     * Score a hypothesis decode set against a reference set with the
     * workload's canonical loss metric (corpus WER / 100-BLEU / flip
     * rate). Public for the same reason as decodeSequence(): serving
     * benches score delivered outputs with the exact metric the tune
     * sweeps calibrate against, not an ad-hoc proxy.
     */
    double scoreLoss(const std::vector<metrics::TokenSeq> &reference,
                     const std::vector<metrics::TokenSeq> &hypothesis)
        const;

  private:
    const std::vector<nn::Sequence> &inputs(Split split) const;

    Workload &workload_;
    std::vector<metrics::TokenSeq> baseline_[2];
    bool baselineReady_[2] = {false, false};
};

} // namespace nlfm::workloads

#endif // NLFM_WORKLOADS_EVALUATORS_HH
