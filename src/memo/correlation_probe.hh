/**
 * @file
 * Analysis probe behind the paper's motivation studies.
 *
 * CorrelationProbe is an evaluator that computes every neuron exactly
 * (it never perturbs the network) while recording, per sequence slot:
 *
 *  - the relative change of each neuron's output between consecutive
 *    timesteps (Fig. 5's CDF, and the "23% average change" claim),
 *  - the per-neuron Pearson correlation between full-precision and BNN
 *    outputs (Fig. 8's histogram),
 *  - a deterministic subsample of (full-precision, BNN) output pairs and
 *    the overall correlation factor (Fig. 7's scatter, R = 0.96 for
 *    EESEN).
 */

#ifndef NLFM_MEMO_CORRELATION_PROBE_HH
#define NLFM_MEMO_CORRELATION_PROBE_HH

#include <mutex>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "nn/batch_evaluator.hh"
#include "nn/binarized.hh"

namespace nlfm::memo
{

/** Probe configuration. */
struct ProbeOptions
{
    /** Keep one scatter sample stream per this many flat neurons. */
    std::size_t scatterStride = 173;
    /** Cap on collected scatter samples. */
    std::size_t maxScatterSamples = 4000;
    /** Histogram bins for the relative-change distribution. */
    std::size_t deltaBins = 400;
    /** Relative changes are clamped to this ceiling before recording. */
    double deltaCeiling = 2.0;
};

/**
 * Exact evaluator with measurement side-channels. The measurements add
 * up over every batch (or forward call) until the probe is destroyed;
 * beginBatch only forgets each slot's previous outputs. Gate calls of
 * concurrent chunks take turns.
 */
class CorrelationProbe : public nn::BatchGateEvaluator
{
  public:
    CorrelationProbe(const nn::RnnNetwork &network,
                     nn::BinarizedNetwork *bnn,
                     const ProbeOptions &options = {});

    void beginBatch(std::size_t total_sequences) override;

    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override;

    /**
     * Per-neuron BNN/RNN correlation factors (neurons with fewer than
     * two observations are skipped).
     */
    std::vector<double> neuronCorrelations() const;

    /** Correlation over all (y, yb) pairs pooled together. */
    double overallCorrelation() const;

    /** Distribution of consecutive-timestep relative output changes. */
    const Histogram &deltaHistogram() const { return deltaHistogram_; }

    /** Clamped-mean/min/max of the relative output changes. */
    const RunningStats &deltaStats() const { return deltaStats_; }

    /** Fraction of consecutive-output events changing less than @p x. */
    double fractionBelow(double x) const;

    /** Subsampled (full-precision, BNN) output pairs. */
    const std::vector<std::pair<float, int>> &scatter() const
    {
        return scatter_;
    }

  private:
    const nn::RnnNetwork &network_;
    nn::BinarizedNetwork *bnn_;
    ProbeOptions options_;

    std::vector<PearsonAccumulator> neuronCorr_;
    PearsonAccumulator overallCorr_;
    // Previous output per (flat neuron, slot): index flat * slots_ + slot.
    std::size_t slots_ = 0;
    std::vector<float> prevOutput_;
    std::vector<std::uint8_t> hasPrev_;

    Histogram deltaHistogram_;
    RunningStats deltaStats_;
    std::vector<std::pair<float, int>> scatter_;

    std::mutex callMutex_;
    // Binarized [x; h] of each live slot of the current call.
    std::vector<tensor::BitVector> inputs_;
    std::vector<const std::uint64_t *> inputWords_;
};

} // namespace nlfm::memo

#endif // NLFM_MEMO_CORRELATION_PROBE_HH
