/// @file
/// Timing decorator at the nn::BatchGateEvaluator seam.
///
/// TimedEvaluator forwards every call to the evaluator it wraps
/// (DirectBatchEvaluator or memo::BatchMemoEngine) and records one span
/// per evaluateGateBatch: the gate's network layer, the repetition id
/// the caller set, the call's start and duration, the neuron-steps it
/// covered, and -- when the wrapped engine feeds a memo::GatePhaseTimes
/// sink -- the probe/decide/commit nanoseconds the call added to it.
/// Spans stay in memory; the caller aggregates them and writes them out
/// at exit.
///
/// Only traced runs use the decorator. Phase deltas are exact when
/// calls do not overlap, so traced closed-batch passes run their chunks
/// on the calling thread (BatchForwardOptions::threaded = false), which
/// produces identical outputs.

#ifndef NLFM_PERFBENCH_TIMED_EVALUATOR_HH
#define NLFM_PERFBENCH_TIMED_EVALUATOR_HH

#include <cstdio>
#include <mutex>
#include <vector>

#include "harness.hh"
#include "memo/memo_batch.hh"

namespace nlfm::perfbench
{

/// One evaluateGateBatch call.
struct GateSpan
{
    std::uint32_t layer = 0;
    std::uint32_t rep = 0;
    std::int64_t startNs = 0;
    std::int64_t durNs = 0;
    std::uint64_t neuronSteps = 0;
    std::uint64_t probeNs = 0;
    std::uint64_t decideNs = 0;
    std::uint64_t commitNs = 0;
};

class TimedEvaluator : public nn::BatchGateEvaluator
{
  public:
    /// @param inner  evaluator every call is forwarded to
    /// @param phases sink @p inner reports phase times to, or null
    TimedEvaluator(nn::BatchGateEvaluator &inner,
                   const memo::GatePhaseTimes *phases);

    /// Tag the spans of subsequent calls.
    void setRep(std::uint32_t rep) { rep_ = rep; }

    void beginBatch(std::size_t total_sequences) override
    {
        inner_.beginBatch(total_sequences);
    }

    void evaluateGateBatch(const nn::GateInstance &instance,
                           const nn::GateParams &params,
                           const tensor::Matrix &x, const tensor::Matrix &h,
                           std::span<const std::size_t> rows,
                           std::size_t slot_base,
                           tensor::Matrix &preact) override;

    const std::vector<GateSpan> &spans() const { return spans_; }

    /// Append the spans as CSV rows tagged with @p kind.
    void writeCsv(std::FILE *out, const char *kind) const;

  private:
    nn::BatchGateEvaluator &inner_;
    const memo::GatePhaseTimes *phases_;
    Clock::time_point epoch_ = Clock::now();
    std::uint32_t rep_ = 0;
    std::mutex mutex_; ///< guards spans_
    std::vector<GateSpan> spans_;
};

} // namespace nlfm::perfbench

#endif // NLFM_PERFBENCH_TIMED_EVALUATOR_HH
