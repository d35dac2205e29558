/// @file
/// Per-layer metrics of the traced run, one group per src/ module.
///
/// Each group has a report function that emits every metric name of the
/// group, so all workloads print the same names; a group the workload
/// does not exercise is emitted as not applicable.

#ifndef NLFM_PERFBENCH_LAYER_METRICS_HH
#define NLFM_PERFBENCH_LAYER_METRICS_HH

#include <optional>
#include <span>

#include "memo/reuse_stats.hh"
#include "serve/trace.hh"
#include "timed_evaluator.hh"

namespace nlfm::perfbench
{

/// Network layers the memo.layer{i} / nn.layer{i} metrics cover
/// (DeepSpeech2's depth; shallower models report the rest as n/a).
inline constexpr std::size_t kReportedLayers = 5;

/// Self-timed tensor kernels on the gate shapes of @p networks:
/// Matrix::matvecPanel over every gate at a 16-row panel, and
/// bnnDotPanel at 32 rows x 16 slots of the widest gate input.
void reportTensorProbe(Report &report,
                       std::span<const nn::RnnNetwork *const> networks,
                       double budget_seconds);

/// Whole-run memo phase totals and reuse.
struct MemoTotals
{
    std::uint64_t probeNs = 0;
    std::uint64_t decideNs = 0;
    std::uint64_t commitNs = 0;
    std::uint64_t neuronSteps = 0;
    std::uint64_t misses = 0;
};

/// Per-network-layer accumulation of decorated closed-batch passes.
class LayerAccumulator
{
  public:
    /// Add the spans of one decorated exact pass set.
    void addExact(const TimedEvaluator &timed);

    /// Add the spans of one decorated memoized pass set, the wall time
    /// those passes took, how many passes it was, and the engine's
    /// reuse counters over (at least) the last pass.
    void addMemo(const TimedEvaluator &timed, double wall_ms,
                 std::size_t passes, const memo::ReuseStats &stats,
                 std::span<const nn::GateInstance> instances);

    /// memo.layer{i}.*, nn.layer{i}.*, nn.cell_ms, nn.gate_calls.
    void report(Report &report) const;

    /// Memo phase totals over every memoized span, for workloads whose
    /// memo.* phase metrics come from the closed batch itself.
    MemoTotals memoTotals() const;

  private:
    struct Layer
    {
        double exactNs = 0.0;
        double exactNeuronSteps = 0.0;
        double memoNs = 0.0;
        double memoNeuronSteps = 0.0;
        double probeNs = 0.0;
        double decideNs = 0.0;
        double commitNs = 0.0;
        double reusedNeuronSteps = 0.0; ///< reuse fraction x neuron-steps
        double reuseWeight = 0.0;
    };

    Layer &layer(std::size_t index);

    std::vector<Layer> layers_;
    double memoWallMs_ = 0.0;
    double memoCalls_ = 0.0;
    std::size_t memoPasses_ = 0;
    std::size_t exactPasses_ = 0;
};

/// memo.probe_ns_per_neuron_step, memo.decide_ns_per_neuron_step,
/// memo.commit_ns_per_miss, memo.reuse_pct.
void reportMemoTotals(Report &report, const MemoTotals &totals);

/// The accounting half of one serve::Response (outputs are checked and
/// dropped as they arrive).
struct ServedRequest
{
    double queueMs = 0.0;
    double serviceMs = 0.0;
    double latencyMs = 0.0;
    std::size_t steps = 0;
    double reuseFraction = 0.0;
    bool warmResumed = false;
    std::size_t neurons = 0; ///< neuron count of the serving model

    ServedRequest() = default;
    ServedRequest(const serve::Response &response, std::size_t neurons);
};

/// What the serve.* group is computed from: the traced server's spans,
/// its responses, and the client's own enqueue timings.
struct ServeObservation
{
    std::vector<serve::TraceSpan> spans;
    std::uint64_t traceDropped = 0;
    std::vector<ServedRequest> responses;
    std::vector<double> enqueueUs;
    double windowMs = 0.0;
    std::size_t shed = 0;
    /// Responses of turns that had a previous turn (warm-resume base).
    std::size_t resumableTurns = 0;
};

/// serve.* metrics; null emits the group as not applicable.
void reportServe(Report &report, const ServeObservation *observation);

/// Memo phase totals of a traced server run: probe/decide/commit from
/// the tracer's attribution spans, neuron-steps and misses from the
/// responses.
MemoTotals memoTotalsFromTrace(const ServeObservation &observation);

} // namespace nlfm::perfbench

#endif // NLFM_PERFBENCH_LAYER_METRICS_HH
