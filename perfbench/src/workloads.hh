/// @file
/// The benchmark's workloads. Each one builds its model(s), generates
/// its inputs from the run seed, measures for the configured seconds,
/// checks every output bitwise against the library's own untimed
/// reference path, and fills the report.

#ifndef NLFM_PERFBENCH_WORKLOADS_HH
#define NLFM_PERFBENCH_WORKLOADS_HH

#include <cstdio>
#include <memory>

#include "harness.hh"
#include "layer_metrics.hh"
#include "workloads/model_zoo.hh"

namespace nlfm
{
class ThreadPool;
}

namespace nlfm::perfbench
{

/// Steps of the tune/test splits buildWorkload materializes. The
/// benchmark generates its own inputs and never reads those splits, so
/// they are built at their minimum and set-up times the model itself.
inline constexpr std::size_t kBuildSteps = 1;

/// Offline closed batch on DeepSpeech2: exact and memoized passes.
void runBatchDs2(const RunConfig &config, Report &report,
                 CorrectnessLedger &ledger);

/// Open-loop Poisson stream into a single-model Server on IMDB.
void runServeImdb(const RunConfig &config, Report &report,
                  CorrectnessLedger &ledger);

/// Closed loop of multi-turn sessions on a three-model FleetServer.
void runFleetSessions(const RunConfig &config, Report &report,
                      CorrectnessLedger &ledger);

/// Generates a zoo network's inputs the way buildWorkload does --
/// speech frames, or Markov tokens through the spec's embedding table --
/// but from the benchmark's own seed.
class InputGenerator
{
  public:
    explicit InputGenerator(const workloads::NetworkSpec &spec);

    nn::Sequence generate(std::size_t steps, Rng &rng) const;

  private:
    const workloads::NetworkSpec &spec_;
    std::unique_ptr<workloads::TokenEmbedder> embedder_;
};

/// Run @p inputs through @p network's closed-batch path with @p eval on
/// @p pool, returning the outputs and setting @p seconds. With @p layers
/// set the pass is decorated instead (unthreaded), its spans are
/// accumulated -- as memoized when @p engine is the evaluator, exact
/// otherwise -- and written to @p spans_out when that is open.
std::vector<nn::Sequence>
closedBatch(nn::RnnNetwork &network, std::span<const nn::Sequence> inputs,
            nn::BatchGateEvaluator &eval, memo::BatchMemoEngine *engine,
            ThreadPool &pool, LayerAccumulator *layers, std::FILE *spans_out,
            double &seconds);

/// Open spans_<workload>.csv for a traced run's span CSV (null when the
/// run is untraced).
std::FILE *openSpans(const RunConfig &config);

/// Per-layer metrics every workload reports at the end of a traced run.
struct RunTail
{
    double cpuSeconds = 0.0;
    double wallSeconds = 0.0;
    std::vector<double> buildSeconds;
    std::vector<double> genLagMs; ///< open-loop workloads only
    double traceOverheadPct = 0.0;
};

/// failed_pct, and peak_rss_mb as read at the end of the untraced
/// window: the references computed after it are the benchmark's own
/// work, and their thread-pool scratch made the peak vary from run to
/// run.
void reportOutcome(Report &report, const CorrectnessLedger &ledger,
                   double peak_rss_mb);

/// common.cpu_per_wall, bench.gen_lag_p99_ms, bench.trace_overhead_pct.
void reportTail(Report &report, const RunTail &tail);

/// setup_s, and in a traced run workloads.build_s: medians over every
/// set-up of the run. Each workload times the first half of its set-ups
/// before the measurement and the rest at the very end of the run, so a
/// slow spell of the host at either point moves only half the samples.
void reportSetup(Report &report, const RunConfig &config,
                 const std::vector<double> &setup_s, const RunTail &tail);

} // namespace nlfm::perfbench

#endif // NLFM_PERFBENCH_WORKLOADS_HH
