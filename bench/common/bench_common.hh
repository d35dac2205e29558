/**
 * @file
 * Shared machinery for the figure/table bench binaries.
 *
 * Every bench accepts the same CLI surface (network filter, workload
 * sizing, theta grid resolution, --quick smoke mode) and shares the
 * sweep / threshold-tuning / accelerator-simulation plumbing, so each
 * figX_*.cc file only encodes what its figure reports.
 */

#ifndef NLFM_BENCH_COMMON_HH
#define NLFM_BENCH_COMMON_HH

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "epur/area_model.hh"
#include "epur/report.hh"
#include "epur/simulator.hh"
#include "memo/correlation_probe.hh"
#include "memo/threshold_tuner.hh"
#include "workloads/evaluators.hh"

namespace nlfm::bench
{

/** Common bench configuration. */
struct BenchOptions
{
    std::vector<std::string> networks; ///< subset of the model zoo
    /// Cell families selected with repeatable --cell flags (descriptor
    /// cli names, e.g. lstm/gru/raternn/brc). Empty when the flag was
    /// not given; benches that support the per-cell mode (fig16) map
    /// each family to its representative zoo network.
    std::vector<std::string> cells;
    std::size_t steps = 0;             ///< 0 = spec default
    std::size_t sequences = 0;         ///< 0 = spec default
    std::size_t thetaPoints = 8;       ///< sweep resolution
    bool quick = false;                ///< downsized smoke run
    /// bench_serving_load only: non-empty runs one extra load point
    /// with telemetry (metrics + tracer) enabled and writes its Chrome
    /// trace-event JSON here, printing the Prometheus-style exposition
    /// alongside (--trace-out).
    std::string traceOut;
};

/**
 * Parse the standard bench CLI. Exits(0) on --help. @p description is
 * the one-line figure summary shown in the help screen.
 */
BenchOptions parseBenchArgs(int argc, const char *const *argv,
                            const std::string &description);

/**
 * Lazily-built cache of materialized workloads (the MNMT build costs
 * seconds; benches only pay for the networks they touch).
 */
class WorkloadSet
{
  public:
    explicit WorkloadSet(const BenchOptions &options);

    const std::vector<std::string> &names() const { return names_; }

    workloads::Workload &get(const std::string &name);

    /** Evaluator bound to the workload (cached baseline decodes). */
    workloads::WorkloadEvaluator &evaluator(const std::string &name);

    /**
     * BNN tune-split sweep over the spec's theta grid, computed once
     * per network and shared by every loss target.
     */
    const std::vector<memo::TunePoint> &
    tuneSweep(const std::string &name, std::size_t theta_points);

  private:
    BenchOptions options_;
    std::vector<std::string> names_;
    std::map<std::string, std::unique_ptr<workloads::Workload>>
        workloads_;
    std::map<std::string, std::unique_ptr<workloads::WorkloadEvaluator>>
        evaluators_;
    std::map<std::string, std::vector<memo::TunePoint>> sweeps_;
};

/** Theta grid covering [0, spec.thetaMax]. */
std::vector<double> thetaGrid(const workloads::NetworkSpec &spec,
                              std::size_t points);

/** Run a predictor sweep over the grid on the given split. */
std::vector<memo::TunePoint> runSweep(
    workloads::WorkloadEvaluator &evaluator, memo::PredictorKind kind,
    bool throttle, workloads::Split split, std::span<const double> thetas);

/** Outcome of threshold tuning for one loss target (paper §3.2.1). */
struct TunedPoint
{
    double theta = 0.0;
    double tuneReuse = 0.0;
    double tuneLoss = 0.0;
    /**
     * False when no swept theta met the loss target; the returned point
     * is then the minimum-loss one (the honest fallback — reported with
     * an asterisk by the benches).
     */
    bool metTarget = false;
};

/** Sweep the tune split and select theta for @p target_loss_pct. */
TunedPoint tuneForTarget(workloads::WorkloadEvaluator &evaluator,
                         memo::PredictorKind kind, double target_loss_pct,
                         std::span<const double> thetas);

/** Pick from an existing sweep instead of re-running it. */
TunedPoint selectFromSweep(std::span<const memo::TunePoint> points,
                           double target_loss_pct);

/** Sequence lengths of a split (input to the baseline simulator). */
std::vector<std::size_t> splitSteps(const workloads::Workload &workload,
                                    workloads::Split split);

/** Build the Table-2 simulator. */
epur::Simulator makeSimulator();

/**
 * Full paper pipeline for one network and one loss target: tune theta
 * on the tune split (§3.2.1), apply it to the test split recording
 * traces, and simulate E-PUR vs E-PUR+BM.
 */
struct TargetRun
{
    TunedPoint tuned;
    workloads::EvalResult test;
    epur::SimResult baseline;
    epur::SimResult memoized;
};

TargetRun runAtTarget(WorkloadSet &set, const std::string &name,
                      double target_loss_pct, std::size_t theta_points);

/** Format helper: "0.123" -> "12.3". */
std::string pct(double fraction, int digits = 1);

/** Standard bench banner with workload sizing info. */
void printBanner(const std::string &title, const BenchOptions &options);

} // namespace nlfm::bench

#endif // NLFM_BENCH_COMMON_HH
