/// @file
/// Shared plumbing of the benchmark binary: run configuration, clocks,
/// percentiles, the metric report, and the correctness ledger.
///
/// Every workload fills one Report. Metrics the workload does not
/// exercise are still emitted (value 0, marked "n/a" in the text
/// listing) so every workload prints the same metric names; the
/// metric reference (perfbench/METRICS.md) says which workloads each
/// metric is meaningful on.

#ifndef NLFM_PERFBENCH_HARNESS_HH
#define NLFM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/rnn_layer.hh"

namespace nlfm::perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

double millisBetween(Clock::time_point from, Clock::time_point to);

/// Process CPU seconds (user + system) so far, via getrusage.
double processCpuSeconds();

/// Peak resident set size of the process so far, in MB.
double peakRssMb();

/// Nearest-rank percentile (@p q in [0, 100]) of @p values; 0 when empty.
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// The run's command line. Every other setting is a constant of its
/// workload's source file.
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// Traced run: per-layer metrics, and the evaluator-seam spans
    /// written to spans_<workload>.csv in the working directory.
    bool trace = false;
    /// Flip one bit of one checked output before its comparison (the
    /// self-test that proves the check catches corruption).
    bool corrupt = false;
};

/// One named measurement.
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /// Sample count behind the value (0 = a single measurement).
    std::size_t samples = 0;
    /// False when the workload does not exercise the metric's layer.
    bool applies = true;
};

/// Every metric a run produced, in emission order.
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             std::size_t samples = 0);

    /// Emit @p name with value 0, marked as not exercised.
    void notApplicable(const std::string &name, const std::string &unit);

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/// Bitwise output checks of one run: every checked sequence counts as
/// attempted, every mismatch as failed.
class CorrectnessLedger
{
  public:
    explicit CorrectnessLedger(bool corrupt) : corrupt_(corrupt) {}

    /// Compare @p actual to @p expected bit for bit; records the
    /// outcome and returns true on a match. With corruption armed, the
    /// first output checked has one bit flipped first (see tamper).
    bool check(const nn::Sequence &actual, const nn::Sequence &expected);

    /// Digest form of check() for outputs too many to keep: compare two
    /// digestSequence values.
    bool checkDigest(std::uint64_t actual, std::uint64_t expected);

    /// With corruption armed and not yet spent, flip one bit of
    /// @p output (the self-test's injected fault).
    void tamper(nn::Sequence &output);

    /// Count @p n sequences that failed before any output existed
    /// (exceptions, shed requests).
    void fail(std::uint64_t n = 1);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    bool corrupt_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// FNV-1a digest over the bits of the first @p steps steps of
/// @p sequence (all of them when it is shorter).
std::uint64_t digestSequence(const nn::Sequence &sequence,
                             std::size_t steps);

/// Print the metric listing and the machine-readable result line.
void printResult(const RunConfig &config, const Report &report,
                 const CorrectnessLedger &ledger);

} // namespace nlfm::perfbench

#endif // NLFM_PERFBENCH_HARNESS_HH
