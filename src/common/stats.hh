/**
 * @file
 * Streaming statistics helpers used across the experiment harnesses.
 */

#ifndef NLFM_COMMON_STATS_HH
#define NLFM_COMMON_STATS_HH

#include <cstddef>
#include <vector>

namespace nlfm
{

/**
 * Single-pass mean/variance/min/max accumulator (Welford's algorithm).
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double value);

    /** Merge another accumulator (parallel reduction). */
    void merge(const RunningStats &other);

    std::size_t count() const { return count_; }
    double mean() const;
    /** Unbiased sample variance (0 when fewer than two samples). */
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Streaming Pearson correlation between paired observations (x, y).
 *
 * Used to reproduce the paper's BNN/RNN output correlation results
 * (Figs. 7 and 8).
 */
class PearsonAccumulator
{
  public:
    /** Add one (x, y) pair. */
    void add(double x, double y);

    /** Merge another accumulator. */
    void merge(const PearsonAccumulator &other);

    std::size_t count() const { return count_; }

    /**
     * Pearson correlation coefficient R.
     *
     * Returns 0 when either variable is constant (undefined R) — the
     * conservative choice for the memoization analysis, where a constant
     * output means the predictor carries no information.
     */
    double correlation() const;

  private:
    std::size_t count_ = 0;
    double meanX_ = 0.0;
    double meanY_ = 0.0;
    double m2x_ = 0.0;
    double m2y_ = 0.0;
    double cov_ = 0.0;
};

/** Percentile of a sample set (linear interpolation); @p q in [0, 100]. */
double percentile(std::vector<double> values, double q);

} // namespace nlfm

#endif // NLFM_COMMON_STATS_HH
