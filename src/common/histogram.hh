/**
 * @file
 * Fixed-bin histograms with CDF queries.
 *
 * Used for the paper's distribution plots: Fig. 5 (CDF of relative neuron
 * output change) and Fig. 8 (histogram of per-neuron correlation factors).
 * The serving telemetry layer (serve/telemetry.hh) reuses the same
 * machinery with geometric buckets (LogHistogram) for latency and
 * queue-depth distributions whose tails span orders of magnitude.
 */

#ifndef NLFM_COMMON_HISTOGRAM_HH
#define NLFM_COMMON_HISTOGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nlfm
{

/**
 * Histogram over [lo, hi) with uniform bins; out-of-range samples are
 * clamped into the first/last bin so mass is never silently dropped.
 * How much mass WAS clamped is reported by underflow()/overflow() —
 * edge-bin counts are otherwise indistinguishable from genuine edge
 * samples, which matters whenever the range was guessed (a telemetry
 * histogram whose overflow grows is a mis-sized range, not a mode at
 * the top edge).
 */
class Histogram
{
  public:
    /** @param bins number of bins (>= 1); @param lo/@p hi range. */
    Histogram(std::size_t bins, double lo, double hi);

    /** Add one sample. */
    void add(double value);

    /** Add a sample with an integer weight. */
    void add(double value, std::uint64_t weight);

    /** Merge another histogram with identical binning (clamp counters
     * included). */
    void merge(const Histogram &other);

    std::size_t bins() const { return counts_.size(); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint64_t total() const { return total_; }

    /** Samples below lo(), clamped into bin 0 (included in total()). */
    std::uint64_t underflow() const { return underflow_; }

    /** Samples at or above hi(), clamped into the last bin (included in
     * total()). */
    std::uint64_t overflow() const { return overflow_; }

    /** Raw count in bin @p index. */
    std::uint64_t count(std::size_t index) const;

    /** Fraction of mass in bin @p index (0 when empty). */
    double fraction(std::size_t index) const;

    /** Inclusive lower edge of bin @p index. */
    double binLo(std::size_t index) const;

    /** Exclusive upper edge of bin @p index. */
    double binHi(std::size_t index) const;

    /**
     * Empirical CDF evaluated at bin upper edges: fraction of samples whose
     * bin index is <= @p index.
     */
    double cdf(std::size_t index) const;

    /**
     * Approximate inverse CDF: smallest bin upper edge at which the CDF
     * reaches @p q (q in [0, 1]).
     */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double binWidth_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

/**
 * Histogram over [lo, hi) with geometrically spaced bins: every bin's
 * upper edge is its lower edge times a constant ratio ((hi/lo)^(1/bins)).
 * The natural shape for latency-like quantities — constant RELATIVE
 * resolution across a range spanning orders of magnitude, where a uniform
 * Histogram either starves the microsecond end or truncates the tail.
 * Same clamping contract as Histogram: out-of-range samples land in the
 * edge bins and are counted by underflow()/overflow().
 */
class LogHistogram
{
  public:
    /** @param bins number of bins (>= 1); @param lo/@p hi range, both
     * strictly positive (log spacing has no zero). */
    LogHistogram(std::size_t bins, double lo, double hi);

    /** Add one sample. Non-positive values clamp into bin 0 (counted as
     * underflow). */
    void add(double value);

    /** Add a sample with an integer weight. */
    void add(double value, std::uint64_t weight);

    /** Merge another histogram with identical binning. */
    void merge(const LogHistogram &other);

    std::size_t bins() const { return counts_.size(); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::uint64_t total() const { return total_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Raw count in bin @p index. */
    std::uint64_t count(std::size_t index) const;

    /** Inclusive lower edge of bin @p index (== lo * ratio^index). */
    double binLo(std::size_t index) const;

    /** Exclusive upper edge of bin @p index. */
    double binHi(std::size_t index) const;

    /**
     * Approximate inverse CDF: smallest bin upper edge at which the CDF
     * reaches @p q (q in [0, 1]). Bin-edge resolution, like
     * Histogram::quantile — a telemetry estimate, not the reservoir's
     * sample percentile.
     */
    double quantile(double q) const;

  private:
    double lo_;
    double hi_;
    double logLo_;
    double invLogRatio_; ///< 1 / ln(ratio), hoisted out of add()
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

} // namespace nlfm

#endif // NLFM_COMMON_HISTOGRAM_HH
