#include "common/histogram.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace nlfm
{

Histogram::Histogram(std::size_t bins, double lo, double hi)
    : lo_(lo), hi_(hi), binWidth_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    nlfm_assert(bins >= 1, "histogram needs at least one bin");
    nlfm_assert(hi > lo, "histogram range is empty: [", lo, ", ", hi, ")");
}

void
Histogram::add(double value)
{
    add(value, 1);
}

void
Histogram::add(double value, std::uint64_t weight)
{
    double pos = (value - lo_) / binWidth_;
    std::size_t index;
    if (pos < 0.0) {
        index = 0;
        underflow_ += weight;
    } else {
        const auto raw = static_cast<std::size_t>(pos);
        index = std::min(raw, counts_.size() - 1);
        if (raw >= counts_.size())
            overflow_ += weight;
    }
    counts_[index] += weight;
    total_ += weight;
}

void
Histogram::merge(const Histogram &other)
{
    nlfm_assert(other.counts_.size() == counts_.size() && other.lo_ == lo_ &&
                    other.hi_ == hi_,
                "merging incompatible histograms");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
}

std::uint64_t
Histogram::count(std::size_t index) const
{
    nlfm_assert(index < counts_.size(), "bin index out of range");
    return counts_[index];
}

double
Histogram::fraction(std::size_t index) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(count(index)) / static_cast<double>(total_);
}

double
Histogram::binLo(std::size_t index) const
{
    nlfm_assert(index < counts_.size(), "bin index out of range");
    return lo_ + binWidth_ * static_cast<double>(index);
}

double
Histogram::binHi(std::size_t index) const
{
    return binLo(index) + binWidth_;
}

double
Histogram::cdf(std::size_t index) const
{
    nlfm_assert(index < counts_.size(), "bin index out of range");
    if (total_ == 0)
        return 0.0;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i <= index; ++i)
        below += counts_[i];
    return static_cast<double>(below) / static_cast<double>(total_);
}

double
Histogram::quantile(double q) const
{
    nlfm_assert(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    if (total_ == 0)
        return lo_;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        below += counts_[i];
        if (static_cast<double>(below) >=
            q * static_cast<double>(total_)) {
            return binHi(i);
        }
    }
    return hi_;
}

LogHistogram::LogHistogram(std::size_t bins, double lo, double hi)
    : lo_(lo), hi_(hi), logLo_(std::log(lo)),
      invLogRatio_(static_cast<double>(bins) /
                   (std::log(hi) - std::log(lo))),
      counts_(bins, 0)
{
    nlfm_assert(bins >= 1, "histogram needs at least one bin");
    nlfm_assert(lo > 0.0, "log histogram needs lo > 0, got ", lo);
    nlfm_assert(hi > lo, "histogram range is empty: [", lo, ", ", hi, ")");
}

void
LogHistogram::add(double value)
{
    add(value, 1);
}

void
LogHistogram::add(double value, std::uint64_t weight)
{
    std::size_t index;
    if (!(value >= lo_)) { // catches value < lo and NaN alike
        index = 0;
        underflow_ += weight;
    } else {
        const double pos = (std::log(value) - logLo_) * invLogRatio_;
        const auto raw = static_cast<std::size_t>(pos);
        index = std::min(raw, counts_.size() - 1);
        // value >= hi lands at raw == bins (or beyond, or exactly at the
        // boundary after rounding); treat the clamp as overflow only
        // when the value truly sits outside [lo, hi).
        if (value >= hi_)
            overflow_ += weight;
    }
    counts_[index] += weight;
    total_ += weight;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    nlfm_assert(other.counts_.size() == counts_.size() && other.lo_ == lo_ &&
                    other.hi_ == hi_,
                "merging incompatible histograms");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
}

std::uint64_t
LogHistogram::count(std::size_t index) const
{
    nlfm_assert(index < counts_.size(), "bin index out of range");
    return counts_[index];
}

double
LogHistogram::binLo(std::size_t index) const
{
    nlfm_assert(index < counts_.size(), "bin index out of range");
    return std::exp(logLo_ +
                    static_cast<double>(index) / invLogRatio_);
}

double
LogHistogram::binHi(std::size_t index) const
{
    nlfm_assert(index < counts_.size(), "bin index out of range");
    if (index + 1 == counts_.size())
        return hi_; // avoid exp() round-off at the top edge
    return std::exp(logLo_ +
                    static_cast<double>(index + 1) / invLogRatio_);
}

double
LogHistogram::quantile(double q) const
{
    nlfm_assert(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    if (total_ == 0)
        return lo_;
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        below += counts_[i];
        if (static_cast<double>(below) >=
            q * static_cast<double>(total_)) {
            return binHi(i);
        }
    }
    return hi_;
}

} // namespace nlfm
