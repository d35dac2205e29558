/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, histogram,
 * fixed-point, FP16 conversion, CLI parsing, report printing, and the
 * thread pool.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/cli.hh"
#include "common/fixed_point.hh"
#include "common/histogram.hh"
#include "common/parallel.hh"
#include "common/report.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace nlfm
{
namespace
{

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanNearHalf)
{
    Rng rng(11);
    double total = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform();
    EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntWithinBound)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(RngTest, UniformIntCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NormalMomentsMatch)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, ForkedStreamsAreDecorrelated)
{
    Rng parent(99);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

// ------------------------------------------------------- RunningStats

TEST(RunningStatsTest, MatchesNaiveComputation)
{
    const std::vector<double> values = {1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
    RunningStats stats;
    for (double v : values)
        stats.add(v);

    double mean = 0;
    for (double v : values)
        mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0;
    for (double v : values)
        var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size() - 1);

    EXPECT_DOUBLE_EQ(stats.mean(), mean);
    EXPECT_NEAR(stats.variance(), var, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), -2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 7.5);
    EXPECT_EQ(stats.count(), values.size());
}

TEST(RunningStatsTest, MergeEqualsSequential)
{
    Rng rng(21);
    RunningStats whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.normal(3.0, 2.0);
        whole.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(left.count(), whole.count());
}

// ------------------------------------------------------------ Pearson

TEST(PearsonTest, PerfectPositiveCorrelation)
{
    PearsonAccumulator acc;
    for (int i = 0; i < 50; ++i)
        acc.add(i, 2.0 * i + 1.0);
    EXPECT_NEAR(acc.correlation(), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegativeCorrelation)
{
    PearsonAccumulator acc;
    for (int i = 0; i < 50; ++i)
        acc.add(i, -0.5 * i);
    EXPECT_NEAR(acc.correlation(), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantVariableGivesZero)
{
    PearsonAccumulator acc;
    for (int i = 0; i < 10; ++i)
        acc.add(i, 4.0);
    EXPECT_DOUBLE_EQ(acc.correlation(), 0.0);
}

TEST(PearsonTest, IndependentVariablesNearZero)
{
    Rng rng(17);
    PearsonAccumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(rng.normal(), rng.normal());
    EXPECT_NEAR(acc.correlation(), 0.0, 0.02);
}

TEST(PearsonTest, MergeEqualsSequential)
{
    Rng rng(23);
    PearsonAccumulator whole, left, right;
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.normal();
        const double y = 0.7 * x + 0.3 * rng.normal();
        whole.add(x, y);
        (i % 3 ? left : right).add(x, y);
    }
    left.merge(right);
    EXPECT_NEAR(left.correlation(), whole.correlation(), 1e-9);
}

// --------------------------------------------------------- percentile

TEST(PercentileTest, KnownQuartiles)
{
    std::vector<double> values = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(values, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(values, 25), 2.0);
}

// ---------------------------------------------------------- Histogram

TEST(HistogramTest, BinningAndCdf)
{
    Histogram hist(10, 0.0, 1.0);
    for (int i = 0; i < 10; ++i)
        hist.add(0.05 + 0.1 * i); // one sample per bin
    EXPECT_EQ(hist.total(), 10u);
    for (std::size_t b = 0; b < 10; ++b)
        EXPECT_EQ(hist.count(b), 1u);
    EXPECT_NEAR(hist.cdf(4), 0.5, 1e-12);
    EXPECT_NEAR(hist.cdf(9), 1.0, 1e-12);
}

TEST(HistogramTest, OutOfRangeClampsToEdges)
{
    Histogram hist(4, 0.0, 1.0);
    hist.add(-5.0);
    hist.add(27.0);
    EXPECT_EQ(hist.count(0), 1u);
    EXPECT_EQ(hist.count(3), 1u);
}

TEST(HistogramTest, QuantileMonotone)
{
    Histogram hist(100, 0.0, 1.0);
    Rng rng(31);
    for (int i = 0; i < 10000; ++i)
        hist.add(rng.uniform());
    double last = 0.0;
    for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        const double x = hist.quantile(q);
        EXPECT_GE(x, last);
        EXPECT_NEAR(x, q, 0.05);
        last = x;
    }
}

TEST(HistogramTest, MergeAddsCounts)
{
    Histogram a(5, 0.0, 1.0), b(5, 0.0, 1.0);
    a.add(0.1);
    b.add(0.1);
    b.add(0.9);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(0), 2u);
    EXPECT_EQ(a.count(4), 1u);
}

TEST(HistogramTest, ClampedSamplesAreCountedNotSilent)
{
    // Edge-bin counts alone cannot distinguish genuine edge samples
    // from clamped out-of-range ones; underflow()/overflow() can.
    Histogram hist(4, 0.0, 1.0);
    hist.add(0.1);       // genuine bin-0 sample
    hist.add(-5.0);      // clamped into bin 0
    hist.add(0.99);      // genuine last-bin sample
    hist.add(27.0);      // clamped into bin 3
    hist.add(1.0);       // hi() itself is out of the half-open range
    hist.add(-1.0, 10);  // weighted clamps count their full weight

    EXPECT_EQ(hist.total(), 15u);
    EXPECT_EQ(hist.count(0), 12u);
    EXPECT_EQ(hist.count(3), 3u);
    EXPECT_EQ(hist.underflow(), 11u);
    EXPECT_EQ(hist.overflow(), 2u);
}

TEST(HistogramTest, MergePropagatesClampCounters)
{
    Histogram a(4, 0.0, 1.0), b(4, 0.0, 1.0);
    a.add(-1.0);
    b.add(-2.0);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.underflow(), 2u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.total(), 3u);
}

// ------------------------------------------------------- LogHistogram

TEST(LogHistogramTest, GeometricBinEdges)
{
    // [1, 1000) over 3 bins: ratio 10, edges 1 / 10 / 100 / 1000.
    LogHistogram hist(3, 1.0, 1000.0);
    EXPECT_NEAR(hist.binLo(0), 1.0, 1e-9);
    EXPECT_NEAR(hist.binHi(0), 10.0, 1e-9);
    EXPECT_NEAR(hist.binHi(1), 100.0, 1e-6);
    EXPECT_NEAR(hist.binHi(2), 1000.0, 1e-6);

    hist.add(2.0);
    hist.add(20.0);
    hist.add(200.0);
    EXPECT_EQ(hist.count(0), 1u);
    EXPECT_EQ(hist.count(1), 1u);
    EXPECT_EQ(hist.count(2), 1u);
    EXPECT_EQ(hist.underflow(), 0u);
    EXPECT_EQ(hist.overflow(), 0u);
}

TEST(LogHistogramTest, ClampsAndCountsOutOfRange)
{
    LogHistogram hist(4, 1.0, 16.0);
    hist.add(0.5);  // below lo
    hist.add(0.0);  // non-positive: log spacing has no zero
    hist.add(-3.0); // negative likewise
    hist.add(16.0); // hi() itself is out of the half-open range
    hist.add(100.0, 2);

    EXPECT_EQ(hist.total(), 6u);
    EXPECT_EQ(hist.count(0), 3u);
    EXPECT_EQ(hist.count(3), 3u);
    EXPECT_EQ(hist.underflow(), 3u);
    EXPECT_EQ(hist.overflow(), 3u);
}

TEST(LogHistogramTest, QuantileIsMonotoneAtBinResolution)
{
    LogHistogram hist(64, 0.1, 1000.0);
    Rng rng(17);
    for (int i = 0; i < 20000; ++i)
        hist.add(1.0 + 99.0 * rng.uniform()); // uniform on [1, 100]
    double last = 0.0;
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        const double x = hist.quantile(q);
        EXPECT_GE(x, last);
        // Bin-edge resolution: the estimate must bracket the population
        // quantile within one geometric bin (ratio ~1.15 here).
        const double expected = 1.0 + 99.0 * q;
        EXPECT_GT(x, expected / 1.2);
        EXPECT_LT(x, expected * 1.2);
        last = x;
    }
}

TEST(LogHistogramTest, MergeAddsCountsAndClamps)
{
    LogHistogram a(4, 1.0, 16.0), b(4, 1.0, 16.0);
    a.add(2.0);
    b.add(2.0);
    b.add(0.5);
    b.add(99.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 4u);
    EXPECT_EQ(a.count(1), 2u); // 2.0 lands in [2, 4)
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
}

// -------------------------------------------------------- fixed point

TEST(FixedPointTest, RoundTripValues)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, 3.14159, -123.456}) {
        EXPECT_NEAR(Q16::fromDouble(v).toDouble(), v, 1.0 / 65536.0);
    }
}

TEST(FixedPointTest, Arithmetic)
{
    const Q16 a = Q16::fromDouble(2.5);
    const Q16 b = Q16::fromDouble(-1.25);
    EXPECT_NEAR((a + b).toDouble(), 1.25, 1e-4);
    EXPECT_NEAR((a - b).toDouble(), 3.75, 1e-4);
    EXPECT_NEAR((a * b).toDouble(), -3.125, 1e-4);
    EXPECT_NEAR((a / b).toDouble(), -2.0, 1e-4);
    EXPECT_NEAR(b.abs().toDouble(), 1.25, 1e-4);
}

TEST(FixedPointTest, Comparisons)
{
    EXPECT_TRUE(Q16::fromDouble(0.1) < Q16::fromDouble(0.2));
    EXPECT_TRUE(Q16::fromDouble(0.2) <= Q16::fromDouble(0.2));
    EXPECT_TRUE(Q16::fromDouble(-0.1) > Q16::fromDouble(-0.2));
    EXPECT_TRUE(Q16::fromInt(3) == Q16::fromDouble(3.0));
}

TEST(FixedPointTest, QuantizationIsNearestNeighbor)
{
    // 1/65536 below and above a representable point round to it.
    const double step = 1.0 / 65536.0;
    const double v = 0.25;
    EXPECT_EQ(Q16::fromDouble(v + 0.4 * step).raw(),
              Q16::fromDouble(v).raw());
}

// ---------------------------------------------------------------- cli

TEST(CliTest, ParsesAllForms)
{
    CliParser cli("test");
    cli.addString("name", "default", "a string");
    cli.addInt("count", 3, "an int");
    cli.addDouble("ratio", 0.5, "a double");
    cli.addBool("flag", false, "a bool");

    const char *argv[] = {"prog", "--name=alice", "--count", "7",
                          "--ratio=0.25", "--flag"};
    ASSERT_TRUE(cli.parse(6, argv));
    EXPECT_EQ(cli.getString("name"), "alice");
    EXPECT_EQ(cli.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 0.25);
    EXPECT_TRUE(cli.getBool("flag"));
}

TEST(CliTest, DefaultsSurviveWhenUnset)
{
    CliParser cli("test");
    cli.addInt("count", 3, "an int");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(cli.parse(1, argv));
    EXPECT_EQ(cli.getInt("count"), 3);
}

TEST(CliTest, HelpReturnsFalse)
{
    CliParser cli("test");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(cli.parse(2, argv));
}

// ------------------------------------------------------------- report

TEST(ReportTest, TableRendersAllCells)
{
    TablePrinter table("demo");
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    table.addRow({"333", "4"});
    const std::string text = table.str();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("333"), std::string::npos);
    const std::string csv = table.csv("tag");
    EXPECT_NE(csv.find("# BEGIN CSV tag"), std::string::npos);
    EXPECT_NE(csv.find("1,2"), std::string::npos);
}

TEST(ReportTest, Formatting)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
}

// ------------------------------------------------------------ logging

TEST(LoggingTest, WarnIncrementsCounter)
{
    const std::size_t before = warnCount();
    nlfm_warn("test warning ", 1);
    nlfm_warn("test warning ", 2);
    EXPECT_EQ(warnCount(), before + 2);
}

// ----------------------------------------------------------- parallel

TEST(ParallelTest, CoversAllIndicesExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.run(hits.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            hits[i].fetch_add(1);
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, ThrowInCallerChunkWaitsForEveryChunk)
{
    // Chunk 0 runs on the caller and throws at once; run() must still
    // wait for the worker's slow chunk before it rethrows.
    ThreadPool pool(2);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> worker_done{false};
    try {
        pool.run(2, [&](std::size_t, std::size_t) {
            if (std::this_thread::get_id() == caller)
                throw std::runtime_error("caller chunk");
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            worker_done.store(true);
        });
        ADD_FAILURE() << "run() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "caller chunk");
    }
    EXPECT_TRUE(worker_done.load());
}

TEST(ParallelTest, ThrowInWorkerChunkIsRethrownOnCaller)
{
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> chunks_run{0};
    try {
        pool.run(4, [&](std::size_t begin, std::size_t) {
            chunks_run.fetch_add(1);
            if (std::this_thread::get_id() != caller && begin == 2)
                throw std::runtime_error("worker chunk");
        });
        ADD_FAILURE() << "run() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker chunk");
    }
    EXPECT_EQ(chunks_run.load(), 4);
}

TEST(ParallelTest, PoolRunsTheNextJobAfterAThrow)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.run(4,
                          [](std::size_t begin, std::size_t) {
                              if (begin % 2 == 1)
                                  throw std::logic_error("odd chunk");
                          }),
                 std::logic_error);
    std::vector<std::atomic<int>> hits(1000);
    pool.run(hits.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            hits[i].fetch_add(1);
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

} // namespace
} // namespace nlfm
