#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace nlfm::perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
    const std::size_t index =
        std::min(values.size() - 1,
                 static_cast<std::size_t>(std::max(1.0, rank)) - 1);
    return values[index];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            std::size_t samples)
{
    metrics_.push_back({name, value, unit, samples, true});
}

void
Report::notApplicable(const std::string &name, const std::string &unit)
{
    metrics_.push_back({name, 0.0, unit, 0, false});
}

void
CorrectnessLedger::tamper(nn::Sequence &output)
{
    if (!corrupt_ || output.empty() || output.front().empty())
        return;
    std::uint32_t bits = 0;
    std::memcpy(&bits, &output.front().front(), sizeof(bits));
    bits ^= 1u;
    std::memcpy(&output.front().front(), &bits, sizeof(bits));
    corrupt_ = false;
}

bool
CorrectnessLedger::check(const nn::Sequence &actual,
                         const nn::Sequence &expected)
{
    if (corrupt_) {
        nn::Sequence copy = actual;
        tamper(copy);
        return check(copy, expected);
    }
    ++attempted_;
    bool match = actual.size() == expected.size();
    for (std::size_t t = 0; match && t < actual.size(); ++t) {
        match = actual[t].size() == expected[t].size() &&
                std::memcmp(actual[t].data(), expected[t].data(),
                            actual[t].size() * sizeof(float)) == 0;
    }
    if (!match)
        ++failed_;
    return match;
}

bool
CorrectnessLedger::checkDigest(std::uint64_t actual, std::uint64_t expected)
{
    ++attempted_;
    if (actual != expected)
        ++failed_;
    return actual == expected;
}

void
CorrectnessLedger::fail(std::uint64_t n)
{
    attempted_ += n;
    failed_ += n;
}

std::uint64_t
digestSequence(const nn::Sequence &sequence, std::size_t steps)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const std::size_t n = std::min(steps, sequence.size());
    for (std::size_t t = 0; t < n; ++t) {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(sequence[t].data());
        for (std::size_t i = 0; i < sequence[t].size() * sizeof(float); ++i)
            hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
    return hash;
}

void
printResult(const RunConfig &config, const Report &report,
            const CorrectnessLedger &ledger)
{
    std::printf("\n== %s (seed %llu, %s run) ==\n", config.workload.c_str(),
                static_cast<unsigned long long>(config.seed),
                config.trace ? "traced" : "untraced");
    for (const Metric &m : report.metrics()) {
        if (!m.applies) {
            std::printf("  %-36s n/a\n", m.name.c_str());
            continue;
        }
        std::printf("  %-36s %14.4f %-8s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples != 0)
            std::printf(" (n=%zu)", m.samples);
        std::printf("\n");
    }
    std::printf("  checked %llu sequences, %llu failed\n",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));

    // One line the runner parses: every metric, measured digits intact.
    std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                ledger.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted()),
                static_cast<unsigned long long>(ledger.failed()));
    const char *separator = "";
    for (const Metric &m : report.metrics()) {
        char value[32] = "null"; // the runner rejects non-finite values
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof(value), "%.17g", m.value);
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\", "
                    "\"samples\": %zu, \"applies\": %s}",
                    separator, m.name.c_str(), value, m.unit.c_str(),
                    m.samples, m.applies ? "true" : "false");
        separator = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace nlfm::perfbench
