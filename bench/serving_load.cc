/**
 * @file
 * Open-loop load test of the continuous-batching server.
 *
 * The serving question, not the closed-batch one: under Poisson arrivals
 * at a given offered load, what latency distribution (p50/p95/p99) and
 * goodput (deadline-met completions/s) does the slot-pool server
 * sustain, and how does the reuse threshold theta move the curve?
 * Sequences have ragged lengths and arrive while the panel is
 * mid-flight, so every run exercises mid-flight admission into recycled
 * slots — the scenario a closed batch cannot express.
 *
 * Offered load is calibrated against the closed-batch capacity of the
 * same slot count, so "1.0x" means arrivals at the rate a perfectly
 * packed batch could just sustain; above that the bounded queue fills
 * and latency is dominated by queueing, which is the expected and
 * reported behavior (goodput saturates, p99 explodes).
 *
 * --trace-out runs one extra load point with telemetry on. The other
 * serving studies share this set-up (bench/common/open_loop.hh) and run
 * as their own binaries: bench_admission_sweep, bench_autopilot_ramp,
 * bench_session_turns and bench_multi_model_load.
 *
 * Exits non-zero unless every request of the sweep completes.
 */

#include <cstdio>

#include "common/logging.hh"
#include "common/open_loop.hh"
#include "common/report.hh"

using namespace nlfm;

int
main(int argc, char **argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "open-loop serving load: latency percentiles and goodput vs "
        "offered load under continuous batching, at two theta mixes");
    auto study = bench::makeServingStudy(options, "serving_load");
    if (!study)
        return 1;
    nn::RnnNetwork &network = *study->workload->network;
    nn::BinarizedNetwork &bnn = *study->workload->bnn;
    const std::vector<nn::Sequence> &requests = study->requests;
    const bench::Calibration &cal = study->calibration;

    // Two theta mixes (the >= 2 theta settings) x offered-load sweep.
    struct ThetaMix
    {
        double lo, hi;
    };
    const ThetaMix mixes[] = {{0.01, 0.05}, {0.05, 0.20}};
    const std::vector<double> load_multipliers =
        options.quick ? std::vector<double>{0.5, 1.2}
                      : std::vector<double>{0.4, 0.8, 1.4};

    TablePrinter table("serving load sweep (" + study->name + ")");
    table.setHeader({"theta mix", "offered/s", "completed/s",
                     "goodput/s", "p50 ms", "p95 ms", "p99 ms",
                     "mean queue ms", "reuse"});

    std::vector<serve::StatsSnapshot> points;
    // Arrival seeds: 7 upward, one per load point, then the telemetry
    // pass.
    std::uint64_t seed = 7;
    const double uniform_deadline[] = {cal.deadlineMs};
    for (const ThetaMix &mix : mixes) {
        for (const double multiplier : load_multipliers) {
            const double offered = cal.capacity * multiplier;
            points.push_back(bench::runLoad(
                network, bnn, study->serverOptions, requests, mix.lo,
                mix.hi, offered, uniform_deadline, seed++));

            const serve::StatsSnapshot &s = points.back();
            table.addRow({formatDouble(mix.lo, 2) + "/" +
                              formatDouble(mix.hi, 2),
                          formatDouble(offered, 2),
                          formatDouble(s.throughput(), 2),
                          formatDouble(s.goodput(), 2),
                          formatDouble(s.p50LatencyMs, 1),
                          formatDouble(s.p95LatencyMs, 1),
                          formatDouble(s.p99LatencyMs, 1),
                          formatDouble(s.meanQueueMs, 1),
                          formatPercent(s.meanReuse)});
        }
    }
    table.print("serving_load");

    // The full aggregate report of the last (most loaded) point, through
    // the same common/report path the server exposes programmatically.
    const ThetaMix &last_mix = mixes[std::size(mixes) - 1];
    std::printf("\n%s\n",
                points.back()
                    .report("last load point (theta mix " +
                                formatDouble(last_mix.lo, 2) + "/" +
                                formatDouble(last_mix.hi, 2) + ")",
                            "serving_load_last")
                    .c_str());

    // ------------------------------------------------------------------
    // Telemetry pass (--trace-out): one extra run at the heaviest load
    // multiplier with the metrics registry + driver tracer enabled.
    // The trace exports after stop() (the tracer's single-writer
    // contract) and the exposition prints alongside, so CI can
    // validate both artifacts. The sweep above is untouched: those
    // runs construct no Telemetry object at all.
    if (!options.traceOut.empty()) {
        serve::ServerOptions traced_options = study->serverOptions;
        traced_options.telemetry.metrics = true;
        traced_options.telemetry.trace = true;
        const double offered = cal.capacity * load_multipliers.back();
        std::printf("\ntelemetry pass: offered %.2f/s, trace -> %s\n",
                    offered, options.traceOut.c_str());
        serve::Server server(network, &bnn, traced_options);
        bench::serveOpenLoop(
            server, requests, offered, seed++,
            [&](std::size_t i, serve::Request &request) {
                request.theta = i % 2 == 0 ? 0.01 : 0.05;
                request.deadlineMs = cal.deadlineMs;
            });
        server.stop();
        const serve::Telemetry *telemetry = server.telemetry();
        nlfm_assert(telemetry != nullptr && telemetry->tracer(),
                    "telemetry pass constructed without telemetry");
        std::FILE *trace_file =
            std::fopen(options.traceOut.c_str(), "w");
        if (trace_file) {
            const std::string trace_json = telemetry->traceJson();
            std::fwrite(trace_json.data(), 1, trace_json.size(),
                        trace_file);
            std::fclose(trace_file);
            std::printf("wrote %s (%llu spans recorded, %llu "
                        "dropped)\n",
                        options.traceOut.c_str(),
                        static_cast<unsigned long long>(
                            telemetry->tracer()->recorded()),
                        static_cast<unsigned long long>(
                            telemetry->tracer()->dropped()));
        } else {
            std::printf("could not open %s for writing\n",
                        options.traceOut.c_str());
        }
        std::printf("\nmetrics exposition (traced load point):\n%s\n",
                    telemetry->registry().exposition().c_str());
    }

    // Sanity line for the CI smoke run: every request completed.
    std::size_t completed = 0;
    for (const serve::StatsSnapshot &point : points)
        completed += point.completed;
    std::printf("completed %zu/%zu requests across %zu load points\n",
                completed, points.size() * requests.size(),
                points.size());
    return completed == points.size() * requests.size() ? 0 : 1;
}
