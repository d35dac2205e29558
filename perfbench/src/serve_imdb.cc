/// @file
/// serve_imdb: an open-loop Poisson stream into a single-model
/// serve::Server on IMDB (LSTM 1x128, cache-resident weights). Requests
/// have ragged lengths and alternate between two per-request thetas, so
/// mixed panels take the scalar decide path. Each tick is short, so
/// latency follows queueing and the driver loop.
///
/// Latency is open-loop honest: it runs from each request's *due* send
/// time to its completion, so a generator stall or a blocking enqueue
/// (backpressure) is charged to the requests it delayed.
///
/// Below saturation the open loop completes requests at the offered
/// rate, so its seq_per_s moves only once the server saturates. A burst
/// after it -- the first half of the same requests, all due at once,
/// through the same server -- times the saturated server as
/// burst_seq_per_s, which is printed but too noisy to bound.

#include <cmath>
#include <cstdio>
#include <span>
#include <thread>

#include "common/parallel.hh"
#include "serve/server.hh"
#include "workloads.hh"
#include "workloads/evaluators.hh"

namespace nlfm::perfbench
{

namespace
{

constexpr std::size_t kSlots = 8;
/// ServerOptions::workers: the driver steps alone, beside the generator.
constexpr std::size_t kWorkers = 1;
/// The reference passes' ThreadPool.
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kMaxSteps = 100;
constexpr std::size_t kMinSteps = 50;
/// Even requests: no accuracy loss; odd ones: the 1 %-loss point.
constexpr double kThetaLo = 0.51;
constexpr double kThetaHi = 1.0;
/// About half the saturated throughput of the reference host.
constexpr double kRate = 150.0;
constexpr double kDeadlineMs = 50.0;
constexpr std::size_t kSetupReps = 21;
/// The burst replays the first 1 / kBurstDivisor of the requests.
constexpr std::size_t kBurstDivisor = 2;
/// Requests per memoized reference pass (spread over the pool).
constexpr std::size_t kBlock = 256;
/// The first requests, scored for loss_pts against the exact pass.
constexpr std::size_t kLossSample = 1024;

/// One pass of the arrival schedule through a server.
struct OpenLoopRun
{
    std::vector<serve::Response> responses; ///< completed, in send order
    std::vector<std::size_t> responseIndex; ///< request index of each
    std::vector<double> latencyMs;          ///< due time -> completion
    std::vector<double> lagMs;              ///< due time -> enqueue call
    std::vector<double> enqueueUs;          ///< enqueue() call duration
    double windowMs = 0.0; ///< first due time -> last completion
    std::size_t failed = 0;
};

OpenLoopRun
runOpenLoop(serve::Server &server, std::span<const nn::Sequence> inputs,
            std::span<const double> due_s)
{
    const std::size_t count = inputs.size();
    std::vector<serve::Request> requests(count);
    for (std::size_t i = 0; i < count; ++i) {
        requests[i].input = inputs[i];
        requests[i].theta = i % 2 == 0 ? kThetaLo : kThetaHi;
        requests[i].deadlineMs = kDeadlineMs;
    }

    OpenLoopRun run;
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(count);
    std::vector<Clock::time_point> called(count);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
    const auto due = [&](std::size_t i) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s[i]));
    };
    for (std::size_t i = 0; i < count; ++i) {
        // Sleep to just short of the due time, then spin: a sleeping
        // generator wakes late under host scheduling noise, and that
        // lateness would be charged to the server as latency.
        std::this_thread::sleep_until(due(i) - std::chrono::milliseconds(1));
        while (Clock::now() < due(i))
            std::this_thread::yield();
        called[i] = Clock::now();
        futures.push_back(server.enqueue(std::move(requests[i])));
        run.enqueueUs.push_back(millisBetween(called[i], Clock::now()) * 1e3);
        run.lagMs.push_back(millisBetween(due(i), called[i]));
    }
    server.drain();

    double last_ms = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        try {
            serve::Response response = serve::Server::collect(futures[i]);
            // The server stamps enqueue at the top of enqueue(), before
            // any backpressure wait, so call time + latencyMs is the
            // completion time.
            const double done_ms =
                millisBetween(t0, called[i]) + response.latencyMs;
            last_ms = std::max(last_ms, done_ms);
            run.latencyMs.push_back(run.lagMs[i] + response.latencyMs);
            run.responses.push_back(std::move(response));
            run.responseIndex.push_back(i);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "request %zu failed: %s\n", i, error.what());
            ++run.failed;
        }
    }
    run.windowMs = last_ms;
    return run;
}

} // namespace

void
runServeImdb(const RunConfig &config, Report &report,
             CorrectnessLedger &ledger)
{
    const workloads::NetworkSpec &spec = workloads::specByName("IMDB");
    const auto count =
        static_cast<std::size_t>(std::ceil(kRate * config.seconds));

    serve::ServerOptions options;
    options.slots = kSlots;
    options.workers = kWorkers;
    options.memo.predictor = memo::PredictorKind::Bnn;
    options.memo.theta = kThetaLo;

    // Set-up: workload build plus server construction. The first half of
    // the repetitions run here, the rest at the end of the run.
    RunTail tail;
    std::vector<double> setup_s;
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<serve::Server> server;
    const auto set_up = [&] {
        server.reset();
        workload.reset();
        const Clock::time_point start = Clock::now();
        workload = workloads::buildWorkload(spec, kBuildSteps, 1);
        tail.buildSeconds.push_back(secondsSince(start));
        server = std::make_unique<serve::Server>(
            *workload->network, workload->bnn.get(), options);
        setup_s.push_back(secondsSince(start));
    };
    for (std::size_t rep = 0; rep < (kSetupReps + 1) / 2; ++rep)
        set_up();
    nn::RnnNetwork &network = *workload->network;

    // Inputs and the arrival schedule come from the run seed only.
    Rng rng(config.seed);
    const InputGenerator gen(spec);
    std::vector<nn::Sequence> inputs;
    std::vector<double> due_s;
    Rng arrivals = rng.fork(~0ull);
    double clock_s = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        Rng seq_rng = rng.fork(i);
        const std::size_t steps =
            kMinSteps + seq_rng.uniformInt(kMaxSteps - kMinSteps + 1);
        inputs.push_back(gen.generate(steps, seq_rng));
        clock_s += -std::log(1.0 - arrivals.uniform()) / kRate;
        due_s.push_back(clock_s);
    }

    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    const OpenLoopRun run = runOpenLoop(*server, inputs, due_s);
    // peak_rss_mb covers set-up and the open loop: with the burst's
    // responses in it, the figure varied by up to 6 % between runs.
    const double peak_rss_mb = peakRssMb();
    const std::vector<double> burst_due(count / kBurstDivisor, 0.0);
    const OpenLoopRun burst = runOpenLoop(
        *server, std::span(inputs).first(burst_due.size()), burst_due);
    server->stop();
    tail.wallSeconds = secondsSince(start);
    tail.cpuSeconds = processCpuSeconds() - cpu_start;

    // Traced run: the same schedule through a server with the driver
    // tracer on, sized so no span is dropped (per step at most one tick
    // of five spans, plus five spans per request).
    std::unique_ptr<serve::Server> traced;
    OpenLoopRun traced_run;
    if (config.trace) {
        std::size_t total_steps = 0;
        for (const nn::Sequence &input : inputs)
            total_steps += input.size();
        serve::ServerOptions traced_options = options;
        traced_options.telemetry.trace = true;
        traced_options.telemetry.traceCapacity = 6 * (total_steps + count);
        traced = std::make_unique<serve::Server>(
            network, workload->bnn.get(), traced_options);
        traced_run = runOpenLoop(*traced, inputs, due_s);
        traced->stop();
    }

    // References, untimed, in blocks: closed-batch forwardBatch at each
    // request's theta for the bitwise check, and for the first requests
    // the exact pass that loss_pts scores against.
    LayerAccumulator layers;
    LayerAccumulator *traced_layers = config.trace ? &layers : nullptr;
    std::FILE *spans = openSpans(config);
    ThreadPool pool(kPoolThreads);
    std::vector<std::unique_ptr<memo::BatchMemoEngine>> engines;
    for (const double theta : {kThetaLo, kThetaHi}) {
        memo::MemoOptions memo = options.memo;
        memo.theta = theta;
        engines.push_back(std::make_unique<memo::BatchMemoEngine>(
            network, workload->bnn.get(), memo));
    }
    nn::DirectBatchEvaluator direct;
    workloads::WorkloadEvaluator evaluator(*workload);
    std::vector<metrics::TokenSeq> exact_decodes, served_decodes;
    const auto served = [](const OpenLoopRun &r) {
        std::vector<const serve::Response *> by_request(r.lagMs.size());
        for (std::size_t k = 0; k < r.responses.size(); ++k)
            by_request[r.responseIndex[k]] = &r.responses[k];
        return by_request;
    };
    const auto plain_served = served(run);
    const auto burst_served = served(burst);
    const auto traced_served = served(traced_run);
    for (std::size_t first = 0; first < count; first += kBlock) {
        const std::size_t last = std::min(count, first + kBlock);
        std::vector<nn::Sequence> memo_ref(last - first);
        double seconds = 0.0;
        for (std::size_t parity = 0; parity < 2; ++parity) {
            std::vector<nn::Sequence> part;
            for (std::size_t i = first + parity; i < last; i += 2)
                part.push_back(inputs[i]);
            auto outputs = closedBatch(network, part, *engines[parity],
                                       engines[parity].get(), pool,
                                       traced_layers, spans, seconds);
            for (std::size_t i = first + parity, k = 0; i < last; i += 2)
                memo_ref[i - first] = std::move(outputs[k++]);
        }
        for (std::size_t i = first; i < last; ++i)
            for (const auto *by_request :
                 {&plain_served, &burst_served, &traced_served})
                if (i < by_request->size() && (*by_request)[i] != nullptr)
                    ledger.check((*by_request)[i]->output,
                                 memo_ref[i - first]);
        if (first >= kLossSample)
            continue;
        const std::size_t scored = std::min(last, kLossSample) - first;
        const auto exact_out = closedBatch(
            network, std::span<const nn::Sequence>(&inputs[first], scored),
            direct, nullptr, pool, traced_layers, spans, seconds);
        for (std::size_t k = 0; k < scored; ++k) {
            if (plain_served[first + k] != nullptr) {
                exact_decodes.push_back(
                    evaluator.decodeSequence(exact_out[k]));
                served_decodes.push_back(evaluator.decodeSequence(
                    plain_served[first + k]->output));
            }
        }
    }
    if (spans != nullptr)
        std::fclose(spans);
    ledger.fail(run.failed + burst.failed + traced_run.failed);

    std::size_t met = 0;
    for (const double ms : run.latencyMs)
        met += ms <= kDeadlineMs ? 1 : 0;
    const std::size_t done = run.responses.size();
    std::printf("serve_imdb: sent %zu, succeeded %zu, failed %zu at %.1f "
                "req/s offered, deadline %.1f ms\n",
                count, done, run.failed, kRate, kDeadlineMs);
    const std::size_t burst_done = burst.responses.size();
    std::printf("serve_imdb: burst of %zu requests, %zu succeeded in "
                "%.1f ms\n",
                burst_due.size(), burst_done, burst.windowMs);
    report.add("seq_per_s", static_cast<double>(done) / run.windowMs * 1e3,
               "seq/s", done);
    report.add("burst_seq_per_s",
               static_cast<double>(burst_done) / burst.windowMs * 1e3,
               "seq/s", burst_done);
    report.notApplicable("exact_seq_per_s", "seq/s");
    report.add("p50_ms", percentile(run.latencyMs, 50.0), "ms", done);
    report.add("p99_ms", percentile(run.latencyMs, 99.0), "ms", done);
    report.add("deadline_met_pct",
               100.0 * static_cast<double>(met) / static_cast<double>(count),
               "%", count);
    report.add("loss_pts", evaluator.scoreLoss(exact_decodes, served_decodes),
               "points", exact_decodes.size());
    reportOutcome(report, ledger, peak_rss_mb);
    if (config.trace) {
        const nn::RnnNetwork *networks[] = {&network};
        reportTensorProbe(report, networks, 0.3);

        ServeObservation observation;
        observation.spans = traced->telemetry()->tracer()->spans();
        observation.traceDropped = traced->telemetry()->tracer()->dropped();
        for (const serve::Response &response : traced_run.responses)
            observation.responses.emplace_back(response,
                                               network.totalNeurons());
        observation.enqueueUs = traced_run.enqueueUs;
        observation.windowMs = traced_run.windowMs;
        observation.shed = traced->stats().shed;
        reportMemoTotals(report, memoTotalsFromTrace(observation));
        layers.report(report);
        reportServe(report, &observation);

        tail.genLagMs = run.lagMs;
        const double plain = percentile(run.latencyMs, 50.0);
        tail.traceOverheadPct =
            100.0 * (percentile(traced_run.latencyMs, 50.0) - plain) / plain;
        reportTail(report, tail);
    } else {
        report.add("bench.gen_lag_p99_ms", percentile(run.lagMs, 99.0), "ms",
                   run.lagMs.size());
    }

    // The second half of the set-ups; nothing above is used after this.
    traced.reset();
    engines.clear();
    while (setup_s.size() < kSetupReps)
        set_up();
    reportSetup(report, config, setup_s, tail);
}

} // namespace nlfm::perfbench
