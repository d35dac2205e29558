#include "common/open_loop.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/stats.hh"
#include "memo/memo_batch.hh"

namespace nlfm::bench
{

std::vector<nn::Sequence>
makeRaggedRequests(std::span<const nn::Sequence> inputs, std::size_t count,
                   Rng &rng)
{
    std::vector<nn::Sequence> requests;
    requests.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const nn::Sequence &base = inputs[i % inputs.size()];
        const std::size_t min_len =
            std::max<std::size_t>(1, base.size() / 2);
        const std::size_t len =
            min_len + rng.uniformInt(base.size() - min_len + 1);
        requests.emplace_back(base.begin(),
                              base.begin() + static_cast<long>(len));
    }
    return requests;
}

double
meanLength(std::span<const nn::Sequence> requests)
{
    double total = 0.0;
    for (const auto &request : requests)
        total += static_cast<double>(request.size());
    return total / static_cast<double>(requests.size());
}

void
paceArrivals(std::size_t count, double offered, std::uint64_t seed,
             const std::function<void(std::size_t)> &submit)
{
    Rng rng(seed);
    auto next_arrival = serve::Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        const double gap_s =
            -std::log(1.0 - rng.uniform()) / std::max(offered, 1e-9);
        next_arrival += std::chrono::duration_cast<serve::Clock::duration>(
            std::chrono::duration<double>(gap_s));
        std::this_thread::sleep_until(next_arrival);
        submit(i);
    }
}

void
collectCompleted(
    std::span<std::future<serve::Response>> futures,
    const std::function<void(std::size_t, const serve::Response &)>
        &on_completed)
{
    for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
            const serve::Response response = futures[i].get();
            if (on_completed)
                on_completed(i, response);
        } catch (const serve::ShedError &) {
        }
    }
}

void
serveOpenLoop(
    serve::Server &server, std::span<const nn::Sequence> requests,
    double offered, std::uint64_t seed,
    const std::function<void(std::size_t, serve::Request &)> &shape,
    const std::function<void(std::size_t, const serve::Response &)>
        &on_completed)
{
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(requests.size());
    paceArrivals(requests.size(), offered, seed, [&](std::size_t i) {
        serve::Request request;
        request.input = requests[i];
        shape(i, request);
        futures.push_back(server.enqueue(std::move(request)));
    });
    server.drain();
    collectCompleted(futures, on_completed);
}

serve::StatsSnapshot
runLoad(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
        const serve::ServerOptions &options,
        std::span<const nn::Sequence> requests, double theta_lo,
        double theta_hi, double offered, std::span<const double> deadlines,
        std::uint64_t seed)
{
    serve::Server server(network, &bnn, options);
    serveOpenLoop(server, requests, offered, seed,
                  [&](std::size_t i, serve::Request &request) {
                      request.theta = i % 2 == 0 ? theta_lo : theta_hi;
                      request.deadlineMs = deadlines[i % deadlines.size()];
                  });
    return server.stats();
}

std::optional<ServingStudy>
makeServingStudy(const BenchOptions &options, const std::string &tag)
{
    ServingStudy study;
    study.name = options.networks.size() == 1 ? options.networks.front()
                                              : "DeepSpeech2";
    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 20);
    const std::size_t slots = options.quick ? 4 : 8;
    const std::size_t request_count = options.quick ? 10 : 40;

    const workloads::NetworkSpec spec = workloads::specByName(study.name);
    if (spec.rnn.bidirectional) {
        std::printf("%s: %s is bidirectional; the step-major serving "
                    "loop needs a causal stack. Pick IMDB, DeepSpeech2, "
                    "or MNMT.\n",
                    tag.c_str(), study.name.c_str());
        return std::nullopt;
    }

    std::printf("%s: %s (%s), %zu-slot pool, %zu requests, <=%zu "
                "steps/sequence\n",
                tag.c_str(), study.name.c_str(),
                spec.rnn.describe().c_str(), slots, request_count, steps);

    // Corpus sized to the REQUEST set, not the slot pool: the autopilot
    // ramp calibrates its accuracy curve on the tune split, and a
    // slots-sized corpus (8 sequences x 20 steps = 160 frames) puts
    // several loss points of sampling noise on every curve sample.
    study.workload =
        workloads::buildWorkload(spec, steps, request_count);
    Rng rng(2026);
    study.requests = makeRaggedRequests(study.workload->testInputs,
                                        request_count, rng);

    memo::MemoOptions memo_options;
    memo_options.predictor = memo::PredictorKind::Bnn;
    memo_options.theta = 0.05;
    study.serverOptions.slots = slots;
    study.serverOptions.queueCapacity =
        std::max<std::size_t>(16, request_count);
    study.serverOptions.memo = memo_options;

    // Capacity calibration: closed-batch throughput of the same slot
    // count on full-length inputs bounds what the server can sustain.
    // One warm-up pass (first-touch page faults, pool wake-up, scratch
    // growth), then the median of five timed passes.
    memo::BatchMemoEngine engine(*study.workload->network,
                                 study.workload->bnn.get(), memo_options);
    const auto cal_inputs =
        std::span<const nn::Sequence>(study.workload->testInputs)
            .subspan(0, slots);
    constexpr std::size_t kCalibrationPasses = 5;
    std::vector<double> pass_sec;
    for (std::size_t pass = 0; pass <= kCalibrationPasses; ++pass) {
        const auto cal_start = std::chrono::steady_clock::now();
        study.workload->network->forwardBatch(cal_inputs, engine);
        if (pass > 0)
            pass_sec.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   cal_start)
                                   .count());
    }
    const double batch_sec = percentile(pass_sec, 50.0);
    const double slots_d = static_cast<double>(slots);
    const double steps_d = static_cast<double>(steps);
    Calibration &cal = study.calibration;
    // Ragged requests average mean length/steps of a full sequence.
    cal.capacity =
        slots_d / batch_sec * (steps_d / meanLength(study.requests));
    cal.serviceMs = 1000.0 * batch_sec / slots_d;
    cal.stepCostMs = cal.serviceMs / steps_d;
    cal.deadlineMs = 3.0 * cal.serviceMs + 500.0;
    std::printf("calibration: closed batch of %zu full sequences in "
                "%.3fs (median of %zu passes, %.3f-%.3fs) -> ~%.2f ragged "
                "seq/s capacity, step cost %.3f ms; deadline %.0f ms\n\n",
                slots, batch_sec, kCalibrationPasses,
                *std::min_element(pass_sec.begin(), pass_sec.end()),
                *std::max_element(pass_sec.begin(), pass_sec.end()),
                cal.capacity, cal.stepCostMs, cal.deadlineMs);
    return study;
}

} // namespace nlfm::bench
