/**
 * @file
 * Minimal end-to-end use of the serving subsystem.
 *
 * Builds the IMDB-shaped sentiment network, starts a Server with a
 * 4-slot pool, submits a handful of requests with different per-request
 * reuse thresholds from two client threads, and prints each response's
 * latency/reuse numbers plus the aggregate report — then restarts the
 * server with the deadline-aware admission policies (EDF queue order,
 * expired + predictive shedding) and shows a hopeless deadline failing
 * fast with ShedError while viable requests complete. The whole program
 * is the docs/SERVING.md walkthrough in runnable form.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "serve/server.hh"
#include "workloads/model_zoo.hh"

int
main()
{
    using namespace nlfm;

    // A resident model: network + binarized mirror, built once, served
    // for the lifetime of the process.
    const workloads::NetworkSpec &spec = workloads::specByName("IMDB");
    const auto workload = workloads::buildWorkload(spec, /*steps=*/12,
                                                   /*sequences=*/8);
    std::printf("serving_demo: %s (%s)\n", spec.name.c_str(),
                spec.rnn.describe().c_str());

    serve::ServerOptions options;
    options.slots = 4;
    options.memo.predictor = memo::PredictorKind::Bnn;
    options.memo.theta = 0.05; // default; requests may override
    serve::Server server(*workload->network, workload->bnn.get(),
                         options);

    // Two client threads sharing one server: enqueue() and the returned
    // futures are the whole client API.
    const auto client = [&](std::size_t first, double theta,
                            std::vector<std::future<serve::Response>>
                                &futures) {
        for (std::size_t i = first; i < workload->testInputs.size();
             i += 2) {
            serve::Request request;
            request.input = workload->testInputs[i];
            request.theta = theta;
            request.deadlineMs = 5000.0;
            futures.push_back(server.enqueue(std::move(request)));
        }
    };
    std::vector<std::future<serve::Response>> strict, relaxed;
    std::thread strict_client(client, 0, 0.01, std::ref(strict));
    std::thread relaxed_client(client, 1, 0.20, std::ref(relaxed));
    strict_client.join();
    relaxed_client.join();

    const auto show = [](const char *label, serve::Response response) {
        std::printf("  %s request %llu: %zu steps, theta %.2f, "
                    "reuse %5.1f%%, queue %6.2f ms, service %6.2f ms, "
                    "latency %6.2f ms%s\n",
                    label,
                    static_cast<unsigned long long>(response.id),
                    response.steps, response.theta,
                    100.0 * response.reuseFraction, response.queueMs,
                    response.serviceMs, response.latencyMs,
                    response.deadlineMet ? "" : "  (deadline missed)");
    };
    for (auto &future : strict)
        show("strict ", serve::Server::collect(future));
    for (auto &future : relaxed)
        show("relaxed", serve::Server::collect(future));

    std::printf("\n%s\n",
                server.stats().report("serving_demo aggregate").c_str());
    server.stop();

    // Deadline-aware admission (docs/SERVING.md, "Admission
    // policies"): EDF pops the most urgent queued request first, and
    // predictive shedding fails a request whose deadline the
    // calibrated estimate proves unreachable — fast, at enqueue,
    // instead of serving it late or letting it rot in the queue.
    serve::ServerOptions deadline_options = options;
    deadline_options.queuePolicy = serve::QueuePolicy::Edf;
    deadline_options.shedExpired = true;
    deadline_options.shedPredicted = true;
    // Real deployments calibrate this (see bench_admission_sweep); the
    // demo overstates it so the hopeless request below sheds
    // deterministically.
    deadline_options.calibratedStepCostMs = 5.0;
    serve::Server deadline_server(*workload->network,
                                  workload->bnn.get(),
                                  deadline_options);

    std::printf("deadline-aware admission (EDF + shedding, step cost "
                "%.1f ms):\n",
                deadline_options.calibratedStepCostMs);
    std::vector<std::future<serve::Response>> deadline_futures;
    const double deadlines[] = {5000.0, 10.0, 0.0}; // viable/hopeless/none
    for (std::size_t i = 0; i < 3; ++i) {
        serve::Request request;
        request.input = workload->testInputs[i];
        request.deadlineMs = deadlines[i];
        deadline_futures.push_back(
            deadline_server.enqueue(std::move(request)));
    }
    for (std::size_t i = 0; i < deadline_futures.size(); ++i) {
        try {
            show("served ",
                 serve::Server::collect(deadline_futures[i]));
        } catch (const serve::ShedError &error) {
            std::printf("  shed    request %zu (deadline %.0f ms): "
                        "%s\n",
                        i, deadlines[i], error.what());
        }
    }
    const serve::StatsSnapshot deadline_stats = deadline_server.stats();
    std::printf("  -> %zu completed, %zu shed (%zu predicted)\n",
                deadline_stats.completed, deadline_stats.shed,
                deadline_stats.shedPredicted);
    return 0;
}
