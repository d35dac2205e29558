/**
 * @file
 * Admission-policy sweep of the continuous-batching server: FIFO
 * against the deadline-aware policies (EDF queue order + expired and
 * predictive shedding, calibrated from the closed-batch measurement) on
 * a tight/loose deadline mix at and beyond the queueing knee.
 *
 * Both policies serve the same request set on the same seed, so they
 * see identical arrival times and request mix and the goodput
 * difference is the policy, not Poisson luck. The set-up and the
 * closed-batch calibration are bench_serving_load's
 * (bench/common/open_loop.hh).
 *
 * Exits non-zero on any unaccounted request (completed + shed must
 * equal offered).
 */

#include <cstdio>

#include "common/open_loop.hh"
#include "common/report.hh"

using namespace nlfm;

int
main(int argc, char **argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "admission-policy sweep: FIFO vs EDF + predictive shedding on a "
        "tight/loose deadline mix past the queueing knee");
    auto study = bench::makeServingStudy(options, "admission_sweep");
    if (!study)
        return 1;
    nn::RnnNetwork &network = *study->workload->network;
    nn::BinarizedNetwork &bnn = *study->workload->bnn;
    const std::vector<nn::Sequence> &requests = study->requests;
    const bench::Calibration &cal = study->calibration;

    // Tight deadlines miss as soon as queueing sets in; loose ones
    // only at deep backlogs. FIFO cannot tell them apart; EDF serves
    // tight first and predictive shedding stops burning slots on the
    // provably lost. The tight bound budgets several times the
    // closed-batch service estimate because open-loop service is
    // occupancy-dependent (a loaded tick steps every live slot): it
    // must be meetable when prioritized, or no queue order can help.
    const double theta = 0.05;
    const double deadline_mix[] = {6.0 * cal.serviceMs,
                                   20.0 * cal.serviceMs + 400.0};
    std::printf("admission-policy sweep: theta %.2f, deadline mix "
                "%.0f/%.0f ms\n",
                theta, deadline_mix[0], deadline_mix[1]);
    const serve::ServerOptions &fifo_options = study->serverOptions;
    serve::ServerOptions edf_options = fifo_options;
    edf_options.queuePolicy = serve::QueuePolicy::Edf;
    edf_options.shedExpired = true;
    edf_options.shedPredicted = true;
    edf_options.calibratedStepCostMs = cal.stepCostMs;

    TablePrinter policy_table("FIFO vs EDF+predictive (" + study->name +
                              ")");
    policy_table.setHeader({"policy", "offered/s", "completed/s",
                            "goodput/s", "met", "shed", "shed pred",
                            "p99 ms"});
    const std::vector<double> policy_multipliers =
        options.quick ? std::vector<double>{1.3}
                      : std::vector<double>{1.2, 2.0, 3.0};
    bool accounted = true;
    std::vector<std::pair<serve::StatsSnapshot, serve::StatsSnapshot>>
        points;
    // Arrival seeds: 11 upward, one per load point.
    std::uint64_t seed = 11;
    for (const double multiplier : policy_multipliers) {
        const double offered = cal.capacity * multiplier;
        const serve::StatsSnapshot fifo =
            bench::runLoad(network, bnn, fifo_options, requests, theta,
                           theta, offered, deadline_mix, seed);
        const serve::StatsSnapshot edf =
            bench::runLoad(network, bnn, edf_options, requests, theta,
                           theta, offered, deadline_mix, seed);
        ++seed;
        for (const auto *snap : {&fifo, &edf}) {
            policy_table.addRow(
                {snap == &fifo ? "fifo" : "edf+shed",
                 formatDouble(offered, 2),
                 formatDouble(snap->throughput(), 2),
                 formatDouble(snap->goodput(), 2),
                 std::to_string(snap->deadlineMet),
                 std::to_string(snap->shed),
                 std::to_string(snap->shedPredicted),
                 formatDouble(snap->p99LatencyMs, 1)});
            if (snap->completed + snap->shed != requests.size())
                accounted = false;
        }
        points.emplace_back(fifo, edf);
    }
    policy_table.print("admission_sweep");
    for (std::size_t p = 0; p < points.size(); ++p) {
        const auto &[fifo, edf] = points[p];
        std::printf("goodput at %.1fx: fifo %.2f/s vs edf+predictive "
                    "%.2f/s (%+.0f%%)\n",
                    policy_multipliers[p], fifo.goodput(), edf.goodput(),
                    fifo.goodput() > 0.0
                        ? 100.0 * (edf.goodput() / fifo.goodput() - 1.0)
                        : 0.0);
    }
    std::printf("accounting %s\n", accounted ? "ok" : "LOST REQUESTS");
    return accounted ? 0 : 1;
}
