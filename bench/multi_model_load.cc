/**
 * @file
 * Open-loop load test of the multi-model fleet host.
 *
 * The fleet question: with 2-3 resident zoo models sharing ONE slot
 * pool under equal per-model Poisson offered load, does the
 * weighted-fair (deficit round robin) admission keep per-model goodput
 * balanced — and what does the aggregate goodput/latency curve look
 * like as offered load crosses the shared pool's capacity?
 *
 * Each model gets its own open-loop client thread (arrivals drawn
 * independently of service progress), its own ragged request set, and
 * a per-model deadline calibrated to its own closed-batch service
 * cost, so "goodput" is comparable across models of very different
 * sizes. Fairness per load point is reported as the min/max ratio of
 * per-model deadline-met completions, which is 1.0 when every model's
 * requests all meet their deadline.
 *
 * The equal-weight sweep runs twice: with the default admission, then
 * with the deadline-aware policies on (EDF + expired/predictive
 * shedding + cost-aware DRR quanta, all calibrated from the saturation
 * probe), held to the same fairness bar.
 *
 * Exits non-zero when any request goes unaccounted (completed + shed
 * must equal offered) or when equal-weight fairness at the lowest
 * offered load — in either arm — drops below 0.85 (the acceptance
 * bar: per-model goodput within 15% under equal offered load).
 */

#include <cstdio>
#include <thread>

#include "common/open_loop.hh"
#include "common/report.hh"
#include "serve/fleet_server.hh"

namespace
{

using namespace nlfm;

/** One resident model of the bench fleet. */
struct FleetModel
{
    std::string name;
    std::unique_ptr<workloads::Workload> workload;
    std::vector<nn::Sequence> requests;
    /// Mean service under fleet saturation (the calibration probe run)
    /// reduced to per-step milliseconds — the calibration the
    /// PR 5 admission policies consume (ModelSpec::calibratedStepCostMs).
    double stepCostMs = 0.0;
    double deadlineMs = 0.0;
};

struct PointResult
{
    double multiplier = 0.0;
    serve::FleetStatsSnapshot stats;
    double fairness = 0.0; ///< min/max per-model goodput
};

/**
 * One open-loop fleet run: every model receives @p offered arrivals/s
 * from its own client thread until its request list is exhausted.
 */
serve::FleetStatsSnapshot
runFleetLoad(std::vector<FleetModel> &models,
             const serve::FleetOptions &options, double offered,
             std::uint64_t seed)
{
    serve::ModelRegistry registry;
    for (std::size_t m = 0; m < models.size(); ++m) {
        serve::ModelSpec spec;
        spec.name = models[m].name;
        spec.network = models[m].workload->network.get();
        spec.bnn = models[m].workload->bnn.get();
        spec.memo.predictor = memo::PredictorKind::Bnn;
        spec.memo.theta = 0.05;
        spec.calibratedStepCostMs = models[m].stepCostMs;
        registry.add(spec);
    }
    serve::FleetServer fleet(registry, options);

    std::vector<std::vector<std::future<serve::Response>>> futures(
        models.size());
    std::vector<std::thread> clients;
    for (std::size_t m = 0; m < models.size(); ++m) {
        futures[m].reserve(models[m].requests.size());
        clients.emplace_back([&, m] {
            bench::paceArrivals(
                models[m].requests.size(), offered, seed + m,
                [&](std::size_t i) {
                    serve::Request request;
                    request.input = models[m].requests[i];
                    request.deadlineMs = models[m].deadlineMs;
                    futures[m].push_back(
                        fleet.enqueue(m, std::move(request)));
                });
        });
    }
    for (auto &client : clients)
        client.join();
    fleet.drain();
    // Shed futures carry exceptions; everything else must complete.
    for (auto &model_futures : futures)
        bench::collectCompleted(model_futures);
    return fleet.fleetStats();
}

/**
 * Min/max ratio of per-model deadline-met completions. Offered load is
 * equal per model, so this is goodput fairness over the common run —
 * deliberately NOT the ratio of per-model goodput() rates, whose
 * per-model wall clocks end at each model's own last completion and
 * therefore vary with Poisson arrival luck at low load.
 */
double
fairnessOf(const serve::FleetStatsSnapshot &stats)
{
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t m = 0; m < stats.perModel.size(); ++m) {
        const double met =
            static_cast<double>(stats.perModel[m].deadlineMet);
        if (m == 0 || met < lo)
            lo = met;
        if (m == 0 || met > hi)
            hi = met;
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

/**
 * One arm of the equal-weight load sweep: a fleet run per load
 * multiplier (seeds taken from @p seed, in order), printed as one table
 * with a row per model and an all-models row, then one
 * @p fairness_label line per load point.
 */
std::vector<PointResult>
runSweep(std::vector<FleetModel> &models,
         const serve::FleetOptions &options,
         std::span<const double> multipliers, double per_model_capacity,
         std::uint64_t &seed, const std::string &title,
         const std::string &tag, const char *fairness_label)
{
    TablePrinter table(title);
    table.setHeader({"offered/s/model", "model", "completed/s",
                     "goodput/s", "shed", "p50 ms", "p95 ms", "p99 ms",
                     "mean queue ms", "reuse"});
    std::vector<PointResult> points;
    for (const double multiplier : multipliers) {
        const double offered = per_model_capacity * multiplier;
        PointResult point;
        point.multiplier = multiplier;
        point.stats = runFleetLoad(models, options, offered, seed++);
        point.fairness = fairnessOf(point.stats);
        for (std::size_t m = 0; m <= models.size(); ++m) {
            const bool all = m == models.size();
            const serve::StatsSnapshot &s =
                all ? point.stats.aggregate : point.stats.perModel[m];
            table.addRow({formatDouble(offered, 2),
                          all ? "(all)" : models[m].name,
                          formatDouble(s.throughput(), 2),
                          formatDouble(s.goodput(), 2),
                          std::to_string(s.shed),
                          formatDouble(s.p50LatencyMs, 1),
                          formatDouble(s.p95LatencyMs, 1),
                          formatDouble(s.p99LatencyMs, 1),
                          formatDouble(s.meanQueueMs, 1),
                          formatPercent(s.meanReuse)});
        }
        points.push_back(std::move(point));
    }
    table.print(tag);
    for (const PointResult &point : points)
        std::printf("%s at %.1fx offered load: %.3f "
                    "(min/max per-model deadline-met completions)\n",
                    fairness_label, point.multiplier, point.fairness);
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "open-loop fleet load: 2-3 resident models sharing one slot "
        "pool; per-model goodput fairness and aggregate latency vs "
        "offered load under weighted-fair admission");

    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 14);
    const std::size_t slots = options.quick ? 4 : 9;
    // Sample sizes leave slack for one missed deadline under the 0.85
    // fairness exit bar: 7/8 = 0.875 (quick, the CI smoke) and
    // 14/15 = 0.933 (full) stay above it; 5/6 would not.
    const std::size_t requests_per_model = options.quick ? 8 : 15;

    // Default zoo mix (a "--networks all" selection is the CLI default,
    // not an explicit choice — and EESEN is bidirectional, unservable).
    std::vector<std::string> names =
        options.quick
            ? std::vector<std::string>{"IMDB", "DeepSpeech2"}
            : std::vector<std::string>{"IMDB", "DeepSpeech2", "MNMT"};
    if (options.networks.size() >= 2 &&
        options.networks.size() < workloads::table1Networks().size())
        names = options.networks;

    std::printf("multi_model_load: %zu-slot shared pool, %zu requests/"
                "model, <=%zu steps/sequence, theta 0.05\n",
                slots, requests_per_model, steps);

    std::vector<FleetModel> models;
    Rng rng(2026);
    for (const std::string &name : names) {
        const workloads::NetworkSpec &spec = workloads::specByName(name);
        if (spec.rnn.bidirectional) {
            std::printf("multi_model_load: %s is bidirectional; the "
                        "step-major fleet needs causal stacks.\n",
                        name.c_str());
            return 1;
        }
        FleetModel model;
        model.name = name;
        model.workload = workloads::buildWorkload(
            spec, steps, std::max<std::size_t>(slots, 8));
        model.requests = bench::makeRaggedRequests(
            model.workload->testInputs, requests_per_model, rng);
        models.push_back(std::move(model));
    }

    serve::FleetOptions fleet_options;
    fleet_options.slots = slots;
    fleet_options.queueCapacity =
        std::max<std::size_t>(16, requests_per_model);

    // Capacity calibration by saturation probe: enqueue everything at
    // once and measure what the fleet actually completes per second.
    // (A closed-batch forwardBatch calibration, the PR 3 recipe,
    // overstates fleet capacity ~2x: the fleet's step-major tick walks
    // every resident model's full weight set per timestep, with each
    // model holding only a share of the pool, so its cache behavior is
    // nothing like a single-model layer-major batch.) Saturated
    // per-model service times also set the deadlines: 3x saturated
    // service + queue allowance, so a sub-capacity fleet meets them
    // comfortably and an overloaded one visibly does not.
    const serve::FleetStatsSnapshot saturation = runFleetLoad(
        models, fleet_options, /*offered=*/1e9, /*seed=*/3);
    const double per_model_capacity =
        saturation.aggregate.throughput() /
        static_cast<double>(models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        models[m].stepCostMs =
            saturation.perModel[m].meanServiceMs /
            bench::meanLength(models[m].requests);
        models[m].deadlineMs =
            3.0 * saturation.perModel[m].meanServiceMs + 500.0;
        std::printf("  %-12s (%s): saturated service %.1f ms/seq -> "
                    "deadline %.0f ms\n",
                    models[m].name.c_str(),
                    models[m].workload->spec.rnn.describe().c_str(),
                    saturation.perModel[m].meanServiceMs,
                    models[m].deadlineMs);
    }
    std::printf("calibration: saturated fleet throughput %.2f seq/s "
                "-> ~%.2f seq/s per model (x%zu models)\n\n",
                saturation.aggregate.throughput(), per_model_capacity,
                models.size());

    const std::vector<double> load_multipliers =
        options.quick ? std::vector<double>{0.5, 1.2}
                      : std::vector<double>{0.5, 0.9, 1.4};
    // Arrival seeds: 11 upward, one per load point of either arm (the
    // saturation probe uses 3); model m's client draws from seed + m.
    std::uint64_t seed = 11;
    const std::vector<PointResult> points =
        runSweep(models, fleet_options, load_multipliers,
                 per_model_capacity, seed,
                 "fleet load sweep (equal weights)", "multi_model_load",
                 "fairness");

    // Policy arm: the same equal-weight sweep with the deadline-aware
    // admission on — EDF within each model's queue, expired + predictive
    // shedding scaled by the saturation-probe calibration above, and
    // DRR quanta charged by calibrated service cost instead of 1
    // credit/request. The fairness bar applies unchanged:
    // deadline-aware scheduling must not break weighted fairness.
    serve::FleetOptions policy_options = fleet_options;
    policy_options.queuePolicy = serve::QueuePolicy::Edf;
    policy_options.shedExpired = true;
    policy_options.shedPredicted = true;
    policy_options.costAwareAdmission = true;
    std::printf("\n");
    const std::vector<PointResult> policy_points = runSweep(
        models, policy_options, load_multipliers, per_model_capacity,
        seed, "fleet load sweep (EDF + predictive shed + cost-aware DRR)",
        "multi_model_policy", "policy-mode fairness");

    std::printf("\n%s\n",
                points.back()
                    .stats
                    .report("last equal-weight load point",
                            "multi_model_last")
                    .c_str());

    // Accounting: every offered request must be completed or shed.
    bool accounted = true;
    for (const auto *arm : {&points, &policy_points})
        for (const PointResult &point : *arm)
            if (point.stats.aggregate.completed +
                    point.stats.aggregate.shed !=
                requests_per_model * models.size())
                accounted = false;

    const double low_load_fairness = points.front().fairness;
    const double policy_low_fairness = policy_points.front().fairness;
    std::printf("accounting %s; fairness at %.1fx = %.3f (bar 0.85); "
                "policy-mode fairness %.3f (same bar)\n",
                accounted ? "ok" : "LOST REQUESTS",
                points.front().multiplier, low_load_fairness,
                policy_low_fairness);
    return accounted && low_load_fairness >= 0.85 &&
                   policy_low_fairness >= 0.85
               ? 0
               : 1;
}
