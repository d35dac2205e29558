/**
 * @file
 * Theta-autopilot load ramp of the continuous-batching server: a fixed
 * theta against the closed-loop ThetaController on seed-paired
 * arrivals.
 *
 * Take the CANONICAL offline tune sweep (memo::sweepThresholds on the
 * tune split, the same §3.2.1 calibration every figure bench uses) as
 * the theta/reuse/loss curve, pin the fixed arm at the theta that sweep
 * tunes for a conservative 1% loss target, then ramp offered load past
 * capacity and serve the SAME seed-paired arrivals twice — once at that
 * fixed theta, once with the closed-loop ThetaController free to raise
 * the effective floor inside the curve's 5% accuracy budget. Reports
 * goodput, shed counts, and DELIVERED accuracy (served-vs-exact decodes
 * of the completed requests, scored with the workload's canonical loss
 * metric) per arm. The set-up and the closed-batch calibration are
 * bench_serving_load's (bench/common/open_loop.hh).
 *
 * Exits non-zero on any unaccounted request (completed + shed must
 * equal offered in every arm).
 */

#include <algorithm>
#include <cstdio>

#include "common/open_loop.hh"
#include "common/report.hh"
#include "metrics/accuracy.hh"

namespace
{

using namespace nlfm;

/** One arm of the autopilot ramp: stats plus quality accounting. */
struct RampResult
{
    serve::StatsSnapshot stats;
    /// Canonical task loss (corpus WER / 100-BLEU / flip rate) of the
    /// served decodes vs the exact-baseline decodes, over COMPLETED
    /// requests only (shed requests deliver nothing, so they cannot
    /// dilute it).
    double deliveredLossPct = 0.0;
    double meanServedTheta = 0.0;
    double maxFloor = 0.0;
};

/**
 * One open-loop run in which every request carries the "server
 * default" theta sentinel (the autopilot floor is the only quality
 * lever) and each completed response is decoded with the workload's
 * canonical read-out and scored against the request's exact-baseline
 * decode with the workload's canonical loss metric.
 */
RampResult
runRamp(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
        const workloads::WorkloadEvaluator &evaluator,
        const serve::ServerOptions &options,
        std::span<const nn::Sequence> requests,
        std::span<const metrics::TokenSeq> exact_decodes,
        double offered, double deadline_ms, std::uint64_t seed)
{
    serve::Server server(network, &bnn, options);
    std::vector<metrics::TokenSeq> served, exact;
    double theta_sum = 0.0;
    bench::serveOpenLoop(
        server, requests, offered, seed,
        [&](std::size_t, serve::Request &request) {
            request.theta = -1.0;
            request.deadlineMs = deadline_ms;
        },
        [&](std::size_t i, const serve::Response &response) {
            theta_sum += response.theta;
            served.push_back(evaluator.decodeSequence(response.output));
            exact.push_back(exact_decodes[i]);
        });

    RampResult result;
    result.stats = server.stats();
    result.maxFloor = server.maxThetaFloorSeen();
    result.meanServedTheta =
        served.empty()
            ? 0.0
            : theta_sum / static_cast<double>(served.size());
    result.deliveredLossPct =
        served.empty() ? 0.0 : evaluator.scoreLoss(exact, served);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "theta-autopilot load ramp: fixed tuned theta vs the closed-loop "
        "controller on seed-paired burst arrivals");
    auto study = bench::makeServingStudy(options, "autopilot_ramp");
    if (!study)
        return 1;
    workloads::Workload &workload = *study->workload;
    nn::RnnNetwork &network = *workload.network;
    nn::BinarizedNetwork &bnn = *workload.bnn;
    const std::vector<nn::Sequence> &requests = study->requests;
    const bench::Calibration &cal = study->calibration;
    const std::string &name = study->name;

    // Offline curve: the CANONICAL tune sweep — WorkloadEvaluator
    // on the tune split, scored with the workload's task metric.
    // This is exactly the §3.2.1 calibration artifact every figure
    // bench produces; the autopilot consumes it as its accuracy
    // bound, and the ramp then verifies DELIVERED accuracy on the
    // served (test-split) traffic with the same metric.
    const double max_loss_pct = 5.0;
    workloads::WorkloadEvaluator wl_evaluator(workload);
    const auto exact_outputs = network.forwardBatchBaseline(requests);
    std::vector<metrics::TokenSeq> exact_decodes;
    exact_decodes.reserve(exact_outputs.size());
    for (const auto &outputs : exact_outputs)
        exact_decodes.push_back(wl_evaluator.decodeSequence(outputs));

    const auto curve_thetas =
        bench::thetaGrid(workload.spec, options.quick ? 5 : 13);
    const std::vector<memo::TunePoint> curve_points =
        bench::runSweep(wl_evaluator, memo::PredictorKind::Bnn,
                        /*throttle=*/true, workloads::Split::Tune,
                        curve_thetas);
    TablePrinter curve_table("autopilot curve calibration (" + name + ")");
    curve_table.setHeader({"theta", "reuse", "loss %"});
    for (const memo::TunePoint &point : curve_points)
        curve_table.addRow({formatDouble(point.theta, 3),
                            formatPercent(point.reuse),
                            formatDouble(point.accuracyLoss, 2)});
    curve_table.print("autopilot_ramp_curve");

    // The fixed arm serves at the theta this sweep tunes for a
    // conservative 1% loss target — the operating point a quality-
    // first deployment would pick. The autopilot may spend the
    // remaining budget only under pressure.
    const bench::TunedPoint operating =
        bench::selectFromSweep(curve_points, 1.0);

    // The controller's bound is ADDITIONAL loss over that operating
    // point, not absolute loss: the fixed arm's quality is what the
    // deployment already delivers (including the predictor's
    // irreducible substitution error at theta ~ 0, several loss
    // points on the synthetic corpora), and the autopilot's promise
    // is "at most max_loss_pct worse than that, and only under
    // pressure". Feeding absolute losses to the prefix-conservative
    // curve would charge that floor against the budget and strand
    // the controller at the default on any workload whose metric
    // has a noise floor.
    std::vector<memo::TunePoint> relative_points = curve_points;
    for (memo::TunePoint &point : relative_points)
        point.accuracyLoss =
            std::max(0.0, point.accuracyLoss - operating.tuneLoss);

    const memo::TuneCurve curve =
        memo::TuneCurve::fromPoints(relative_points);
    const auto ceiling = curve.maxThetaForLoss(max_loss_pct);
    if (!ceiling || *ceiling <= operating.theta) {
        // No curve point above the default qualifies — the
        // controller would have nothing to trade. Honest skip (the
        // quick-mode topologies can land here), not a failure.
        std::printf("autopilot ramp skipped: no curve headroom "
                    "above theta %.3f within +%.1f%% loss\n",
                    operating.theta, max_loss_pct);
        return 0;
    }
    std::printf("autopilot: fixed arm at tuned theta %.3f "
                "(%.2f%% tune loss at the 1%% target); budget "
                "+%.1f%% additional loss allows theta <= "
                "%.3f\n",
                operating.theta, operating.tuneLoss, max_loss_pct,
                *ceiling);

    // Both arms share the full deadline-aware admission stack;
    // the ONLY difference is the controller.
    serve::ServerOptions fixed_options = study->serverOptions;
    fixed_options.memo.theta = operating.theta;
    fixed_options.queuePolicy = serve::QueuePolicy::Edf;
    fixed_options.shedExpired = true;
    fixed_options.shedPredicted = true;
    fixed_options.calibratedStepCostMs = cal.stepCostMs;

    serve::ServerOptions auto_options = fixed_options;
    auto_options.autopilot.enabled = true;
    auto_options.autopilot.curve = curve;
    auto_options.autopilot.maxAccuracyLoss = max_loss_pct;
    // Fast control relative to the burst drain (tens of ms):
    // the ladder must be climbable within one episode.
    auto_options.autopilot.controlIntervalMs = 5.0;

    struct RampPoint
    {
        double multiplier = 0.0;
        double offered = 0.0;
        RampResult fixed;
        RampResult autopilot;
    };
    std::vector<RampPoint> ramp_points;
    // Just past capacity through moderate overload (the 2-3x band).
    // Deeper ramps (5x+) mostly measure which unsavable requests the
    // shedder happened to pick — the controller's headroom is noise
    // there.
    const std::vector<double> ramp_multipliers =
        options.quick ? std::vector<double>{1.5}
                      : std::vector<double>{1.5, 2.0, 3.0};

    // Tile the request set: a 40-request burst drains before a
    // sustained backlog forms, which would leave the controller
    // nothing to react to. Three times the set holds the queue
    // past several control intervals.
    const std::size_t tiles = options.quick ? 1 : 3;
    std::vector<nn::Sequence> ramp_requests;
    std::vector<metrics::TokenSeq> ramp_decodes;
    ramp_requests.reserve(requests.size() * tiles);
    ramp_decodes.reserve(requests.size() * tiles);
    for (std::size_t tile = 0; tile < tiles; ++tile) {
        ramp_requests.insert(ramp_requests.end(), requests.begin(),
                             requests.end());
        ramp_decodes.insert(ramp_decodes.end(), exact_decodes.begin(),
                            exact_decodes.end());
    }
    // Queue must hold the whole tiled burst: enqueue-side
    // backpressure would throttle arrivals and break the
    // open-loop contract of the ramp.
    fixed_options.queueCapacity =
        std::max(fixed_options.queueCapacity, ramp_requests.size());
    auto_options.queueCapacity = fixed_options.queueCapacity;

    // Deadline sized to the BURST, not to one request: ~60% of
    // the fixed-theta drain time of the whole tiled set. Every
    // request a faster drain pulls under the wire is a goodput
    // win, so the deadline is sensitive to the reuse speedup
    // across its whole range — unlike the admission sweep's
    // per-request mix, whose tight half is unwinnable under a
    // burst (lost at any theta) and whose loose half is never
    // at risk.
    const double ramp_deadline_ms =
        0.6 * 1000.0 * static_cast<double>(ramp_requests.size()) /
        cal.capacity;
    std::printf("ramp deadline: %.0f ms (0.6x the %zu-request "
                "burst drain at calibrated capacity)\n",
                ramp_deadline_ms, ramp_requests.size());

    TablePrinter ramp_table("fixed theta vs autopilot (" + name + ")");
    ramp_table.setHeader({"arm", "offered/s", "goodput/s", "met", "shed",
                          "shed pred", "loss %", "mean theta",
                          "max floor"});
    // Replicated paired runs: wall-clock deadlines on a shared
    // machine put tens of met-counts of noise on a single
    // episode (a scheduler stall during one arm skews only that
    // arm). Each load point runs rep_count seed-paired pairs
    // and reports the pair with the MEDIAN autopilot-minus-
    // fixed met delta — the representative outcome, immune to
    // a single stalled episode on either side.
    const std::size_t rep_count = options.quick ? 1 : 3;
    bool accounted = true;
    // Arrival seeds: 11 upward, one per seed-paired rep.
    std::uint64_t seed = 11;
    for (const double multiplier : ramp_multipliers) {
        RampPoint point;
        point.multiplier = multiplier;
        point.offered = cal.capacity * multiplier;
        std::vector<RampPoint> reps;
        for (std::size_t rep = 0; rep < rep_count; ++rep) {
            RampPoint candidate = point;
            // Seed-paired arrivals: within a pair the goodput
            // difference is the controller, not Poisson luck.
            candidate.fixed = runRamp(network, bnn, wl_evaluator,
                                      fixed_options, ramp_requests,
                                      ramp_decodes, point.offered,
                                      ramp_deadline_ms, seed);
            candidate.autopilot = runRamp(network, bnn, wl_evaluator,
                                          auto_options, ramp_requests,
                                          ramp_decodes, point.offered,
                                          ramp_deadline_ms, seed);
            ++seed;
            reps.push_back(std::move(candidate));
        }
        std::sort(reps.begin(), reps.end(),
                  [](const RampPoint &a, const RampPoint &b) {
                      const auto delta = [](const RampPoint &p) {
                          return static_cast<long>(
                                     p.autopilot.stats.deadlineMet) -
                                 static_cast<long>(
                                     p.fixed.stats.deadlineMet);
                      };
                      return delta(a) < delta(b);
                  });
        point = reps[reps.size() / 2];
        for (const RampResult *arm : {&point.fixed, &point.autopilot}) {
            const serve::StatsSnapshot &s = arm->stats;
            ramp_table.addRow(
                {arm == &point.fixed ? "fixed" : "autopilot",
                 formatDouble(point.offered, 2),
                 formatDouble(s.goodput(), 2),
                 std::to_string(s.deadlineMet), std::to_string(s.shed),
                 std::to_string(s.shedPredicted),
                 formatDouble(arm->deliveredLossPct, 2),
                 formatDouble(arm->meanServedTheta, 3),
                 formatDouble(arm->maxFloor, 3)});
            if (s.completed + s.shed != ramp_requests.size())
                accounted = false;
        }
        ramp_points.push_back(point);
    }
    ramp_table.print("autopilot_ramp");

    // Acceptance summary. Deadline-met COUNTS, not goodput()
    // rates: the two arms' measured walls end at each arm's own
    // last event, so the rate denominators differ (see
    // tests/theta_controller_test.cc, ShedTruncatedWindow).
    bool goodput_up = true, accuracy_ok = true, sheds_down = true;
    for (const RampPoint &point : ramp_points) {
        if (point.autopilot.stats.deadlineMet <
            point.fixed.stats.deadlineMet)
            goodput_up = false;
        if (point.autopilot.deliveredLossPct >
            point.fixed.deliveredLossPct + max_loss_pct)
            accuracy_ok = false;
        if (point.autopilot.stats.shed > point.fixed.stats.shed)
            sheds_down = false;
        std::printf("ramp %.1fx: deadline met %zu -> %zu, shed %zu -> "
                    "%zu, delivered loss %.2f%% -> %.2f%% (budget "
                    "+%.2f%%), max floor %.3f\n",
                    point.multiplier, point.fixed.stats.deadlineMet,
                    point.autopilot.stats.deadlineMet,
                    point.fixed.stats.shed, point.autopilot.stats.shed,
                    point.fixed.deliveredLossPct,
                    point.autopilot.deliveredLossPct, max_loss_pct,
                    point.autopilot.maxFloor);
    }
    std::printf("autopilot acceptance: goodput %s, accuracy "
                "%s, sheds %s\n",
                goodput_up ? "up" : "NOT up",
                accuracy_ok ? "within budget" : "VIOLATED",
                sheds_down ? "down" : "NOT down");
    std::printf("accounting %s\n", accounted ? "ok" : "LOST REQUESTS");
    return accounted ? 0 : 1;
}
