#include "common/bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/report.hh"

namespace nlfm::bench
{

BenchOptions
parseBenchArgs(int argc, const char *const *argv,
               const std::string &description)
{
    CliParser cli(description);
    cli.addString("networks", "all",
                  "comma list of IMDB,DeepSpeech2,EESEN,MNMT,"
                  "RateRNN,BRC (all = the four Table-1 networks)");
    cli.addString("cell", "",
                  "repeatable: sweep one zoo network per cell family "
                  "(lstm,gru,raternn,brc) on a matched theta grid "
                  "(fig16; overrides --networks)");
    cli.addInt("steps", 0, "timesteps per sequence (0 = spec default)");
    cli.addInt("sequences", 0, "sequences per split (0 = spec default)");
    cli.addInt("theta-points", 8, "threshold sweep resolution");
    cli.addBool("quick", false, "downsized smoke run");
    cli.addString("trace-out", "",
                  "bench_serving_load: run one extra telemetry-enabled "
                  "load point and write its Chrome trace-event JSON "
                  "here (load in Perfetto), printing the metrics "
                  "exposition alongside");
    if (!cli.parse(argc, argv))
        std::exit(0);

    BenchOptions options;
    options.steps = static_cast<std::size_t>(cli.getInt("steps"));
    options.sequences =
        static_cast<std::size_t>(cli.getInt("sequences"));
    options.thetaPoints =
        static_cast<std::size_t>(cli.getInt("theta-points"));
    options.quick = cli.getBool("quick");
    options.traceOut = cli.getString("trace-out");
    options.cells = cli.getStringList("cell");

    const std::string networks = cli.getString("networks");
    if (networks == "all") {
        for (const auto &spec : workloads::table1Networks())
            options.networks.push_back(spec.name);
    } else {
        std::stringstream stream(networks);
        std::string token;
        while (std::getline(stream, token, ','))
            if (!token.empty())
                options.networks.push_back(token);
    }
    nlfm_assert(!options.networks.empty(), "no networks selected");
    return options;
}

WorkloadSet::WorkloadSet(const BenchOptions &options) : options_(options)
{
    names_ = options.networks;
}

workloads::Workload &
WorkloadSet::get(const std::string &name)
{
    auto it = workloads_.find(name);
    if (it == workloads_.end()) {
        workloads::NetworkSpec spec = workloads::specByName(name);
        std::size_t steps = options_.steps;
        std::size_t sequences = options_.sequences;
        if (options_.quick) {
            // Smoke mode: shrink the topology but keep its character
            // (cell type, directionality, relative depth).
            spec.rnn.hiddenSize =
                std::max<std::size_t>(32, spec.rnn.hiddenSize / 8);
            spec.rnn.layers =
                std::max<std::size_t>(1, spec.rnn.layers / 2);
            spec.rnn.inputSize =
                std::max<std::size_t>(24, spec.rnn.inputSize / 4);
            if (steps == 0)
                steps = std::max<std::size_t>(16, spec.defaultSteps / 4);
            if (sequences == 0)
                sequences =
                    std::max<std::size_t>(2, spec.defaultSequences / 2);
        }
        auto workload = workloads::buildWorkload(spec, steps, sequences);
        it = workloads_.emplace(name, std::move(workload)).first;
    }
    return *it->second;
}

workloads::WorkloadEvaluator &
WorkloadSet::evaluator(const std::string &name)
{
    auto it = evaluators_.find(name);
    if (it == evaluators_.end()) {
        it = evaluators_
                 .emplace(name,
                          std::make_unique<workloads::WorkloadEvaluator>(
                              get(name)))
                 .first;
    }
    return *it->second;
}

const std::vector<memo::TunePoint> &
WorkloadSet::tuneSweep(const std::string &name, std::size_t theta_points)
{
    auto it = sweeps_.find(name);
    if (it == sweeps_.end()) {
        const auto thetas = thetaGrid(get(name).spec, theta_points);
        auto points =
            runSweep(evaluator(name), memo::PredictorKind::Bnn,
                     /*throttle=*/true, workloads::Split::Tune, thetas);
        it = sweeps_.emplace(name, std::move(points)).first;
    }
    return it->second;
}

std::vector<double>
thetaGrid(const workloads::NetworkSpec &spec, std::size_t points)
{
    // Quadratic spacing: the accuracy-loss knee sits at small theta, so
    // spending half the grid below thetaMax/4 resolves the paper's
    // "highest reuse under the loss target" selection far better than a
    // uniform grid.
    const std::size_t n = std::max<std::size_t>(2, points);
    std::vector<double> thetas(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u =
            static_cast<double>(i) / static_cast<double>(n - 1);
        thetas[i] = spec.thetaMax * u * u;
    }
    return thetas;
}

std::vector<memo::TunePoint>
runSweep(workloads::WorkloadEvaluator &evaluator, memo::PredictorKind kind,
         bool throttle, workloads::Split split,
         std::span<const double> thetas)
{
    memo::MemoOptions options;
    options.predictor = kind;
    options.throttle = throttle;
    return memo::sweepThresholds(
        evaluator.tuneExperiment(options, split), thetas);
}

TunedPoint
selectFromSweep(std::span<const memo::TunePoint> points,
                double target_loss_pct)
{
    TunedPoint tuned;
    const auto best = memo::selectThreshold(points, target_loss_pct);
    if (best) {
        tuned.theta = best->theta;
        tuned.tuneReuse = best->reuse;
        tuned.tuneLoss = best->accuracyLoss;
        tuned.metTarget = true;
        return tuned;
    }
    // Fallback: the most accurate point, preferring higher reuse among
    // points within 0.3 loss points of the minimum (measurement noise
    // on the small synthetic corpora).
    nlfm_assert(!points.empty(), "empty sweep");
    double min_loss = points[0].accuracyLoss;
    for (const auto &point : points)
        min_loss = std::min(min_loss, point.accuracyLoss);
    const memo::TunePoint *fallback = nullptr;
    for (const auto &point : points) {
        if (point.accuracyLoss > min_loss + 0.3)
            continue;
        if (!fallback || point.reuse > fallback->reuse)
            fallback = &point;
    }
    tuned.theta = fallback->theta;
    tuned.tuneReuse = fallback->reuse;
    tuned.tuneLoss = fallback->accuracyLoss;
    tuned.metTarget = false;
    return tuned;
}

TunedPoint
tuneForTarget(workloads::WorkloadEvaluator &evaluator,
              memo::PredictorKind kind, double target_loss_pct,
              std::span<const double> thetas)
{
    const auto points = runSweep(evaluator, kind, /*throttle=*/true,
                                 workloads::Split::Tune, thetas);
    return selectFromSweep(points, target_loss_pct);
}

std::vector<std::size_t>
splitSteps(const workloads::Workload &workload, workloads::Split split)
{
    const auto &inputs = split == workloads::Split::Tune
                             ? workload.tuneInputs
                             : workload.testInputs;
    std::vector<std::size_t> steps;
    steps.reserve(inputs.size());
    for (const auto &sequence : inputs)
        steps.push_back(sequence.size());
    return steps;
}

epur::Simulator
makeSimulator()
{
    return epur::Simulator{epur::EpurConfig{},
                           epur::EnergyParams::defaults()};
}

TargetRun
runAtTarget(WorkloadSet &set, const std::string &name,
            double target_loss_pct, std::size_t theta_points)
{
    auto &workload = set.get(name);
    auto &evaluator = set.evaluator(name);

    TargetRun run;
    run.tuned = selectFromSweep(set.tuneSweep(name, theta_points),
                                target_loss_pct);

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = run.tuned.theta;
    options.recordTrace = true;
    const workloads::EvalRun eval_run =
        evaluator.evaluateWithTrace(options, workloads::Split::Test);
    run.test = eval_run.result;

    const epur::Simulator sim = makeSimulator();
    run.baseline = sim.simulateBaseline(
        *workload.network, splitSteps(workload, workloads::Split::Test));
    run.memoized =
        sim.simulateMemoized(*workload.network, eval_run.traces);
    return run;
}

std::string
pct(double fraction, int digits)
{
    return formatDouble(100.0 * fraction, digits);
}

void
printBanner(const std::string &title, const BenchOptions &options)
{
    std::printf("=== %s ===\n", title.c_str());
    std::printf("networks:");
    for (const auto &name : options.networks)
        std::printf(" %s", name.c_str());
    std::printf("%s\n", options.quick ? "  [quick mode]" : "");
    std::printf("(paper: Silfa et al., \"Neuron-Level Fuzzy Memoization "
                "in RNNs\", MICRO-52 2019; synthetic-substitute "
                "workloads, see DESIGN.md)\n\n");
    std::fflush(stdout);
}

} // namespace nlfm::bench
