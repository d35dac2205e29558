/// @file
/// batch_ds2: offline closed batch on DeepSpeech2 (GRU 5x800). Every
/// repetition runs the exact pass (DirectBatchEvaluator) and the
/// memoized pass (BatchMemoEngine, BNN predictor, fixed theta) over the
/// same sequences. Weight streaming and the memo phases do nearly all
/// the work; the serve layer does none.

#include <cstdio>

#include "common/parallel.hh"
#include "layer_metrics.hh"
#include "workloads.hh"
#include "workloads/evaluators.hh"

namespace nlfm::perfbench
{

namespace
{

constexpr std::size_t kSequences = 16;
constexpr std::size_t kSteps = 20;
/// The tune sweep's minimum-loss theta (no theta reaches 1 % WER drift
/// on DeepSpeech2), taken once; see METRICS.md.
constexpr double kTheta = 0.0122;
/// BatchForwardOptions::pool: the caller plus three workers.
constexpr std::size_t kPoolThreads = 4;
constexpr std::size_t kSetupReps = 5;

} // namespace

void
runBatchDs2(const RunConfig &config, Report &report,
            CorrectnessLedger &ledger)
{
    const workloads::NetworkSpec &spec = workloads::specByName("DeepSpeech2");
    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = kTheta;

    ThreadPool pool(kPoolThreads);
    nn::BatchForwardOptions forward;
    forward.pool = &pool;
    nn::BatchForwardOptions unthreaded;
    unthreaded.threaded = false;

    // Set-up: workload build plus engine construction. The first half of
    // the repetitions run here, the rest at the end of the run.
    RunTail tail;
    std::vector<double> setup_s;
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<memo::BatchMemoEngine> engine;
    const auto set_up = [&] {
        engine.reset();
        workload.reset();
        const Clock::time_point start = Clock::now();
        workload = workloads::buildWorkload(spec, kBuildSteps, 1);
        tail.buildSeconds.push_back(secondsSince(start));
        engine = std::make_unique<memo::BatchMemoEngine>(
            *workload->network, workload->bnn.get(), options);
        setup_s.push_back(secondsSince(start));
    };
    for (std::size_t rep = 0; rep < (kSetupReps + 1) / 2; ++rep)
        set_up();
    nn::RnnNetwork &network = *workload->network;

    // Inputs come from the run seed only.
    Rng rng(config.seed);
    const InputGenerator gen(spec);
    std::vector<nn::Sequence> inputs;
    for (std::size_t i = 0; i < kSequences; ++i) {
        Rng seq_rng = rng.fork(i);
        inputs.push_back(gen.generate(kSteps, seq_rng));
    }

    // References from the library's serial path, untimed.
    std::vector<nn::Sequence> exact_ref, memo_ref;
    memo::MemoEngine serial(network, workload->bnn.get(), options);
    for (const nn::Sequence &input : inputs) {
        exact_ref.push_back(network.forwardBaseline(input));
        memo_ref.push_back(network.forward(input, serial));
    }
    const auto check_all = [&](const std::vector<nn::Sequence> &outputs,
                               const std::vector<nn::Sequence> &reference) {
        for (std::size_t i = 0; i < outputs.size(); ++i)
            ledger.check(outputs[i], reference[i]);
    };

    // Warm-up: touch every weight page before timing.
    nn::DirectBatchEvaluator direct;
    network.forwardBatch(inputs, direct, forward);
    network.forwardBatch(inputs, *engine, forward);

    memo::GatePhaseTimes phases;
    TimedEvaluator timed_exact(direct, nullptr);
    TimedEvaluator timed_memo(*engine, &phases);
    std::vector<double> exact_s, memo_s, traced_memo_s;
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    std::uint32_t rep = 0;
    while (secondsSince(start) < config.seconds || memo_s.size() < 3) {
        Clock::time_point t = Clock::now();
        if (config.trace) {
            // Traced passes alternate with plain memoized passes; the
            // difference between the two memoized medians is the
            // tracing overhead.
            timed_exact.setRep(rep);
            check_all(network.forwardBatch(inputs, timed_exact, unthreaded),
                      exact_ref);
            exact_s.push_back(secondsSince(t));

            t = Clock::now();
            check_all(network.forwardBatch(inputs, *engine, forward),
                      memo_ref);
            memo_s.push_back(secondsSince(t));

            engine->setPhaseSink(&phases);
            timed_memo.setRep(rep);
            t = Clock::now();
            check_all(network.forwardBatch(inputs, timed_memo, unthreaded),
                      memo_ref);
            traced_memo_s.push_back(secondsSince(t));
            engine->setPhaseSink(nullptr);
        } else {
            check_all(network.forwardBatch(inputs, direct, forward),
                      exact_ref);
            exact_s.push_back(secondsSince(t));
            t = Clock::now();
            check_all(network.forwardBatch(inputs, *engine, forward),
                      memo_ref);
            memo_s.push_back(secondsSince(t));
        }
        ++rep;
    }
    tail.wallSeconds = secondsSince(start);
    tail.cpuSeconds = processCpuSeconds() - cpu_start;
    const double peak_rss_mb = peakRssMb();

    const double n = static_cast<double>(kSequences);
    report.add("seq_per_s", n / median(memo_s), "seq/s", memo_s.size());
    report.add("exact_seq_per_s", n / median(exact_s), "seq/s",
               exact_s.size());
    // A closed batch completes all its sequences together, so it has no
    // per-request latency.
    report.notApplicable("p50_ms", "ms");
    report.notApplicable("p99_ms", "ms");

    workloads::WorkloadEvaluator evaluator(*workload);
    std::vector<metrics::TokenSeq> exact_decodes, memo_decodes;
    for (std::size_t i = 0; i < kSequences; ++i) {
        exact_decodes.push_back(evaluator.decodeSequence(exact_ref[i]));
        memo_decodes.push_back(evaluator.decodeSequence(memo_ref[i]));
    }
    report.add("loss_pts", evaluator.scoreLoss(exact_decodes, memo_decodes),
               "points", kSequences);
    reportOutcome(report, ledger, peak_rss_mb);

    if (config.trace) {
        const nn::RnnNetwork *networks[] = {&network};
        reportTensorProbe(report, networks, 0.3);

        LayerAccumulator layers;
        layers.addExact(timed_exact);
        double traced_ms = 0.0;
        for (const double s : traced_memo_s)
            traced_ms += s * 1e3;
        layers.addMemo(timed_memo, traced_ms, traced_memo_s.size(),
                       engine->stats(), network.gateInstances());
        reportMemoTotals(report, layers.memoTotals());
        layers.report(report);
        reportServe(report, nullptr);

        const double plain = median(memo_s);
        tail.traceOverheadPct =
            100.0 * (median(traced_memo_s) - plain) / plain;
        reportTail(report, tail);
        if (std::FILE *out = openSpans(config)) {
            timed_exact.writeCsv(out, "exact");
            timed_memo.writeCsv(out, "memo");
            std::fclose(out);
        }
    }

    // The second half of the set-ups; nothing above is used after this.
    while (setup_s.size() < kSetupReps)
        set_up();
    reportSetup(report, config, setup_s, tail);
}

} // namespace nlfm::perfbench
