#include "common/parallel.hh"
#include "workloads.hh"

namespace nlfm::perfbench
{

InputGenerator::InputGenerator(const workloads::NetworkSpec &spec)
    : spec_(spec)
{
    if (spec.task != workloads::TaskKind::SpeechWer) {
        // buildWorkload's embedding-table recipe: the table is part of
        // the model, so it stays fixed while the token streams follow
        // the benchmark seed.
        Rng embed_rng(spec.seed * 7919 + 17);
        embedder_ = std::make_unique<workloads::TokenEmbedder>(
            64, spec.rnn.inputSize, embed_rng, spec.embedMeanScale);
    }
}

nn::Sequence
InputGenerator::generate(std::size_t steps, Rng &rng) const
{
    if (!embedder_) {
        workloads::SpeechGenOptions options;
        options.dim = spec_.rnn.inputSize;
        options.correlation = spec_.inputSmoothness;
        return workloads::generateSpeechFrames(steps, options, rng);
    }
    return embedder_->embedSequence(workloads::generateMarkovTokens(
        steps, embedder_->vocab(), spec_.inputSmoothness, rng));
}

std::vector<nn::Sequence>
closedBatch(nn::RnnNetwork &network, std::span<const nn::Sequence> inputs,
            nn::BatchGateEvaluator &eval, memo::BatchMemoEngine *engine,
            ThreadPool &pool, LayerAccumulator *layers, std::FILE *spans_out,
            double &seconds)
{
    if (layers == nullptr) {
        nn::BatchForwardOptions forward;
        forward.pool = &pool;
        const Clock::time_point start = Clock::now();
        auto outputs = network.forwardBatch(inputs, eval, forward);
        seconds = secondsSince(start);
        return outputs;
    }
    memo::GatePhaseTimes phases;
    if (engine != nullptr)
        engine->setPhaseSink(&phases);
    TimedEvaluator timed(eval, engine != nullptr ? &phases : nullptr);
    nn::BatchForwardOptions unthreaded;
    unthreaded.threaded = false;
    const Clock::time_point start = Clock::now();
    auto outputs = network.forwardBatch(inputs, timed, unthreaded);
    seconds = secondsSince(start);
    if (engine != nullptr) {
        engine->setPhaseSink(nullptr);
        layers->addMemo(timed, seconds * 1e3, 1, engine->stats(),
                        network.gateInstances());
    } else {
        layers->addExact(timed);
    }
    if (spans_out != nullptr)
        timed.writeCsv(spans_out, engine != nullptr ? "memo" : "exact");
    return outputs;
}

std::FILE *
openSpans(const RunConfig &config)
{
    if (!config.trace)
        return nullptr;
    const std::string path = "spans_" + config.workload + ".csv";
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out != nullptr)
        std::fprintf(out, "kind,layer,rep,start_ns,dur_ns,neuron_steps,"
                          "probe_ns,decide_ns,commit_ns\n");
    return out;
}

void
reportOutcome(Report &report, const CorrectnessLedger &ledger,
              double peak_rss_mb)
{
    report.add("failed_pct",
               ledger.attempted() == 0
                   ? 100.0
                   : 100.0 * static_cast<double>(ledger.failed()) /
                         static_cast<double>(ledger.attempted()),
               "%", ledger.attempted());
    report.add("peak_rss_mb", peak_rss_mb, "MB");
}

void
reportTail(Report &report, const RunTail &tail)
{
    report.add("common.cpu_per_wall",
               tail.wallSeconds > 0.0 ? tail.cpuSeconds / tail.wallSeconds
                                      : 0.0,
               "ratio");
    if (tail.genLagMs.empty())
        report.notApplicable("bench.gen_lag_p99_ms", "ms");
    else
        report.add("bench.gen_lag_p99_ms", percentile(tail.genLagMs, 99.0),
                   "ms", tail.genLagMs.size());
    report.add("bench.trace_overhead_pct", tail.traceOverheadPct, "%");
}

void
reportSetup(Report &report, const RunConfig &config,
            const std::vector<double> &setup_s, const RunTail &tail)
{
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    if (config.trace)
        report.add("workloads.build_s", median(tail.buildSeconds), "s",
                   tail.buildSeconds.size());
}

} // namespace nlfm::perfbench
