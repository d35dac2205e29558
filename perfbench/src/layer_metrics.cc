#include "layer_metrics.hh"

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.hh"
#include "nn/rnn_network.hh"
#include "tensor/bitpack.hh"

namespace nlfm::perfbench
{

namespace
{

std::string
layerName(const char *group, std::size_t layer, const char *metric)
{
    return std::string(group) + ".layer" + std::to_string(layer) + "." +
           metric;
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Wall time of repeated calls to @p body: median seconds per call over
/// at least three calls and about @p budget_seconds in total.
template <typename Body>
double
medianCallSeconds(double budget_seconds, Body &&body)
{
    std::vector<double> samples;
    const Clock::time_point start = Clock::now();
    while (samples.size() < 3 || secondsSince(start) < budget_seconds) {
        const Clock::time_point t = Clock::now();
        body();
        samples.push_back(secondsSince(t));
    }
    return median(std::move(samples));
}

} // namespace

void
reportTensorProbe(Report &report,
                  std::span<const nn::RnnNetwork *const> networks,
                  double budget_seconds)
{
    constexpr std::size_t kPanelRows = 16;
    constexpr std::size_t kBnnRows = 32;
    constexpr std::size_t kBnnSlots = 16;

    Rng rng(0x7e57);
    std::vector<std::size_t> rows(kPanelRows);
    for (std::size_t r = 0; r < kPanelRows; ++r)
        rows[r] = r;

    // One input panel per operand width, one output panel per gate width.
    std::map<std::size_t, tensor::Matrix> inputs;
    std::map<std::size_t, tensor::Matrix> outputs;
    std::vector<const nn::GateParams *> gates;
    double flops = 0.0;
    double weight_bytes = 0.0;
    std::size_t widest_input = 0;
    for (const nn::RnnNetwork *network : networks) {
        for (const nn::GateInstance &g : network->gateInstances()) {
            const nn::GateParams &params = network->gateParams(g.instanceId);
            gates.push_back(&params);
            for (const std::size_t width : {params.xSize(), params.hSize()}) {
                if (inputs.count(width) == 0) {
                    tensor::Matrix panel(kPanelRows, width);
                    for (float &v : panel.data())
                        v = static_cast<float>(rng.normal());
                    inputs.emplace(width, std::move(panel));
                }
            }
            outputs.try_emplace(params.neurons(), kPanelRows,
                                params.neurons());
            const double weights = static_cast<double>(
                params.wx.size() + params.wh.size());
            flops += 2.0 * weights * kPanelRows;
            weight_bytes += weights * sizeof(float);
            widest_input =
                std::max(widest_input, params.xSize() + params.hSize());
        }
    }

    const double panel_s = medianCallSeconds(budget_seconds, [&] {
        for (const nn::GateParams *params : gates) {
            tensor::Matrix &out = outputs.at(params->neurons());
            params->wx.matvecPanel(inputs.at(params->xSize()), rows, out,
                                   false);
            params->wh.matvecPanel(inputs.at(params->hSize()), rows, out,
                                   true);
        }
    });
    report.add("tensor.panel_gflops", flops / panel_s * 1e-9, "GFLOP/s");
    report.add("tensor.panel_weight_gbps", weight_bytes / panel_s * 1e-9,
               "GB/s");
    report.add("tensor.weight_mb_per_tick", weight_bytes * 1e-6, "MB");

    tensor::BitMatrix signs(kBnnRows, widest_input);
    std::vector<float> row(widest_input);
    for (std::size_t r = 0; r < kBnnRows; ++r) {
        rng.fillNormal(row, 0.0, 1.0);
        signs.setRow(r, row);
    }
    std::vector<tensor::BitVector> probes;
    std::vector<const std::uint64_t *> lanes;
    for (std::size_t s = 0; s < kBnnSlots; ++s) {
        rng.fillNormal(row, 0.0, 1.0);
        probes.push_back(tensor::BitVector::fromFloats(row));
    }
    for (const auto &probe : probes)
        lanes.push_back(probe.raw().data());
    std::vector<std::int32_t> dots(kBnnRows * kBnnSlots);
    constexpr std::size_t kCallsPerSample = 256;
    const double bnn_s = medianCallSeconds(budget_seconds, [&] {
        for (std::size_t i = 0; i < kCallsPerSample; ++i)
            tensor::bnnDotPanel(signs, 0, kBnnRows, lanes, dots);
    });
    const double words = static_cast<double>(kBnnRows * kBnnSlots *
                                             signs.wordStride() *
                                             kCallsPerSample);
    report.add("tensor.bnn_panel_gwords_s", words / bnn_s * 1e-9,
               "Gword/s");
    std::printf("tensor probe: %zu gates, bnnDotPanel %zux%zu at %zu bits, "
                "isa %s\n",
                gates.size(), kBnnRows, kBnnSlots, widest_input,
                tensor::bnnIsaName(tensor::bnnActiveIsa()));
}

LayerAccumulator::Layer &
LayerAccumulator::layer(std::size_t index)
{
    if (layers_.size() <= index)
        layers_.resize(index + 1);
    return layers_[index];
}

void
LayerAccumulator::addExact(const TimedEvaluator &timed)
{
    for (const GateSpan &span : timed.spans()) {
        Layer &l = layer(span.layer);
        l.exactNs += static_cast<double>(span.durNs);
        l.exactNeuronSteps += static_cast<double>(span.neuronSteps);
    }
    std::uint32_t max_rep = 0;
    for (const GateSpan &span : timed.spans())
        max_rep = std::max(max_rep, span.rep);
    exactPasses_ += timed.spans().empty() ? 0 : max_rep + 1;
}

void
LayerAccumulator::addMemo(const TimedEvaluator &timed, double wall_ms,
                          std::size_t passes, const memo::ReuseStats &stats,
                          std::span<const nn::GateInstance> instances)
{
    std::vector<double> steps_by_layer;
    for (const GateSpan &span : timed.spans()) {
        Layer &l = layer(span.layer);
        l.memoNs += static_cast<double>(span.durNs);
        l.memoNeuronSteps += static_cast<double>(span.neuronSteps);
        l.probeNs += static_cast<double>(span.probeNs);
        l.decideNs += static_cast<double>(span.decideNs);
        l.commitNs += static_cast<double>(span.commitNs);
        if (steps_by_layer.size() <= span.layer)
            steps_by_layer.resize(span.layer + 1, 0.0);
        steps_by_layer[span.layer] += static_cast<double>(span.neuronSteps);
    }
    const std::vector<double> reuse =
        memo::layerReuseFractions(stats, instances);
    for (std::size_t i = 0; i < reuse.size() && i < steps_by_layer.size();
         ++i) {
        layer(i).reusedNeuronSteps += reuse[i] * steps_by_layer[i];
        layer(i).reuseWeight += steps_by_layer[i];
    }
    memoWallMs_ += wall_ms;
    memoCalls_ += static_cast<double>(timed.spans().size());
    memoPasses_ += passes;
}

void
LayerAccumulator::report(Report &report) const
{
    const double memo_passes = static_cast<double>(memoPasses_);
    const double exact_passes = static_cast<double>(exactPasses_);
    for (std::size_t i = 0; i < kReportedLayers; ++i) {
        const std::string reuse = layerName("memo", i, "reuse_pct");
        const std::string even = layerName("memo", i, "break_even_reuse_pct");
        if (i >= layers_.size() || layers_[i].memoNeuronSteps == 0.0) {
            report.notApplicable(reuse, "%");
            report.notApplicable(even, "%");
            continue;
        }
        const Layer &l = layers_[i];
        report.add(reuse, 100.0 * ratio(l.reusedNeuronSteps, l.reuseWeight),
                   "%");
        // Fig. 19 on a CPU: the reuse at which the predictor's overhead
        // per neuron-step (probe + decide) equals the exact gate cost
        // that reuse saves.
        const double overhead =
            ratio(l.probeNs + l.decideNs, l.memoNeuronSteps);
        const double exact = ratio(l.exactNs, l.exactNeuronSteps);
        if (exact > 0.0)
            report.add(even, 100.0 * overhead / exact, "%");
        else
            report.notApplicable(even, "%");
    }
    for (std::size_t i = 0; i < kReportedLayers; ++i) {
        const std::string gate = layerName("nn", i, "gate_ms");
        const std::string exact = layerName("nn", i, "exact_gate_ms");
        const bool present = i < layers_.size();
        if (present && memoPasses_ > 0 && layers_[i].memoNs > 0.0)
            report.add(gate, layers_[i].memoNs * 1e-6 / memo_passes, "ms");
        else
            report.notApplicable(gate, "ms");
        if (present && exactPasses_ > 0 && layers_[i].exactNs > 0.0)
            report.add(exact, layers_[i].exactNs * 1e-6 / exact_passes,
                       "ms");
        else
            report.notApplicable(exact, "ms");
    }
    double gate_ms = 0.0;
    for (const Layer &l : layers_)
        gate_ms += l.memoNs * 1e-6;
    report.add("nn.cell_ms", ratio(memoWallMs_ - gate_ms, memo_passes), "ms",
               memoPasses_);
    report.add("nn.gate_calls", ratio(memoCalls_, memo_passes), "count",
               memoPasses_);
}

MemoTotals
LayerAccumulator::memoTotals() const
{
    double probe = 0.0, decide = 0.0, commit = 0.0, steps = 0.0, misses = 0.0;
    for (const Layer &l : layers_) {
        probe += l.probeNs;
        decide += l.decideNs;
        commit += l.commitNs;
        steps += l.memoNeuronSteps;
        misses += l.memoNeuronSteps *
                  (1.0 - ratio(l.reusedNeuronSteps, l.reuseWeight));
    }
    return {static_cast<std::uint64_t>(probe),
            static_cast<std::uint64_t>(decide),
            static_cast<std::uint64_t>(commit),
            static_cast<std::uint64_t>(steps),
            static_cast<std::uint64_t>(misses)};
}

void
reportMemoTotals(Report &report, const MemoTotals &totals)
{
    const double steps = static_cast<double>(totals.neuronSteps);
    report.add("memo.probe_ns_per_neuron_step",
               ratio(static_cast<double>(totals.probeNs), steps), "ns");
    report.add("memo.decide_ns_per_neuron_step",
               ratio(static_cast<double>(totals.decideNs), steps), "ns");
    report.add("memo.commit_ns_per_miss",
               ratio(static_cast<double>(totals.commitNs),
                     static_cast<double>(totals.misses)),
               "ns");
    report.add("memo.reuse_pct",
               100.0 * (1.0 - ratio(static_cast<double>(totals.misses),
                                    steps)),
               "%");
}

ServedRequest::ServedRequest(const serve::Response &response,
                             std::size_t neurons)
    : queueMs(response.queueMs), serviceMs(response.serviceMs),
      latencyMs(response.latencyMs), steps(response.steps),
      reuseFraction(response.reuseFraction),
      warmResumed(response.warmResumed), neurons(neurons)
{
}

MemoTotals
memoTotalsFromTrace(const ServeObservation &observation)
{
    MemoTotals totals;
    for (const serve::TraceSpan &span : observation.spans) {
        const auto dur = static_cast<std::uint64_t>(span.durNs);
        if (span.phase == serve::TracePhase::Probe)
            totals.probeNs += dur;
        else if (span.phase == serve::TracePhase::Decide)
            totals.decideNs += dur;
        else if (span.phase == serve::TracePhase::Commit)
            totals.commitNs += dur;
    }
    double misses = 0.0;
    for (const ServedRequest &r : observation.responses) {
        const double steps = static_cast<double>(r.steps * r.neurons);
        totals.neuronSteps += static_cast<std::uint64_t>(steps);
        misses += steps * (1.0 - r.reuseFraction);
    }
    totals.misses = static_cast<std::uint64_t>(misses);
    return totals;
}

namespace
{

/// One driver-loop iteration reconstructed from the tracer's spans:
/// the admissions before it, staging, the step, and its completions.
struct Tick
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t stepNs = 0;
    bool stepped = false;
};

std::vector<Tick>
reconstructTicks(const std::vector<serve::TraceSpan> &spans)
{
    std::vector<Tick> ticks;
    std::optional<Tick> current;
    const auto extend = [&](const serve::TraceSpan &span) {
        if (!current) {
            current = Tick{span.startNs, span.startNs + span.durNs, 0, false};
            return;
        }
        current->startNs = std::min(current->startNs, span.startNs);
        current->endNs = std::max(current->endNs, span.startNs + span.durNs);
    };
    for (const serve::TraceSpan &span : spans) {
        switch (span.phase) {
          case serve::TracePhase::Admit:
          case serve::TracePhase::SessionRestore:
          case serve::TracePhase::Stage:
            if (current && current->stepped) {
                ticks.push_back(*current);
                current.reset();
            }
            extend(span);
            break;
          case serve::TracePhase::Step:
            extend(span);
            current->stepNs += span.durNs;
            current->stepped = true;
            break;
          case serve::TracePhase::Complete:
            extend(span);
            break;
          default: // attribution and request-lifecycle spans
            break;
        }
    }
    if (current && current->stepped)
        ticks.push_back(*current);
    return ticks;
}

std::vector<double>
spanMicros(const std::vector<serve::TraceSpan> &spans,
           serve::TracePhase phase)
{
    std::vector<double> out;
    for (const serve::TraceSpan &span : spans)
        if (span.phase == phase)
            out.push_back(static_cast<double>(span.durNs) * 1e-3);
    return out;
}

} // namespace

void
reportServe(Report &report, const ServeObservation *observation)
{
    if (observation == nullptr) {
        for (const char *name :
             {"serve.enqueue_us_p50", "serve.admit_us_p50",
              "serve.complete_us_p50", "serve.tick_us_p50",
              "serve.step_us_p50"})
            report.notApplicable(name, "us");
        report.notApplicable("serve.tick_overhead_pct", "%");
        report.notApplicable("serve.queue_ms_p50", "ms");
        report.notApplicable("serve.queue_ms_p99", "ms");
        report.notApplicable("serve.service_ms_p50", "ms");
        report.notApplicable("serve.slots_busy_mean", "count");
        report.notApplicable("serve.shed", "count");
        report.notApplicable("serve.trace_dropped", "count");
        report.notApplicable("serve.session_restore_us_p50", "us");
        report.notApplicable("serve.warm_resume_pct", "%");
        return;
    }
    const ServeObservation &o = *observation;
    const auto add_p50 = [&](const char *name, std::vector<double> values) {
        const std::size_t n = values.size();
        report.add(name, median(std::move(values)), "us", n);
    };
    add_p50("serve.enqueue_us_p50", o.enqueueUs);
    add_p50("serve.admit_us_p50", spanMicros(o.spans, serve::TracePhase::Admit));
    add_p50("serve.complete_us_p50",
            spanMicros(o.spans, serve::TracePhase::Complete));

    const std::vector<Tick> ticks = reconstructTicks(o.spans);
    std::vector<double> tick_us, step_us;
    double tick_total = 0.0, step_total = 0.0;
    for (const Tick &t : ticks) {
        tick_us.push_back(static_cast<double>(t.endNs - t.startNs) * 1e-3);
        step_us.push_back(static_cast<double>(t.stepNs) * 1e-3);
        tick_total += static_cast<double>(t.endNs - t.startNs);
        step_total += static_cast<double>(t.stepNs);
    }
    add_p50("serve.tick_us_p50", tick_us);
    add_p50("serve.step_us_p50", step_us);
    report.add("serve.tick_overhead_pct",
               100.0 * ratio(tick_total - step_total, tick_total), "%",
               ticks.size());

    std::vector<double> queue_ms, service_ms;
    double busy_ms = 0.0;
    std::size_t warm = 0;
    for (const ServedRequest &r : o.responses) {
        queue_ms.push_back(r.queueMs);
        service_ms.push_back(r.serviceMs);
        busy_ms += r.serviceMs;
        warm += r.warmResumed ? 1 : 0;
    }
    const std::size_t n = o.responses.size();
    report.add("serve.queue_ms_p50", percentile(queue_ms, 50.0), "ms", n);
    report.add("serve.queue_ms_p99", percentile(queue_ms, 99.0), "ms", n);
    report.add("serve.service_ms_p50", median(service_ms), "ms", n);
    report.add("serve.slots_busy_mean", ratio(busy_ms, o.windowMs), "count");
    report.add("serve.shed", static_cast<double>(o.shed), "count");
    report.add("serve.trace_dropped", static_cast<double>(o.traceDropped),
               "count");
    std::vector<double> restore_us =
        spanMicros(o.spans, serve::TracePhase::SessionRestore);
    if (o.resumableTurns == 0) {
        report.notApplicable("serve.session_restore_us_p50", "us");
        report.notApplicable("serve.warm_resume_pct", "%");
    } else {
        add_p50("serve.session_restore_us_p50", std::move(restore_us));
        report.add("serve.warm_resume_pct",
                   100.0 * ratio(static_cast<double>(warm),
                                 static_cast<double>(o.resumableTurns)),
                   "%", o.resumableTurns);
    }
}

} // namespace nlfm::perfbench
