#include "timed_evaluator.hh"

namespace nlfm::perfbench
{

namespace
{

struct PhaseSample
{
    std::uint64_t probe = 0;
    std::uint64_t decide = 0;
    std::uint64_t commit = 0;
};

PhaseSample
readPhases(const memo::GatePhaseTimes *phases)
{
    if (phases == nullptr)
        return {};
    return {phases->probeNs.load(std::memory_order_relaxed),
            phases->decideNs.load(std::memory_order_relaxed),
            phases->commitNs.load(std::memory_order_relaxed)};
}

} // namespace

TimedEvaluator::TimedEvaluator(nn::BatchGateEvaluator &inner,
                               const memo::GatePhaseTimes *phases)
    : inner_(inner), phases_(phases)
{
}

void
TimedEvaluator::evaluateGateBatch(const nn::GateInstance &instance,
                                  const nn::GateParams &params,
                                  const tensor::Matrix &x,
                                  const tensor::Matrix &h,
                                  std::span<const std::size_t> rows,
                                  std::size_t slot_base,
                                  tensor::Matrix &preact)
{
    const PhaseSample before = readPhases(phases_);
    const Clock::time_point start = Clock::now();
    inner_.evaluateGateBatch(instance, params, x, h, rows, slot_base, preact);
    const Clock::time_point end = Clock::now();
    const PhaseSample after = readPhases(phases_);

    GateSpan span;
    span.layer = static_cast<std::uint32_t>(instance.layer);
    span.rep = rep_;
    span.startNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
            .count();
    span.durNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    span.neuronSteps = rows.size() * instance.neurons;
    span.probeNs = after.probe - before.probe;
    span.decideNs = after.decide - before.decide;
    span.commitNs = after.commit - before.commit;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

void
TimedEvaluator::writeCsv(std::FILE *out, const char *kind) const
{
    for (const GateSpan &s : spans_)
        std::fprintf(out, "%s,%u,%u,%lld,%lld,%llu,%llu,%llu,%llu\n", kind,
                     s.layer, s.rep, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.durNs),
                     static_cast<unsigned long long>(s.neuronSteps),
                     static_cast<unsigned long long>(s.probeNs),
                     static_cast<unsigned long long>(s.decideNs),
                     static_cast<unsigned long long>(s.commitNs));
}

} // namespace nlfm::perfbench
