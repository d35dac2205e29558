#include "nn/init.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/parallel.hh"

namespace nlfm::nn
{

void
initGate(GateParams &params, Rng &rng, const InitOptions &options,
         GateAux aux)
{
    const double scale_x =
        options.gain / std::sqrt(static_cast<double>(params.xSize()));
    const double scale_h =
        options.gain / std::sqrt(static_cast<double>(params.hSize()));
    const double d = options.magnitudeDispersion;

    auto draw = [&](double scale) {
        const double g = rng.normal();
        const double sign = g >= 0.0 ? 1.0 : -1.0;
        const double magnitude = (1.0 - d) + d * std::fabs(g);
        return static_cast<float>(sign * scale * magnitude);
    };

    for (std::size_t n = 0; n < params.neurons(); ++n) {
        for (auto &weight : params.wx.row(n))
            weight = draw(scale_x);
        for (auto &weight : params.wh.row(n))
            weight = draw(scale_h);
    }
    for (auto &bias : params.bias)
        bias = 0.f;
    if (aux != GateAux::Leak) {
        for (auto &peephole : params.peephole)
            peephole = static_cast<float>(
                rng.normal(0.0, options.peepholeScale));
    }
}

void
initNetwork(RnnNetwork &network, Rng &rng, const InitOptions &options)
{
    const CellDescriptor &desc =
        cellDescriptor(network.config().cellType);
    const std::vector<GateInstance> &instances = network.gateInstances();
    // Rng::fork advances the parent, so the streams are forked here, in
    // instance order, before any gate is filled: that order alone fixes
    // every gate's weights and the parent state later forks draw from,
    // whichever thread fills which gate.
    std::vector<Rng> streams;
    streams.reserve(instances.size());
    for (const auto &inst : instances)
        streams.push_back(rng.fork(inst.instanceId));

    // Gates differ in size (a layer-0 gate reads the network input), so
    // each thread claims the next unfilled gate rather than a fixed share.
    std::atomic<std::size_t> next{0};
    const auto fill = [&](std::size_t, std::size_t) {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < instances.size();
             i = next.fetch_add(1, std::memory_order_relaxed)) {
            GateParams &params = network.gateParams(instances[i].instanceId);
            const GateSpec &spec = desc.gates[instances[i].gate];
            initGate(params, streams[i], options, spec.aux);
            if (spec.biasBoost) {
                for (auto &bias : params.bias)
                    bias = static_cast<float>(options.forgetBias);
            }
        }
    };
    ThreadPool &pool = ThreadPool::global();
    pool.run(std::min(pool.threadCount(), instances.size()), fill);
}

} // namespace nlfm::nn
