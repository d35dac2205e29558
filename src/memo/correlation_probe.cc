#include "memo/correlation_probe.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "tensor/vector_ops.hh"

namespace nlfm::memo
{

CorrelationProbe::CorrelationProbe(const nn::RnnNetwork &network,
                                   nn::BinarizedNetwork *bnn,
                                   const ProbeOptions &options)
    : network_(network), bnn_(bnn), options_(options),
      neuronCorr_(network.totalNeurons()),
      deltaHistogram_(options.deltaBins, 0.0, options.deltaCeiling)
{
    nlfm_assert(bnn != nullptr, "probe requires the binarized mirror");
}

void
CorrelationProbe::beginBatch(std::size_t total_sequences)
{
    slots_ = total_sequences;
    prevOutput_.assign(network_.totalNeurons() * slots_, 0.f);
    hasPrev_.assign(network_.totalNeurons() * slots_, 0);
}

void
CorrelationProbe::evaluateGateBatch(const nn::GateInstance &instance,
                                    const nn::GateParams &params,
                                    const tensor::Matrix &x,
                                    const tensor::Matrix &h,
                                    std::span<const std::size_t> rows,
                                    std::size_t slot_base,
                                    tensor::Matrix &preact)
{
    std::lock_guard<std::mutex> lock(callMutex_);
    const std::size_t slots = rows.size();
    const tensor::BitMatrix &signs =
        bnn_->gate(instance.instanceId).weights();

    // Each live slot's binarized input, once per gate call.
    inputs_.resize(slots);
    inputWords_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i) {
        if (inputs_[i].size() != signs.cols())
            inputs_[i] = tensor::BitVector(signs.cols());
        inputs_[i].assignConcat(x.row(rows[i]), h.row(rows[i]));
        inputWords_[i] = inputs_[i].raw().data();
    }

    // Per-range measurements, merged in range order after the join.
    struct Local
    {
        Histogram hist;
        RunningStats stats;
        PearsonAccumulator overall;
        std::vector<std::pair<float, int>> scatter;
        std::vector<std::int32_t> yb;
    };
    std::vector<Local> locals(
        neuronRangeCount(instance, slots),
        Local{Histogram(options_.deltaBins, 0.0, options_.deltaCeiling),
              {}, {}, {}, {}});

    forEachNeuronRange(instance, slots, [&](std::size_t range,
                                            std::size_t begin,
                                            std::size_t end) {
        params.wx.matvecPanel(x, rows, preact, false, begin, end);
        params.wh.matvecPanel(h, rows, preact, true, begin, end);
        Local &local = locals[range];
        for (std::size_t n0 = begin; n0 < end; n0 += nn::kNeuronBlock) {
            const std::size_t block = std::min(nn::kNeuronBlock, end - n0);
            local.yb.resize(block * slots);
            tensor::bnnDotPanel(signs, n0, block, inputWords_, local.yb);
            for (std::size_t r = 0; r < block; ++r) {
                const std::size_t flat = instance.neuronBase + n0 + r;
                for (std::size_t i = 0; i < slots; ++i) {
                    const float y_t = preact.row(rows[i])[n0 + r];
                    const int yb_t = local.yb[r * slots + i];
                    neuronCorr_[flat].add(y_t, yb_t);
                    local.overall.add(y_t, yb_t);

                    const std::size_t e = flat * slots_ + slot_base + rows[i];
                    if (hasPrev_[e]) {
                        const double delta = std::min(
                            tensor::relativeDifference(y_t, prevOutput_[e]),
                            options_.deltaCeiling);
                        local.hist.add(delta);
                        local.stats.add(delta);
                    }
                    prevOutput_[e] = y_t;
                    hasPrev_[e] = 1;

                    if (flat % options_.scatterStride == 0)
                        local.scatter.emplace_back(y_t, yb_t);
                }
            }
        }
    });

    for (const Local &local : locals) {
        deltaHistogram_.merge(local.hist);
        deltaStats_.merge(local.stats);
        overallCorr_.merge(local.overall);
        for (const auto &sample : local.scatter) {
            if (scatter_.size() >= options_.maxScatterSamples)
                break;
            scatter_.push_back(sample);
        }
    }
}

std::vector<double>
CorrelationProbe::neuronCorrelations() const
{
    std::vector<double> out;
    out.reserve(neuronCorr_.size());
    for (const auto &acc : neuronCorr_) {
        if (acc.count() >= 2)
            out.push_back(acc.correlation());
    }
    return out;
}

double
CorrelationProbe::overallCorrelation() const
{
    return overallCorr_.correlation();
}

double
CorrelationProbe::fractionBelow(double x) const
{
    if (deltaHistogram_.total() == 0)
        return 0.0;
    // Sum full bins below x; the bin containing x contributes pro rata.
    double below = 0.0;
    for (std::size_t i = 0; i < deltaHistogram_.bins(); ++i) {
        if (deltaHistogram_.binHi(i) <= x) {
            below += static_cast<double>(deltaHistogram_.count(i));
        } else if (deltaHistogram_.binLo(i) < x) {
            const double frac = (x - deltaHistogram_.binLo(i)) /
                                (deltaHistogram_.binHi(i) -
                                 deltaHistogram_.binLo(i));
            below += frac * static_cast<double>(deltaHistogram_.count(i));
        }
    }
    return below / static_cast<double>(deltaHistogram_.total());
}

} // namespace nlfm::memo
