/**
 * @file
 * Ablation: the paper's §1 argument that *input similarity* is a poor
 * reuse predictor — "small changes in an input that is multiplied by a
 * large weight will introduce a significant change in the output" — so
 * the predictor must look at inputs *and* weights, which the BNN does.
 *
 * We implement the strawman (reuse a gate's cached outputs when the
 * gate's input vector changed by less than theta in mean relative
 * terms) and compare loss at matched reuse levels against the BNN
 * predictor and the Oracle.
 */

#include "common/bench_common.hh"

#include <cmath>

#include "common/report.hh"
#include "metrics/bleu.hh"
#include "metrics/edit_distance.hh"

using namespace nlfm;

namespace
{

/**
 * Strawman evaluator: per gate instance and sequence slot, cache the
 * previous input vector and per-neuron outputs; reuse the slot's whole
 * gate output when the mean relative input change is below theta.
 */
class InputSimilarityEvaluator : public nn::BatchGateEvaluator
{
  public:
    InputSimilarityEvaluator(const nn::RnnNetwork &network, double theta)
        : theta_(theta), gates_(network.gateInstances().size())
    {
    }

    void
    beginBatch(std::size_t total_sequences) override
    {
        slots_ = total_sequences;
        prevInput_.assign(gates_ * slots_, {});
        cachedOutput_.assign(gates_ * slots_, {});
        valid_.assign(gates_ * slots_, 0);
        totalSlots_.assign(slots_, 0);
        reusedSlots_.assign(slots_, 0);
    }

    void
    evaluateGateBatch(const nn::GateInstance &instance,
                      const nn::GateParams &params, const tensor::Matrix &x,
                      const tensor::Matrix &h,
                      std::span<const std::size_t> rows,
                      std::size_t slot_base, tensor::Matrix &preact) override
    {
        std::vector<std::size_t> missing;
        for (const std::size_t b : rows) {
            const std::size_t slot = slot_base + b;
            const std::size_t key = instance.instanceId * slots_ + slot;
            auto &prev = prevInput_[key];
            std::vector<float> concat(x.row(b).begin(), x.row(b).end());
            concat.insert(concat.end(), h.row(b).begin(), h.row(b).end());

            bool reuse = false;
            if (valid_[key]) {
                double total = 0.0;
                for (std::size_t i = 0; i < concat.size(); ++i) {
                    const double denom =
                        std::max(1e-6, std::fabs(double(prev[i])));
                    total += std::fabs(concat[i] - prev[i]) / denom;
                }
                reuse = total / static_cast<double>(concat.size()) <= theta_;
            }

            totalSlots_[slot] += instance.neurons;
            if (reuse) {
                const auto &cache = cachedOutput_[key];
                std::copy(cache.begin(), cache.end(), preact.row(b).begin());
                reusedSlots_[slot] += instance.neurons;
                continue;
            }
            prev = std::move(concat);
            valid_[key] = 1;
            missing.push_back(b);
        }
        if (missing.empty())
            return;
        params.wx.matvecPanel(x, missing, preact, false);
        params.wh.matvecPanel(h, missing, preact, true);
        for (const std::size_t b : missing)
            cachedOutput_[instance.instanceId * slots_ + slot_base + b]
                .assign(preact.row(b).begin(), preact.row(b).end());
    }

    double
    reuseFraction() const
    {
        std::uint64_t total = 0;
        std::uint64_t reused = 0;
        for (std::size_t slot = 0; slot < slots_; ++slot) {
            total += totalSlots_[slot];
            reused += reusedSlots_[slot];
        }
        return total ? static_cast<double>(reused) /
                           static_cast<double>(total)
                     : 0.0;
    }

  private:
    double theta_;
    std::size_t gates_;
    std::size_t slots_ = 0;
    // Per (gate instance, slot): index instanceId * slots_ + slot.
    std::vector<std::vector<float>> prevInput_;
    std::vector<std::vector<float>> cachedOutput_;
    std::vector<std::uint8_t> valid_;
    // Per slot, so concurrent chunks never share a counter.
    std::vector<std::uint64_t> totalSlots_;
    std::vector<std::uint64_t> reusedSlots_;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "Ablation — input-similarity strawman vs BNN vs Oracle");
    if (options.networks.size() == 4)
        options.networks = {"EESEN"};
    bench::printBanner("Ablation: predictor quality", options);

    bench::WorkloadSet set(options);
    for (const auto &name : set.names()) {
        auto &workload = set.get(name);
        auto &evaluator = set.evaluator(name);
        const auto thetas =
            bench::thetaGrid(workload.spec, options.thetaPoints);

        TablePrinter table(name + " — loss at swept thresholds "
                                  "(compare losses at matched reuse)");
        table.setHeader({"theta", "input-sim_reuse_%", "input-sim_loss_%",
                         "bnn_reuse_%", "bnn_loss_%", "oracle_reuse_%",
                         "oracle_loss_%"});

        const auto bnn =
            bench::runSweep(evaluator, memo::PredictorKind::Bnn, true,
                            workloads::Split::Test, thetas);
        const auto oracle =
            bench::runSweep(evaluator, memo::PredictorKind::Oracle,
                            false, workloads::Split::Test, thetas);

        const auto &reference =
            evaluator.baselineDecodes(workloads::Split::Test);
        for (std::size_t i = 0; i < thetas.size(); ++i) {
            InputSimilarityEvaluator strawman(*workload.network,
                                              thetas[i]);
            const auto decodes =
                evaluator.decode(workloads::Split::Test, strawman);
            // Score via the same machinery the evaluator uses: build a
            // one-off run through WorkloadEvaluator's loss by reusing
            // its baseline decodes.
            double loss;
            {
                // Piggyback on the evaluator's scoring by comparing
                // token streams with the task's metric.
                using workloads::TaskKind;
                switch (workload.spec.task) {
                  case TaskKind::SpeechWer:
                    loss = 100.0 * metrics::corpusWordErrorRate(
                                       reference, decodes);
                    break;
                  case TaskKind::TranslationBleu:
                    loss = 100.0 -
                           metrics::corpusBleu(reference, decodes);
                    break;
                  case TaskKind::SentimentAccuracy: {
                    std::size_t flips = 0;
                    for (std::size_t s = 0; s < reference.size(); ++s)
                        flips += reference[s] != decodes[s] ? 1 : 0;
                    loss = 100.0 * static_cast<double>(flips) /
                           static_cast<double>(reference.size());
                    break;
                  }
                  default:
                    loss = 0.0;
                }
            }
            table.addRow({formatDouble(thetas[i], 3),
                          bench::pct(strawman.reuseFraction()),
                          formatDouble(loss, 2),
                          bench::pct(bnn[i].reuse),
                          formatDouble(bnn[i].accuracyLoss, 2),
                          bench::pct(oracle[i].reuse),
                          formatDouble(oracle[i].accuracyLoss, 2)});
        }
        table.print("ablation_predictor_" + name);
    }

    std::printf("expected: at matched reuse the input-similarity "
                "strawman loses noticeably more accuracy than the BNN "
                "(it is blind to the weights).\n");
    return 0;
}
