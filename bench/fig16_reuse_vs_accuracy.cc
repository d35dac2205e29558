/**
 * @file
 * Figure 16: computation reuse versus accuracy loss with the Oracle and
 * the BNN predictors, per network.
 *
 * Paper anchors: for accuracy losses below ~2 % the BNN's reuse is
 * extremely similar to the Oracle's; EESEN/IMDB reach up to ~40 % reuse
 * below 3 % loss; DeepSpeech reaches ~20 % below 2 %; the MNMT BNN
 * tracks the oracle only up to ~23 % reuse (weakest correlation).
 *
 * --cell mode (repeatable, e.g. `--cell lstm --cell raternn`) swaps the
 * x-axis from networks to cell families: each family runs on its
 * representative zoo network (lstm -> IMDB, gru -> DeepSpeech2,
 * raternn -> RateRNN, brc -> BRC) and every family is swept on the SAME
 * theta grid (shared thetaMax = the max over the selected specs) so the
 * per-cell reuse-vs-loss curves are directly comparable point by point.
 */

#include <algorithm>
#include <cstdio>

#include "common/bench_common.hh"
#include "common/logging.hh"
#include "common/report.hh"
#include "nn/cell_descriptor.hh"

using namespace nlfm;

namespace
{

/** Representative zoo network for one --cell family. */
std::string
networkForCell(const std::string &cli_name)
{
    // cellTypeByName is fatal (with the known-name list) on a typo, so
    // a bad --cell value dies before any workload is built.
    switch (nn::cellTypeByName(cli_name)) {
      case nn::CellType::Lstm:
        return "IMDB";
      case nn::CellType::Gru:
        return "DeepSpeech2";
      case nn::CellType::RateRnn:
        return "RateRNN";
      case nn::CellType::Brc:
        return "BRC";
    }
    nlfm_panic("unmapped cell family: ", cli_name);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "Fig. 16 — reuse vs accuracy loss, Oracle and BNN predictors");

    // Cell mode: one representative network per family, matched grid.
    const bool cell_mode = !options.cells.empty();
    std::vector<double> shared_thetas;
    if (cell_mode) {
        options.networks.clear();
        double theta_max = 0.0;
        for (const auto &cell : options.cells) {
            const std::string network = networkForCell(cell);
            options.networks.push_back(network);
            theta_max = std::max(
                theta_max, workloads::specByName(network).thetaMax);
        }
        workloads::NetworkSpec grid_spec;
        grid_spec.thetaMax = theta_max;
        shared_thetas = bench::thetaGrid(grid_spec, options.thetaPoints);
    }
    bench::printBanner("Figure 16: reuse vs accuracy loss", options);
    if (cell_mode) {
        std::printf("cell mode:");
        for (std::size_t c = 0; c < options.cells.size(); ++c)
            std::printf(" %s->%s", options.cells[c].c_str(),
                        options.networks[c].c_str());
        std::printf("  (matched theta grid, max %.2f)\n\n",
                    shared_thetas.back());
    }

    bench::WorkloadSet set(options);
    for (std::size_t w = 0; w < set.names().size(); ++w) {
        const std::string &name = set.names()[w];
        auto &evaluator = set.evaluator(name);
        const auto &spec = set.get(name).spec;
        const auto thetas =
            cell_mode ? shared_thetas
                      : bench::thetaGrid(spec, options.thetaPoints);

        const std::string label =
            cell_mode ? options.cells[w] + " (" + name + ")" : name;
        TablePrinter table(label + " (loss metric: " +
                           spec.paperAccuracyMetric + " drift)");
        table.setHeader({"theta", "oracle_reuse_%", "oracle_loss_%",
                         "bnn_reuse_%", "bnn_loss_%"});

        const auto oracle =
            bench::runSweep(evaluator, memo::PredictorKind::Oracle,
                            /*throttle=*/false, workloads::Split::Test,
                            thetas);
        const auto bnn =
            bench::runSweep(evaluator, memo::PredictorKind::Bnn,
                            /*throttle=*/true, workloads::Split::Test,
                            thetas);

        for (std::size_t i = 0; i < thetas.size(); ++i) {
            table.addRow({formatDouble(thetas[i], 3),
                          bench::pct(oracle[i].reuse),
                          formatDouble(oracle[i].accuracyLoss, 2),
                          bench::pct(bnn[i].reuse),
                          formatDouble(bnn[i].accuracyLoss, 2)});
        }
        table.print("fig16_" + (cell_mode ? options.cells[w] : name));
    }

    if (!cell_mode) {
        std::printf(
            "paper reference: BNN tracks the Oracle closely below "
            "~2%% loss on EESEN/IMDB/DeepSpeech; MNMT diverges "
            "earliest (lowest BNN/RNN correlation).\n");
    }
    return 0;
}
