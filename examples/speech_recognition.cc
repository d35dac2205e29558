/**
 * @file
 * Speech-recognition scenario: an EESEN-style bidirectional LSTM over
 * synthetic filterbank frames, greedy CTC decoding, and the WER cost of
 * fuzzy memoization at several thresholds — the workload the paper's
 * introduction motivates.
 */

#include <cstdio>

#include "memo/memo_engine.hh"
#include "metrics/edit_distance.hh"
#include "workloads/evaluators.hh"
#include "workloads/model_zoo.hh"

using namespace nlfm;

int
main()
{
    // A downsized EESEN so the example runs in seconds; swap in
    // specByName("EESEN") unmodified for the full 5x2x320 network.
    workloads::NetworkSpec spec = workloads::specByName("EESEN");
    spec.rnn.hiddenSize = 96;
    spec.rnn.layers = 3;
    spec.defaultSteps = 60;
    spec.defaultSequences = 3;

    auto workload = workloads::buildWorkload(spec);
    workloads::WorkloadEvaluator evaluator(*workload);

    std::printf("EESEN-style network: %s\n",
                spec.rnn.describe().c_str());
    std::printf("utterances: %zu x %zu frames (synthetic filterbank "
                "substitute)\n\n",
                workload->testInputs.size(),
                workload->testInputs[0].size());

    // Show a decoded utterance (greedy + CTC collapse).
    nn::DirectBatchEvaluator direct;
    const nn::Sequence outputs =
        workload->network->forward(workload->testInputs[0], direct);
    metrics::TokenSeq frames;
    for (const auto &h : outputs) {
        std::vector<float> logits(workload->decodeHead.rows());
        workload->decodeHead.matvec(h, logits);
        std::int32_t best = 0;
        for (std::size_t k = 1; k < logits.size(); ++k)
            if (logits[k] > logits[best])
                best = static_cast<std::int32_t>(k);
        frames.push_back(best);
    }
    const metrics::TokenSeq collapsed = metrics::collapseCtc(frames, 0);
    std::printf("utterance 0 decodes to %zu tokens after CTC collapse:",
                collapsed.size());
    for (std::int32_t token : collapsed)
        std::printf(" %d", token);
    std::printf("\n\n");

    // Sweep the memoization threshold and report WER drift vs reuse.
    std::printf("%8s  %10s  %12s\n", "theta", "reuse(%)", "WER drift(%)");
    for (double theta : {0.0, 0.05, 0.1, 0.2, 0.4}) {
        memo::MemoOptions options;
        options.predictor = memo::PredictorKind::Bnn;
        options.theta = theta;
        const auto result =
            evaluator.evaluate(options, workloads::Split::Test);
        std::printf("%8.2f  %10.1f  %12.2f\n", theta,
                    100.0 * result.reuse, result.lossPercent);
    }
    std::printf("\nWER drift scores the memoized decode against the "
                "exact network's decode (see DESIGN.md §3).\n");
    return 0;
}
