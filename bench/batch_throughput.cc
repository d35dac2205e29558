/**
 * @file
 * Throughput of one batch of many sequences vs the same sequences run
 * one at a time, on the speech-recognition workload (DeepSpeech2,
 * GRU 5x800).
 *
 * The per-sequence arm loops RnnNetwork::forward, a one-row batch per
 * sequence, so it streams every gate's weight matrix once per sequence
 * per timestep; the batched arm streams it once per chunk of sequences,
 * so on a bandwidth-bound network the speedup approaches the chunk size
 * (plus whatever the thread pool adds on multi-core hosts). Both arms
 * produce bitwise-identical outputs (tests/batch_test.cc), so this bench
 * measures scheduling only.
 */

#include <chrono>
#include <cstdio>

#include "common/bench_common.hh"
#include "common/parallel.hh"
#include "memo/memo_batch.hh"
#include "tensor/bitpack.hh"

namespace
{

using namespace nlfm;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

struct Sample
{
    double perSequenceSec = 0.0;
    double batchSec = 0.0;

    double speedup() const
    {
        return batchSec > 0.0 ? perSequenceSec / batchSec : 0.0;
    }
};

Sample
measureDirect(nn::RnnNetwork &network,
              std::span<const nn::Sequence> inputs)
{
    Sample sample;
    auto start = std::chrono::steady_clock::now();
    for (const auto &sequence : inputs)
        network.forwardBaseline(sequence);
    sample.perSequenceSec = secondsSince(start);

    start = std::chrono::steady_clock::now();
    network.forwardBatchBaseline(inputs);
    sample.batchSec = secondsSince(start);
    return sample;
}

/** Time one memoized batch pass only (no per-sequence run). */
double
measureMemoBatch(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
                 std::span<const nn::Sequence> inputs,
                 const memo::MemoOptions &options)
{
    memo::BatchMemoEngine batched(network, &bnn, options);
    const auto start = std::chrono::steady_clock::now();
    network.forwardBatch(inputs, batched);
    return secondsSince(start);
}

Sample
measureMemo(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
            std::span<const nn::Sequence> inputs,
            const memo::MemoOptions &options)
{
    Sample sample;
    memo::MemoEngine one(network, &bnn, options);
    const auto start = std::chrono::steady_clock::now();
    for (const auto &sequence : inputs)
        network.forward(sequence, one);
    sample.perSequenceSec = secondsSince(start);
    sample.batchSec = measureMemoBatch(network, bnn, inputs, options);
    return sample;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "batched+threaded evaluation throughput vs one sequence at a "
        "time (speech recognition workload)");

    // This bench is about one network's scheduling, not the zoo sweep:
    // default to the speech-recognition workload unless a single network
    // was requested explicitly.
    const std::string name =
        options.networks.size() == 1 ? options.networks.front()
                                     : "DeepSpeech2";
    const std::vector<std::size_t> batches =
        options.quick ? std::vector<std::size_t>{1, 8}
                      : std::vector<std::size_t>{1, 2, 4, 8, 16};
    const std::size_t max_batch = batches.back();
    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 20);

    workloads::NetworkSpec spec = workloads::specByName(name);
    std::printf("batch_throughput: %s (%s), %zu steps/sequence, "
                "%zu worker threads\n",
                name.c_str(), spec.rnn.describe().c_str(), steps,
                ThreadPool::global().threadCount());

    const auto workload = workloads::buildWorkload(spec, steps, max_batch);
    nn::RnnNetwork &network = *workload->network;
    nn::BinarizedNetwork &bnn = *workload->bnn;
    const std::span<const nn::Sequence> all = workload->testInputs;

    // Untimed warmup: touch every weight page once so the per-sequence
    // pass (always measured first) doesn't pay the cold-cache cost that
    // the batch pass then skips.
    network.forwardBaseline(all.front());

    memo::MemoOptions memo_options;
    memo_options.predictor = memo::PredictorKind::Bnn;
    memo_options.theta = 0.05;

    std::printf("\n%-6s | %-27s | %-27s\n", "", "direct (exact)",
                "memoized (BNN, theta=0.05)");
    std::printf("%-6s | %9s %9s %7s | %9s %9s %7s\n", "batch",
                "per-seq/s", "batch/s", "speedup", "per-seq/s", "batch/s",
                "speedup");
    std::printf("-------+-----------------------------+---------------"
                "--------------\n");

    double direct_speedup_at_8 = 0.0;
    double memo_speedup_at_8 = 0.0;
    Sample direct_at_max;
    for (const std::size_t batch : batches) {
        const auto inputs = all.subspan(0, batch);
        const Sample direct = measureDirect(network, inputs);
        const Sample memoized =
            measureMemo(network, bnn, inputs, memo_options);

        const double b = static_cast<double>(batch);
        std::printf("%-6zu | %9.2f %9.2f %6.2fx | %9.2f %9.2f %6.2fx\n",
                    batch, b / direct.perSequenceSec, b / direct.batchSec,
                    direct.speedup(), b / memoized.perSequenceSec,
                    b / memoized.batchSec, memoized.speedup());

        if (batch >= 8 && direct_speedup_at_8 == 0.0) {
            direct_speedup_at_8 = direct.speedup();
            memo_speedup_at_8 = memoized.speedup();
        }
        if (batch == max_batch)
            direct_at_max = direct;
    }

    std::printf("\nspeedup at batch >= 8: direct %.2fx, memoized %.2fx "
                "(target >= 2x)\n",
                direct_speedup_at_8, memo_speedup_at_8);

    // Low-reuse probe accounting: at a small theta almost every neuron
    // pays probe + decision + full evaluation, so the gap between the
    // memoized and the direct batch pass bounds the predictor's total
    // overhead (probe kernels, input binarization, reuse decisions,
    // table refreshes).
    memo::MemoOptions low_options = memo_options;
    low_options.theta = 0.01;
    const auto inputs = all.subspan(0, max_batch);
    const double low_sec =
        measureMemoBatch(network, bnn, inputs, low_options);
    const double overhead =
        low_sec > 0.0 ? (low_sec - direct_at_max.batchSec) / low_sec : 0.0;
    std::printf("\nprobe ISA: %s (best supported: %s)\n",
                tensor::bnnIsaName(tensor::bnnActiveIsa()),
                tensor::bnnIsaName(tensor::bnnBestIsa()));
    std::printf("low-reuse (theta=0.01) batch %zu: memoized %.2f seq/s "
                "vs direct %.2f seq/s -> probe+memo overhead %.1f%% of "
                "memoized time\n",
                max_batch,
                static_cast<double>(max_batch) / low_sec,
                static_cast<double>(max_batch) / direct_at_max.batchSec,
                100.0 * overhead);
    return 0;
}
