/**
 * @file
 * google-benchmark microkernels backing the paper's cost claims:
 * the BNN dot product is orders of magnitude cheaper than the FP dot
 * product (§3.1.2), the packed XNOR/popcount probe panel crushes the
 * naive ±1 loop, and the per-gate memoization probe adds little on top
 * of a cell step;
 * plus the float GEMV panel kernels behind every full evaluation, and
 * what bounds splitting a cell's elementwise stage over the pool: the
 * activations it evaluates against the cost of one pool dispatch.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "memo/memo_engine.hh"
#include "metrics/edit_distance.hh"
#include "nn/activations.hh"
#include "nn/init.hh"
#include "tensor/bitpack.hh"
#include "tensor/vector_ops.hh"

using namespace nlfm;

namespace
{

std::vector<float>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(n);
    rng.fillNormal(out, 0.0, 1.0);
    return out;
}

void
BM_FpDot(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomVector(n, 1);
    const auto b = randomVector(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::dot(a, b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FpDot)->Arg(256)->Arg(640)->Arg(2048);

void
BM_BnnDotNaive(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomVector(n, 5);
    const auto b = randomVector(n, 6);
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::bnnDotNaive(a, b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BnnDotNaive)->Arg(640);

/**
 * The batch engine's panel shape: a neuron block x live slots, per
 * forced ISA variant.
 */
void
benchBnnDotPanel(benchmark::State &state, tensor::BnnIsa isa)
{
    if (!tensor::bnnSetIsa(isa)) {
        state.SkipWithError("ISA variant not supported on this host");
        return;
    }
    const std::size_t n = 1600;
    const std::size_t rows = 32;
    const std::size_t slots = 16;
    tensor::BitMatrix w(rows, n);
    for (std::size_t r = 0; r < rows; ++r)
        w.setRow(r, randomVector(n, 200 + r));
    std::vector<tensor::BitVector> inputs;
    std::vector<const std::uint64_t *> words;
    for (std::size_t s = 0; s < slots; ++s)
        inputs.push_back(tensor::BitVector::fromFloats(
            randomVector(n, 300 + s)));
    for (std::size_t s = 0; s < slots; ++s)
        words.push_back(inputs[s].raw().data());
    std::vector<std::int32_t> out(rows * slots);
    for (auto _ : state) {
        tensor::bnnDotPanel(w, 0, rows, words, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows * slots * n));
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

void
BM_BnnDotPanelPortable(benchmark::State &state)
{
    benchBnnDotPanel(state, tensor::BnnIsa::Portable);
}
BENCHMARK(BM_BnnDotPanelPortable);

void
BM_BnnDotPanelAvx2(benchmark::State &state)
{
    benchBnnDotPanel(state, tensor::BnnIsa::Avx2);
}
BENCHMARK(BM_BnnDotPanelAvx2);

void
BM_BnnDotPanelAvx512(benchmark::State &state)
{
    benchBnnDotPanel(state, tensor::BnnIsa::Avx512);
}
BENCHMARK(BM_BnnDotPanelAvx512);

/**
 * The float GEMV panel of one gate: every neuron of a neurons x width
 * weight matrix against a panel of input rows, in groups of
 * tensor::kGroupNeurons, through one dotLanesGroup variant. Args:
 * neurons, width, rows. Skips the AVX-512 variant where the host
 * cannot run it.
 */
void
benchPanel(benchmark::State &state,
           tensor::detail::DotLanesGroupFn kernel, bool needs_avx512)
{
    if (needs_avx512 && !tensor::detail::cpuHasAvx512Group()) {
        state.SkipWithError("AVX-512F/DQ group kernel not supported on "
                            "this host or build");
        return;
    }
    const auto neurons = static_cast<std::size_t>(state.range(0));
    const auto width = static_cast<std::size_t>(state.range(1));
    const auto rows = static_cast<std::size_t>(state.range(2));
    const auto weights = randomVector(neurons * width, 400);
    const auto inputs = randomVector(rows * width, 401);
    std::vector<const float *> xs(rows);
    for (std::size_t r = 0; r < rows; ++r)
        xs[r] = inputs.data() + r * width;
    std::vector<float> out(tensor::kGroupNeurons * rows);
    for (auto _ : state) {
        for (std::size_t n = 0; n < neurons; n += tensor::kGroupNeurons) {
            const float *w[tensor::kGroupNeurons];
            for (std::size_t k = 0; k < tensor::kGroupNeurons; ++k)
                w[k] = weights.data() + (n + k) * width;
            kernel(w, width, xs.data(), rows, out.data());
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    const double flops = 2.0 * static_cast<double>(neurons * width * rows);
    state.counters["GFLOP"] = benchmark::Counter(
        flops * static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
}

void
BM_PanelPerNeuron(benchmark::State &state)
{
    benchPanel(state, tensor::detail::dotLanesGroupPerNeuron, false);
}

void
BM_PanelGroupAvx512(benchmark::State &state)
{
    benchPanel(state, tensor::detail::dotLanesGroupAvx512, true);
}

// DeepSpeech2's recurrent gate at the 16-sequence closed batch, and
// IMDB's recurrent gate at the 8-slot server.
BENCHMARK(BM_PanelPerNeuron)
    ->Args({800, 800, 16})
    ->Args({128, 128, 8})
    ->ArgNames({"neurons", "width", "rows"});
BENCHMARK(BM_PanelGroupAvx512)
    ->Args({800, 800, 16})
    ->Args({128, 128, 8})
    ->ArgNames({"neurons", "width", "rows"});

/**
 * One activation over DeepSpeech2's cell panel (16 sequences x 800
 * neurons) of standard-normal inputs, timed per element. A cell's
 * elementwise stage is a few of these per neuron-step.
 */
template <typename Activation>
void
BM_Activation(benchmark::State &state, Activation activation)
{
    const auto in = randomVector(16 * 800, 500);
    std::vector<float> out(in.size());
    for (auto _ : state) {
        for (std::size_t i = 0; i < in.size(); ++i)
            out[i] = activation(in[i]);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    // Elements per second, inverted: printed as a time, e.g. "24ns".
    state.counters["per_element"] = benchmark::Counter(
        static_cast<double>(state.iterations() * in.size()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_Activation, sigmoid,
                  [](float x) { return nn::sigmoid(x); });
BENCHMARK_CAPTURE(BM_Activation, tanhAct,
                  [](float x) { return nn::tanhAct(x); });

/**
 * One ThreadPool::run of empty chunks on a 4-thread pool: the dispatch
 * cost every split gate call and elementwise loop pays. Arg: idle gap
 * before each run in us (0: back to back; 300: the workers have gone to
 * sleep). Reports the mean and p50_us of the runs, timed by hand so the
 * gap is not counted.
 */
void
BM_ThreadPoolRun(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const auto idle = std::chrono::microseconds(state.range(0));
    ThreadPool pool(4);
    const std::function<void(std::size_t, std::size_t)> empty =
        [](std::size_t, std::size_t) {};
    std::vector<double> us;
    for (auto _ : state) {
        if (idle.count() > 0)
            std::this_thread::sleep_for(idle);
        const auto start = Clock::now();
        pool.run(pool.threadCount(), empty);
        const std::chrono::duration<double> took = Clock::now() - start;
        state.SetIterationTime(took.count());
        us.push_back(took.count() * 1e6);
    }
    std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
    state.counters["p50_us"] = us[us.size() / 2];
}
BENCHMARK(BM_ThreadPoolRun)
    ->Arg(0)
    ->Arg(300)
    ->ArgName("idle_us")
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void
BM_InputBinarization(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomVector(n / 2, 7);
    const auto h = randomVector(n - n / 2, 8);
    tensor::BitVector bits(n);
    for (auto _ : state) {
        bits.assignConcat(x, h);
        benchmark::DoNotOptimize(bits);
    }
}
BENCHMARK(BM_InputBinarization)->Arg(640)->Arg(2048);

struct CellFixture
{
    nn::RnnConfig config;
    std::unique_ptr<nn::RnnNetwork> network;
    std::unique_ptr<nn::BinarizedNetwork> bnn;
    nn::Sequence inputs;

    explicit CellFixture(std::size_t hidden)
    {
        config.cellType = nn::CellType::Lstm;
        config.inputSize = hidden;
        config.hiddenSize = hidden;
        config.layers = 1;
        config.peepholes = true;
        network = std::make_unique<nn::RnnNetwork>(config);
        Rng rng(11);
        nn::initNetwork(*network, rng);
        bnn = std::make_unique<nn::BinarizedNetwork>(*network);
        inputs.assign(4, std::vector<float>(hidden));
        for (auto &frame : inputs)
            rng.fillNormal(frame, 0.0, 1.0);
    }
};

void
BM_LstmCellSequence(benchmark::State &state)
{
    CellFixture fixture(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fixture.network->forwardBaseline(fixture.inputs));
    }
}
BENCHMARK(BM_LstmCellSequence)->Arg(128)->Arg(320);

void
BM_MemoizedSequence(benchmark::State &state)
{
    CellFixture fixture(static_cast<std::size_t>(state.range(0)));
    memo::MemoOptions options;
    options.theta = 0.3;
    memo::MemoEngine engine(*fixture.network, fixture.bnn.get(),
                            options);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fixture.network->forward(fixture.inputs, engine));
    }
}
BENCHMARK(BM_MemoizedSequence)->Arg(128)->Arg(320);

void
BM_EditDistance(benchmark::State &state)
{
    Rng rng(13);
    metrics::TokenSeq a(200), b(200);
    for (auto &t : a)
        t = static_cast<std::int32_t>(rng.uniformInt(30));
    for (auto &t : b)
        t = static_cast<std::int32_t>(rng.uniformInt(30));
    for (auto _ : state)
        benchmark::DoNotOptimize(metrics::editDistance(a, b));
}
BENCHMARK(BM_EditDistance);

} // namespace
