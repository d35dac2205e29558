/// @file
/// Property/fuzz sweep of the per-neuron reuse decision
/// (memo/memo_decision.hh) and its AVX-512 panel twin.
///
/// The BNN decision compares delta_b in Q16.16, the FMU's fixed-point
/// CMP unit. It replaced its division with the algebraic rewrite
///
///     prev + floor((diff << 16) / mag) <= theta
///         ⟺  diff << 16 < (theta - prev + 1) * mag
///
/// and is additionally vectorized for dense panels whose slots all sit
/// at ONE theta (including non-default ones — serving autopilots retune
/// whole panels away from the default). Both rewrites are pure
/// scheduling: decisions must be bit-identical to the naive
/// divide-then-compare reference at every input, especially at the Q16
/// boundaries where an off-by-one in the rewrite would flip a decision.
///
///  - Kernel level: bnnReuseDecision vs a literal division-based
///    reference over randomized values, exact-boundary constructions
///    (delta lands exactly on theta), saturated thetas, yb_t = 0, and
///    throttling on and off.
///  - Real-number level: the Q16 decision agrees with Eqs. 12-14
///    evaluated over the reals (in double, in this test only) whenever
///    the accumulated delta_b is more than two Q16 ulps from theta, and
///    a stored delta_b trails the real one by less than one ulp.
///  - Engine level: a NetworkStepper-driven panel with every slot at
///    the same NON-default theta (the uniform-theta vector path)
///    evaluated under a forced-portable and a forced-AVX-512 probe ISA
///    must produce bitwise-identical outputs and reuse counters, and
///    match the one-sequence MemoEngine at that theta. Skips the
///    AVX-512 arm on hosts without it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "memo/memo_decision.hh"
#include "nn/init.hh"
#include "nn/network_stepper.hh"
#include "nn/rnn_network.hh"
#include "tensor/bitpack.hh"

namespace nlfm
{
namespace
{

// ------------------------------------------------- kernel-level fuzzing

/// The decision bnnReuseDecision must reproduce, written the naive way:
/// materialize delta_b with an actual division, then compare. Slower,
/// but obviously Eq. 12-14.
memo::BnnDecision
referenceBnnDecision(std::int32_t yb_t, std::int32_t yb_m, bool valid,
                     std::int64_t prev_raw, bool throttle, Q16 theta_q)
{
    memo::BnnDecision decision;
    if (!valid)
        return decision;

    if (yb_t == 0) {
        if (yb_m == 0) {
            decision.deltaRaw = throttle ? prev_raw : 0;
            decision.reuse = Q16::fromRaw(decision.deltaRaw) <= theta_q;
        }
        return decision;
    }

    const std::int64_t diff =
        std::abs(static_cast<std::int64_t>(yb_t) - yb_m);
    const std::int64_t mag = std::abs(static_cast<std::int64_t>(yb_t));
    const std::int64_t prev = throttle ? prev_raw : 0;
    const std::int64_t delta = prev + ((diff << 16) / mag);
    if (Q16::fromRaw(delta) <= theta_q) {
        decision.deltaRaw = delta;
        decision.reuse = true;
    }
    return decision;
}

void
expectSameDecision(std::int32_t yb_t, std::int32_t yb_m, bool valid,
                   std::int64_t prev_raw, bool throttle, Q16 theta_q)
{
    const memo::BnnDecision expected = referenceBnnDecision(
        yb_t, yb_m, valid, prev_raw, throttle, theta_q);
    const memo::BnnDecision actual = memo::bnnReuseDecision(
        yb_t, yb_m, valid, prev_raw, throttle, theta_q);
    ASSERT_EQ(expected.reuse, actual.reuse)
        << "yb_t=" << yb_t << " yb_m=" << yb_m << " valid=" << valid
        << " prev_raw=" << prev_raw << " throttle=" << throttle
        << " theta_raw=" << theta_q.raw();
    // The stored delta only matters when reusing (misses refresh the
    // entry), but when it is stored it feeds every later decision of
    // the sequence, so it must match exactly too.
    if (expected.reuse) {
        ASSERT_EQ(expected.deltaRaw, actual.deltaRaw)
            << "yb_t=" << yb_t << " yb_m=" << yb_m
            << " prev_raw=" << prev_raw
            << " theta_raw=" << theta_q.raw();
    }
}

/// Draw a signed BNN output: BNN dot products of width-w gates live in
/// [-w, w], so small magnitudes dominate, but throw in occasional huge
/// values to exercise the 128-bit headroom product.
std::int32_t
drawBnnValue(Rng &rng)
{
    const std::uint64_t shape = rng.uniformInt(8);
    const std::int64_t magnitude =
        shape < 5 ? static_cast<std::int64_t>(rng.uniformInt(64))
        : shape < 7
            ? static_cast<std::int64_t>(rng.uniformInt(4096))
            : static_cast<std::int64_t>(rng.uniformInt(
                  std::numeric_limits<std::int32_t>::max()));
    return static_cast<std::int32_t>(rng.uniformInt(2) == 0
                                         ? magnitude
                                         : -magnitude);
}

TEST(MemoDecisionProperty, RandomizedAgainstDivisionReference)
{
    Rng rng(20260808);
    const double thetas[] = {0.0, 0.001, 0.05, 0.3, 1.0, 7.5};
    for (std::size_t trial = 0; trial < 20000; ++trial) {
        const std::int32_t yb_t = drawBnnValue(rng);
        // Half the trials make the cached value a near miss of yb_t
        // (the interesting regime: small relative difference), half
        // draw independently.
        const std::int32_t yb_m =
            trial % 2 == 0
                ? yb_t +
                      static_cast<std::int32_t>(rng.uniformInt(9)) - 4
                : drawBnnValue(rng);
        const bool valid = rng.uniformInt(8) != 0;
        const bool throttle = rng.uniformInt(4) != 0;
        const double theta =
            thetas[rng.uniformInt(std::size(thetas))];
        const Q16 theta_q = Q16::fromDouble(theta);
        // Accumulated delta_b is nonnegative and usually below theta
        // (a reuse stored it); also probe past-theta values.
        const std::int64_t prev_raw = static_cast<std::int64_t>(
            rng.uniformInt(
                2 * static_cast<std::uint64_t>(theta_q.raw()) + 2));
        expectSameDecision(yb_t, yb_m, valid, prev_raw, throttle,
                           theta_q);
        if (HasFatalFailure())
            return;
    }
}

TEST(MemoDecisionProperty, ExactQ16BoundaryCases)
{
    // Construct inputs where delta_b lands EXACTLY on theta: diff is a
    // multiple of mag, so the division is exact and the <= comparison
    // is decided by equality. One raw ULP either side must flip the
    // decision identically in both implementations.
    const std::int64_t mags[] = {1, 3, 7, 64, 1000, 1 << 20};
    const std::int64_t quotients[] = {0, 1, 5, 1 << 16, 1 << 22};
    const std::int64_t prevs[] = {0, 1, 1 << 10, 1 << 18};
    for (const std::int64_t mag : mags)
        for (const std::int64_t q : quotients)
            for (const std::int64_t prev : prevs) {
                const std::int64_t diff_scaled = q * mag; // (diff<<16)
                if (diff_scaled % (1 << 16) != 0)
                    continue; // diff must be integral
                const std::int64_t diff = diff_scaled >> 16;
                if (diff > std::numeric_limits<std::int32_t>::max() ||
                    mag + diff >
                        std::numeric_limits<std::int32_t>::max())
                    continue;
                const std::int32_t yb_t =
                    static_cast<std::int32_t>(mag);
                const std::int32_t yb_m =
                    static_cast<std::int32_t>(mag + diff);
                for (const std::int64_t theta_raw :
                     {prev + q - 1, prev + q, prev + q + 1}) {
                    if (theta_raw < 0)
                        continue;
                    expectSameDecision(yb_t, yb_m, true, prev, true,
                                       Q16::fromRaw(theta_raw));
                    if (HasFatalFailure())
                        return;
                }
            }
}

TEST(MemoDecisionProperty, SaturatedThetaAndZeroOutputs)
{
    // A saturated theta must not overflow the headroom product (the
    // kernel runs it in 128-bit), and yb_t = 0 must only reuse on a
    // bit-identical cached zero.
    const Q16 saturated =
        Q16::fromRaw(std::numeric_limits<std::int64_t>::max());
    const std::int32_t extremes[] = {
        0, 1, -1, std::numeric_limits<std::int32_t>::max(),
        std::numeric_limits<std::int32_t>::min() + 1};
    for (const std::int32_t yb_t : extremes)
        for (const std::int32_t yb_m : extremes)
            for (const bool throttle : {false, true})
                for (const std::int64_t prev :
                     {std::int64_t{0}, std::int64_t{1} << 30}) {
                    expectSameDecision(yb_t, yb_m, true, prev, throttle,
                                       saturated);
                    if (HasFatalFailure())
                        return;
                    // Theta zero: only an exact BNN match may reuse.
                    expectSameDecision(yb_t, yb_m, true, prev, throttle,
                                       Q16::fromDouble(0.0));
                    if (HasFatalFailure())
                        return;
                }
}

// ------------------------------------------- real-number agreement

/// One Q16 ulp of delta_b and theta.
constexpr double kQ16Ulp = 1.0 / 65536.0;

/// The band above theta, in Q16 ulps, beyond which the Q16 decision
/// must miss like the real-number one. In ulps, let D = 2^16 * (prev +
/// eps_b) and T = 2^16 * theta. The kernel reuses iff prev_raw +
/// floor(2^16 * eps_b) = floor(D) is at most theta rounded to the
/// nearest Q16 value, which lies in [T - 1/2, T + 1/2]. So it reuses
/// wherever the reals do (D <= T), and where they do not only for D in
/// (T, T + 3/2). Evaluating D in double errs by far less than an ulp
/// (D < 2^20 near theta), so a band of two ulps is enough.
constexpr double kBandUlps = 2.0;

/// Eqs. 12-14 over the reals, evaluated in double: delta_b = prev +
/// |yb_t - yb_m| / |yb_t|, with eps_b = 0 when both outputs are zero
/// and infinite when only yb_t is.
double
realDelta(std::int32_t yb_t, std::int32_t yb_m, double prev)
{
    if (yb_t == 0)
        return yb_m == 0 ? prev : std::numeric_limits<double>::infinity();
    const double diff = std::abs(static_cast<double>(yb_t) - yb_m);
    return prev + diff / std::abs(static_cast<double>(yb_t));
}

TEST(MemoDecisionProperty, Q16AgreesWithRealNumbersOutsideBand)
{
    // The Q16 CMP approximates Eqs. 12-14 over the reals: decision by
    // decision, it may only differ by reusing where delta_b exceeds
    // theta by at most kBandUlps.
    Rng rng(20261019);
    const double thetas[] = {0.0, 0.001, 0.0122, 0.05, 0.3, 1.0, 7.5};
    std::size_t checked = 0;
    std::size_t reused = 0;
    const std::size_t trials = 40000;
    for (std::size_t trial = 0; trial < trials; ++trial) {
        const std::int32_t yb_t = drawBnnValue(rng);
        const std::int32_t yb_m =
            trial % 2 == 0
                ? yb_t +
                      static_cast<std::int32_t>(rng.uniformInt(9)) - 4
                : drawBnnValue(rng);
        const bool throttle = rng.uniformInt(4) != 0;
        // Half the trials draw theta off the grid, so Q16 rounds it.
        const double theta =
            trial % 4 < 2 ? thetas[rng.uniformInt(std::size(thetas))]
                          : rng.uniform() * 2.0;
        const Q16 theta_q = Q16::fromDouble(theta);
        const std::int64_t prev_raw = static_cast<std::int64_t>(
            rng.uniformInt(
                2 * static_cast<std::uint64_t>(theta_q.raw()) + 2));

        const double delta = realDelta(
            yb_t, yb_m,
            throttle ? static_cast<double>(prev_raw) * kQ16Ulp : 0.0);
        if (delta > theta && delta - theta <= kBandUlps * kQ16Ulp)
            continue;
        ++checked;
        const memo::BnnDecision decision = memo::bnnReuseDecision(
            yb_t, yb_m, true, prev_raw, throttle, theta_q);
        ASSERT_EQ(decision.reuse, delta <= theta)
            << "yb_t=" << yb_t << " yb_m=" << yb_m
            << " prev_raw=" << prev_raw << " throttle=" << throttle
            << " theta=" << theta << " delta=" << delta;
        if (!decision.reuse)
            continue;
        ++reused;
        // The stored delta_b is the real one truncated to Q16: each
        // reuse lets the accumulation trail the reals by under an ulp.
        const double trail =
            delta / kQ16Ulp - static_cast<double>(decision.deltaRaw);
        ASSERT_GE(trail, -1e-6) << "yb_t=" << yb_t << " yb_m=" << yb_m;
        ASSERT_LT(trail, 1.0 + 1e-6) << "yb_t=" << yb_t << " yb_m=" << yb_m;
    }
    // The band excludes few draws, and both outcomes are exercised.
    EXPECT_GT(checked, trials * 9 / 10);
    EXPECT_GT(reused, trials / 20);
    EXPECT_GT(checked - reused, trials / 20);
}

// --------------------------------------------- engine-level ISA identity

nn::RnnConfig
panelConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 6;
    config.hiddenSize = 8;
    config.layers = 2;
    config.peepholes = true;
    return config;
}

std::vector<nn::Sequence>
equalLengthSequences(std::size_t batch, std::size_t steps,
                     std::size_t width, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(batch);
    for (auto &sequence : sequences) {
        sequence.assign(steps, std::vector<float>(width));
        for (auto &frame : sequence)
            rng.fillNormal(frame, 0.0, 1.0);
    }
    return sequences;
}

/// Serve a dense panel through NetworkStepper with EVERY slot pinned to
/// @p theta (a non-default value hits the PR 6 uniform-theta vector
/// path when the active ISA is AVX-512). Returns per-slot outputs and
/// the engine's reuse count.
std::pair<std::vector<nn::Sequence>, std::uint64_t>
servePanel(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
           const memo::MemoOptions &options,
           const std::vector<nn::Sequence> &sequences, double theta)
{
    const std::size_t slots = sequences.size();
    nn::NetworkStepper stepper(network, slots);
    memo::BatchMemoEngine engine(network, &bnn, options);
    engine.beginBatch(slots);

    std::vector<std::size_t> rows(slots);
    for (std::size_t s = 0; s < slots; ++s) {
        rows[s] = s;
        stepper.resetSlot(s);
        engine.admitSlot(s, theta);
    }

    std::vector<nn::Sequence> outputs(slots);
    const std::size_t steps = sequences.front().size();
    for (std::size_t t = 0; t < steps; ++t) {
        tensor::Matrix &input = stepper.inputPanel();
        for (std::size_t s = 0; s < slots; ++s) {
            const auto &frame = sequences[s][t];
            std::copy(frame.begin(), frame.end(),
                      input.row(s).begin());
        }
        stepper.step(rows, engine);
        for (std::size_t s = 0; s < slots; ++s) {
            const auto out = stepper.output(s);
            outputs[s].emplace_back(out.begin(), out.end());
        }
    }
    return {std::move(outputs), engine.stats().totalReused()};
}

TEST(MemoDecisionProperty, UniformNonDefaultThetaPanelIsIsaInvariant)
{
    const nn::RnnConfig config = panelConfig();
    nn::RnnNetwork network(config);
    Rng init_rng(99);
    nn::initNetwork(network, init_rng);
    nn::BinarizedNetwork bnn(network);

    // 64 slots: dense, a full cache line of valid_ bytes, several
    // AVX-512 lanes worth of slots per decision row. 13 slots: a row
    // tail, so groups of four commit over 8 + 5 live rows.
    for (const std::size_t slots : {64u, 13u}) {
        SCOPED_TRACE(std::to_string(slots) + " slots");
        const auto sequences =
            equalLengthSequences(slots, 12, config.inputSize, 123);

        memo::MemoOptions options;
        options.predictor = memo::PredictorKind::Bnn;
        options.theta = 0.05; // engine default — NOT the serving value
        const double served_theta = 0.2;

        // Serial ground truth at the served theta.
        memo::MemoOptions serial_options = options;
        serial_options.theta = served_theta;
        std::vector<nn::Sequence> reference;
        std::uint64_t serial_reused = 0;
        {
            ASSERT_TRUE(tensor::bnnSetIsa(tensor::BnnIsa::Portable));
            for (const auto &sequence : sequences) {
                memo::MemoEngine serial(network, &bnn, serial_options);
                reference.push_back(network.forward(sequence, serial));
                serial_reused += serial.stats().totalReused();
            }
        }

        for (const tensor::BnnIsa isa :
             {tensor::BnnIsa::Portable, tensor::BnnIsa::Avx2,
              tensor::BnnIsa::Avx512}) {
            if (!tensor::bnnSetIsa(isa))
                continue; // unsupported on this host
            const auto [outputs, reused] =
                servePanel(network, bnn, options, sequences, served_theta);
            EXPECT_EQ(reused, serial_reused)
                << "isa " << tensor::bnnIsaName(isa);
            for (std::size_t s = 0; s < sequences.size(); ++s) {
                ASSERT_EQ(outputs[s].size(), reference[s].size());
                for (std::size_t t = 0; t < outputs[s].size(); ++t)
                    for (std::size_t i = 0; i < outputs[s][t].size(); ++i)
                        ASSERT_EQ(outputs[s][t][i], reference[s][t][i])
                            << "isa " << tensor::bnnIsaName(isa)
                            << " slot " << s << " step " << t
                            << " element " << i;
            }
        }
    }
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

TEST(MemoDecisionProperty, MixedThetaPanelIsIsaInvariant)
{
    // Mixed per-slot thetas force the scalar loop even under AVX-512;
    // outputs must still be ISA-invariant and match the per-slot serial
    // runs (each at its own theta).
    const nn::RnnConfig config = panelConfig();
    nn::RnnNetwork network(config);
    Rng init_rng(100);
    nn::initNetwork(network, init_rng);
    nn::BinarizedNetwork bnn(network);

    const auto sequences =
        equalLengthSequences(8, 10, config.inputSize, 321);
    const double slot_thetas[] = {0.0,  0.02, 0.05, 0.1,
                                  0.15, 0.2,  0.3,  0.05};

    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = 0.05;

    ASSERT_TRUE(tensor::bnnSetIsa(tensor::BnnIsa::Portable));
    std::vector<nn::Sequence> reference;
    for (std::size_t s = 0; s < sequences.size(); ++s) {
        memo::MemoOptions serial_options = options;
        serial_options.theta = slot_thetas[s];
        memo::MemoEngine serial(network, &bnn, serial_options);
        reference.push_back(network.forward(sequences[s], serial));
    }

    for (const tensor::BnnIsa isa :
         {tensor::BnnIsa::Portable, tensor::BnnIsa::Avx512}) {
        if (!tensor::bnnSetIsa(isa))
            continue;
        const std::size_t slots = sequences.size();
        nn::NetworkStepper stepper(network, slots);
        memo::BatchMemoEngine engine(network, &bnn, options);
        engine.beginBatch(slots);
        std::vector<std::size_t> rows(slots);
        for (std::size_t s = 0; s < slots; ++s) {
            rows[s] = s;
            stepper.resetSlot(s);
            engine.admitSlot(s, slot_thetas[s]);
        }
        for (std::size_t t = 0; t < sequences.front().size(); ++t) {
            tensor::Matrix &input = stepper.inputPanel();
            for (std::size_t s = 0; s < slots; ++s)
                std::copy(sequences[s][t].begin(),
                          sequences[s][t].end(),
                          input.row(s).begin());
            stepper.step(rows, engine);
            for (std::size_t s = 0; s < slots; ++s) {
                const auto out = stepper.output(s);
                for (std::size_t i = 0; i < out.size(); ++i)
                    ASSERT_EQ(out[i], reference[s][t][i])
                        << "isa " << tensor::bnnIsaName(isa)
                        << " slot " << s << " step " << t
                        << " element " << i;
            }
        }
    }
    tensor::bnnSetIsa(tensor::bnnBestIsa());
}

} // namespace
} // namespace nlfm
