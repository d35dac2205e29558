/**
 * @file
 * Contract tests of the deadline-aware admission layer (PR 5).
 *
 *  - EDF queue order: the earliest absolute deadline pops first;
 *    deadline-free requests sort last and stay FIFO among themselves.
 *    On a crafted deadline mix behind a plugged slot, an EDF server
 *    admits the urgent request first where FIFO admits in enqueue
 *    order — the deterministic form of "EDF beats FIFO" (the goodput
 *    comparison under load lives in bench_admission_sweep).
 *  - Predictive shedding drops exactly the requests whose deadline the
 *    calibrated estimate proves unreachable — before they are admitted
 *    (and before they queue, when the enqueue-time estimate already
 *    misses) — and never a request the calibration says could still
 *    finish in time.
 *  - Cost-aware DRR charges admissions by calibrated service cost, so
 *    equal weights admit inversely to cost (2:1 mix -> 1:2 admissions)
 *    and weights buy machine time; debt survives idle spells.
 *  - Policies change scheduling only: outputs under EDF + predictive
 *    shedding + cost-aware admission stay bitwise identical to the
 *    serial reference.
 *  - Bugfix regressions: unknown-model rejections consume an id;
 *    ServingStats::recordShed ends the measured window and counts
 *    predicted misses; exact (non-memoized) models echo the request's
 *    theta instead of reporting 0.0 for explicit overrides.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <iterator>
#include <limits>
#include <thread>

#include "common/rng.hh"
#include "memo/memo_engine.hh"
#include "nn/init.hh"
#include "serve/fleet_server.hh"
#include "serve/server.hh"

namespace nlfm
{
namespace
{

nn::RnnConfig
smallLstmConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 6;
    config.hiddenSize = 8;
    config.layers = 2;
    config.bidirectional = false;
    config.peepholes = true;
    return config;
}

/// Sized so one request's service takes real wall time (~1 ms): the
/// admission-order assertions below compare positions in a drain,
/// which requests served in microseconds cannot resolve (same recipe
/// as fleet_test's SkewedLoad test).
nn::RnnConfig
slowLstmConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 8;
    config.hiddenSize = 96;
    config.layers = 2;
    config.bidirectional = false;
    return config;
}

std::vector<nn::Sequence>
makeSequences(std::size_t count, std::size_t width, std::uint64_t seed,
              std::size_t fixed_len = 0)
{
    Rng rng(seed);
    std::vector<nn::Sequence> sequences(count);
    for (std::size_t b = 0; b < count; ++b) {
        const std::size_t len =
            fixed_len != 0 ? fixed_len : 3 + (b * 7) % 11;
        sequences[b].assign(len, std::vector<float>(width));
        for (auto &frame : sequences[b])
            rng.fillNormal(frame, 0.0, 1.0);
    }
    return sequences;
}

void
expectSequenceIdentical(const nn::Sequence &expected,
                        const nn::Sequence &actual,
                        const std::string &label)
{
    ASSERT_EQ(expected.size(), actual.size()) << label;
    for (std::size_t t = 0; t < expected.size(); ++t) {
        ASSERT_EQ(expected[t].size(), actual[t].size())
            << label << " step " << t;
        for (std::size_t i = 0; i < expected[t].size(); ++i)
            ASSERT_EQ(expected[t][i], actual[t][i])
                << label << " step " << t << " element " << i;
    }
}

/// Spin until the driver drained the queue into slots (bounded; the
/// admission-order tests need their plug admitted before the crafted
/// backlog is enqueued).
void
waitQueueEmpty(const std::function<std::size_t()> &depth)
{
    const auto give_up = serve::Clock::now() + std::chrono::seconds(5);
    while (depth() > 0 && serve::Clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    ASSERT_EQ(depth(), 0u) << "driver never admitted the plug request";
}

serve::QueuedRequest
queuedItem(std::uint64_t id, double deadline_ms, std::size_t steps,
           serve::Clock::time_point now)
{
    serve::QueuedRequest item;
    item.id = id;
    item.request.deadlineMs = deadline_ms;
    item.request.input.assign(steps, std::vector<float>(2, 0.f));
    item.enqueueTime = now;
    return item;
}

// ------------------------------------------------- EDF queue policy

TEST(AdmissionQueueTest, EdfPopsEarliestDeadlineFreeRequestsStayFifo)
{
    serve::RequestQueue queue(8, serve::QueuePolicy::Edf);
    const auto now = serve::Clock::now();
    // id: 0 free, 1 @50ms, 2 @10ms, 3 free, 4 @30ms, and 5 @inf and
    // 6 @1e300ms, both beyond the clock's range and so deadline-free.
    const double deadlines[] = {
        0.0, 50.0, 10.0, 0.0, 30.0, std::numeric_limits<double>::infinity(),
        1e300};
    for (std::size_t i = 0; i < std::size(deadlines); ++i)
        ASSERT_TRUE(
            queue.tryPush(queuedItem(i, deadlines[i], i + 1, now)));

    // Deadlines ascending first, then the deadline-free tail in push
    // order.
    const std::uint64_t expected[] = {2, 4, 1, 0, 3, 5, 6};
    for (const std::uint64_t want : expected) {
        auto item = queue.tryPop();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(item->id, want);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST(AdmissionQueueTest, StepsAheadFollowsThePopPolicy)
{
    const auto now = serve::Clock::now();
    // Candidate with a 20ms absolute deadline and the same queue
    // contents under both policies: FIFO serves everything queued
    // first; EDF serves only the earlier-or-equal deadlines.
    const auto fill = [&](serve::RequestQueue &queue) {
        const double deadlines[] = {0.0, 50.0, 10.0};
        const std::size_t steps[] = {5, 4, 3};
        for (std::size_t i = 0; i < 3; ++i)
            ASSERT_TRUE(queue.tryPush(
                queuedItem(i, deadlines[i], steps[i], now)));
    };
    const serve::Clock::time_point candidate =
        now + std::chrono::milliseconds(20);

    serve::RequestQueue fifo(8, serve::QueuePolicy::Fifo);
    fill(fifo);
    EXPECT_EQ(fifo.stepsAhead(candidate), 12u);

    serve::RequestQueue edf(8, serve::QueuePolicy::Edf);
    fill(edf);
    EXPECT_EQ(edf.stepsAhead(candidate), 3u); // only the 10ms item
}

TEST(AdmissionTest, EdfServerAdmitsUrgentQueuedRequestsFirst)
{
    const nn::RnnConfig config = slowLstmConfig();
    nn::RnnNetwork network(config);
    Rng rng(211);
    nn::initNetwork(network, rng);
    const auto plug =
        makeSequences(1, config.inputSize, 601, /*fixed_len=*/512);
    const auto work =
        makeSequences(3, config.inputSize, 607, /*fixed_len=*/48);

    for (const bool edf : {true, false}) {
        serve::ServerOptions options;
        options.slots = 1;
        options.memoized = false;
        options.queuePolicy = edf ? serve::QueuePolicy::Edf
                                  : serve::QueuePolicy::Fifo;
        serve::Server server(network, nullptr, options);

        // The plug owns the only slot, so the crafted mix below is
        // fully queued before any of it can be admitted: admission
        // order is then a pure policy decision, not an arrival race.
        serve::Request plug_request;
        plug_request.input = plug[0];
        auto plug_future = server.enqueue(std::move(plug_request));
        waitQueueEmpty([&] { return server.queueDepth(); });

        // Enqueue order: A (loose deadline), B (tight), C (none).
        serve::Request a;
        a.input = work[0];
        a.deadlineMs = 1e6;
        auto fa = server.enqueue(std::move(a));
        serve::Request b;
        b.input = work[1];
        b.deadlineMs = 5e5;
        auto fb = server.enqueue(std::move(b));
        serve::Request c;
        c.input = work[2];
        auto fc = server.enqueue(std::move(c));

        serve::Server::collect(plug_future);
        const serve::Response ra = serve::Server::collect(fa);
        const serve::Response rb = serve::Server::collect(fb);
        const serve::Response rc = serve::Server::collect(fc);

        if (edf) {
            // B's deadline is earliest -> admitted before the
            // earlier-enqueued A (strict: B left the queue first and
            // entered it later). C has none -> admitted last.
            EXPECT_LT(rb.queueMs, ra.queueMs) << "EDF ignored deadline";
            EXPECT_GT(rc.queueMs, ra.queueMs)
                << "EDF served a deadline-free request early";
        } else {
            // FIFO control: enqueue order wins regardless of deadline.
            EXPECT_LT(ra.queueMs, rb.queueMs);
            EXPECT_LT(rb.queueMs, rc.queueMs);
        }
        const serve::StatsSnapshot stats = server.stats();
        EXPECT_EQ(stats.completed, 4u);
        EXPECT_EQ(stats.shed, 0u);
    }
}

// ---------------------------------------------- predictive shedding

TEST(AdmissionTest, PredictiveShedDropsOnlyProvablyLateRequests)
{
    const nn::RnnConfig config = smallLstmConfig();
    nn::RnnNetwork network(config);
    Rng rng(223);
    nn::initNetwork(network, rng);
    const auto sequences =
        makeSequences(4, config.inputSize, 613, /*fixed_len=*/10);

    // Deliberately overstated calibration (5 ms/step vs the real
    // microseconds): the shed decisions below are then deterministic
    // functions of the estimate, not of host speed.
    serve::ServerOptions options;
    options.slots = 1;
    options.memoized = false;
    options.shedExpired = true;
    options.shedPredicted = true;
    options.calibratedStepCostMs = 5.0;
    {
        serve::Server server(network, nullptr, options);

        // A: 10 steps -> predicted own service 50 ms, deadline 1e6 ms:
        // viable, must be served. B: same service, 20 ms deadline:
        // 50 > 20 — provably late at enqueue, shed before it queues.
        // C: deadline-free — predictive shedding never applies.
        serve::Request a;
        a.input = sequences[0];
        a.deadlineMs = 1e6;
        auto fa = server.enqueue(std::move(a));
        serve::Request b;
        b.input = sequences[1];
        b.deadlineMs = 20.0;
        auto fb = server.enqueue(std::move(b));
        serve::Request c;
        c.input = sequences[2];
        auto fc = server.enqueue(std::move(c));

        EXPECT_THROW(fb.get(), serve::ShedError);
        EXPECT_EQ(serve::Server::collect(fa).steps, 10u);
        EXPECT_EQ(serve::Server::collect(fc).steps, 10u);
        server.drain(); // shed requests must not count as pending

        const serve::StatsSnapshot stats = server.stats();
        EXPECT_EQ(stats.completed, 2u);
        EXPECT_EQ(stats.shed, 1u);
        EXPECT_EQ(stats.shedPredicted, 1u);

        // Post-stop, a deadline-doomed enqueue fails as "stopped" like
        // every other — predictive shedding must not fire on a closed
        // queue (or mutate stats after shutdown).
        server.stop();
        serve::Request late;
        late.input = sequences[3];
        late.deadlineMs = 20.0;
        auto late_future = server.enqueue(std::move(late));
        try {
            late_future.get();
            FAIL() << "post-stop enqueue did not fail";
        } catch (const serve::ShedError &) {
            FAIL() << "post-stop enqueue was shed instead of rejected";
        } catch (const std::runtime_error &) {
        }
        EXPECT_EQ(server.stats().shed, 1u);
    }

    // Same traffic under an optimistic calibration: nothing is
    // provably late, so nothing may be shed — the policy never drops a
    // request the estimate says could finish in time (whether it then
    // meets the deadline is the goodput accounting's business).
    options.calibratedStepCostMs = 1e-6;
    {
        serve::Server server(network, nullptr, options);
        std::vector<std::future<serve::Response>> futures;
        const double deadlines[] = {1e6, 20.0, 0.0, 30.0};
        for (std::size_t i = 0; i < sequences.size(); ++i) {
            serve::Request request;
            request.input = sequences[i];
            request.deadlineMs = deadlines[i];
            futures.push_back(server.enqueue(std::move(request)));
        }
        for (auto &future : futures)
            EXPECT_EQ(serve::Server::collect(future).steps, 10u);
        const serve::StatsSnapshot stats = server.stats();
        EXPECT_EQ(stats.completed, 4u);
        EXPECT_EQ(stats.shed, 0u);
    }
}

// ------------------------------------------------- cost-aware DRR

TEST(FleetSchedulerCostTest, EqualWeightsAdmitInverselyToCost)
{
    const double weights[] = {1.0, 1.0};
    serve::FleetScheduler scheduler(4, weights);
    scheduler.setCostCharging(true);
    const std::size_t pending[] = {1000, 1000};
    const double costs[] = {2.0, 1.0};

    int count0 = 0;
    int count1 = 0;
    for (int i = 0; i < 300; ++i) {
        const int pick = scheduler.pickModel(pending);
        ASSERT_GE(pick, 0);
        (pick == 0 ? count0 : count1)++;
        scheduler.charge(static_cast<std::size_t>(pick),
                         costs[static_cast<std::size_t>(pick)]);
    }
    // Twice the cost -> half the admissions: machine time stays 1:1.
    // (Small start-up transient; the ratio converges to 2.)
    EXPECT_NEAR(static_cast<double>(count1) /
                    static_cast<double>(count0),
                2.0, 0.1);
}

TEST(FleetSchedulerCostTest, WeightsBuyMachineTimeUnderCostCharging)
{
    // Weight 2 at cost 2 vs weight 1 at cost 1: equal admission
    // COUNTS, machine time 2:1 — weights now buy tick time, which is
    // exactly what flat-credit DRR could not express.
    const double weights[] = {2.0, 1.0};
    serve::FleetScheduler scheduler(4, weights);
    scheduler.setCostCharging(true);
    const std::size_t pending[] = {1000, 1000};
    const double costs[] = {2.0, 1.0};

    int count0 = 0;
    for (int i = 0; i < 300; ++i) {
        const int pick = scheduler.pickModel(pending);
        ASSERT_GE(pick, 0);
        if (pick == 0)
            ++count0;
        scheduler.charge(static_cast<std::size_t>(pick),
                         costs[static_cast<std::size_t>(pick)]);
    }
    EXPECT_NEAR(count0, 150, 5);
}

TEST(FleetSchedulerCostTest, DebtSurvivesIdleSpells)
{
    const double weights[] = {1.0, 1.0};
    serve::FleetScheduler scheduler(4, weights);
    scheduler.setCostCharging(true);

    // Model 0 admits one expensive request, then goes idle: the debt
    // is machine time actually consumed, so the idle reset must not
    // forgive it (only positive credit resets, as in flat mode).
    const std::size_t both[] = {10, 10};
    ASSERT_EQ(scheduler.pickModel(both), 0);
    scheduler.charge(0, 10.0);
    const std::size_t only1[] = {0, 10};
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(scheduler.pickModel(only1), 1);

    // Back under contention, model 0 sits out while its per-round
    // quantum repays the debt.
    for (int i = 0; i < 6; ++i) {
        const int pick = scheduler.pickModel(both);
        EXPECT_EQ(pick, 1) << "debtor admitted at pick " << i;
        scheduler.charge(1, 1.0);
    }
}

TEST(AdmissionTest, PoliciesChangeSchedulingNotOutputs)
{
    // EDF + predictive shedding + cost-aware DRR on, generous
    // deadlines (nothing sheds): every output must stay bitwise
    // identical to the serial MemoEngine — the policies reorder and
    // reject work, they never touch the numerics.
    const nn::RnnConfig config = smallLstmConfig();
    nn::RnnNetwork network(config);
    Rng rng(227);
    nn::initNetwork(network, rng);
    nn::BinarizedNetwork bnn(network);
    const auto sequences = makeSequences(6, config.inputSize, 617);

    memo::MemoOptions memo_options;
    memo_options.predictor = memo::PredictorKind::Bnn;
    memo_options.theta = 0.05;

    serve::ModelRegistry registry;
    serve::ModelSpec spec;
    spec.name = "only";
    spec.network = &network;
    spec.bnn = &bnn;
    spec.memo = memo_options;
    spec.calibratedStepCostMs = 0.5;
    registry.add(spec);

    serve::FleetOptions options;
    options.slots = 2;
    options.queuePolicy = serve::QueuePolicy::Edf;
    options.shedExpired = true;
    options.shedPredicted = true;
    options.costAwareAdmission = true;
    serve::FleetServer fleet(registry, options);

    std::vector<std::future<serve::Response>> futures;
    for (std::size_t b = 0; b < sequences.size(); ++b) {
        serve::Request request;
        request.input = sequences[b];
        request.deadlineMs = b % 2 == 0 ? 1e6 : 0.0;
        futures.push_back(fleet.enqueue(0u, std::move(request)));
    }
    for (std::size_t b = 0; b < futures.size(); ++b) {
        memo::MemoEngine serial(network, &bnn, memo_options);
        expectSequenceIdentical(
            network.forward(sequences[b], serial),
            serve::FleetServer::collect(futures[b]).output,
            "policies-on request " + std::to_string(b));
    }
    const serve::StatsSnapshot stats = fleet.stats();
    EXPECT_EQ(stats.completed, sequences.size());
    EXPECT_EQ(stats.shed, 0u);
}

// ------------------------------------------------ bugfix regressions

TEST(AdmissionTest, UnknownModelRejectionConsumesAnId)
{
    const nn::RnnConfig config = smallLstmConfig();
    nn::RnnNetwork network(config);
    Rng rng(229);
    nn::initNetwork(network, rng);
    nn::BinarizedNetwork bnn(network);
    const auto sequences = makeSequences(2, config.inputSize, 619);

    serve::ModelRegistry registry;
    serve::ModelSpec spec;
    spec.name = "only";
    spec.network = &network;
    spec.bnn = &bnn;
    registry.add(spec);

    serve::FleetOptions options;
    options.slots = 2;
    serve::FleetServer fleet(registry, options);

    serve::Request first;
    first.input = sequences[0];
    EXPECT_EQ(serve::FleetServer::collect(
                  fleet.enqueue("only", std::move(first)))
                  .id,
              0u);

    // The unknown-model rejection must draw id 1 like any submission
    // (it used to leave the counter untouched and report id 0).
    serve::Request unrouted;
    unrouted.input = sequences[0];
    EXPECT_THROW(fleet.enqueue("nonesuch", std::move(unrouted)).get(),
                 std::invalid_argument);

    serve::Request second;
    second.input = sequences[1];
    EXPECT_EQ(serve::FleetServer::collect(
                  fleet.enqueue("only", std::move(second)))
                  .id,
              2u)
        << "rejection did not consume an id";
}

TEST(AdmissionTest, RecordShedEndsTheMeasuredWindow)
{
    serve::ServingStats stats;
    stats.start();
    serve::Response response;
    response.latencyMs = 1.0;
    response.steps = 1;
    response.deadlineMet = true;
    stats.record(response);

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stats.recordShed(serve::ShedReason::Expired);

    // The shed is the window's last event: wallSeconds must cover the
    // wait before it (it used to stop at the last completion, so a
    // window ending in sheds overstated throughput).
    serve::StatsSnapshot snap = stats.snapshot();
    EXPECT_GE(snap.wallSeconds, 0.015);
    EXPECT_EQ(snap.shed, 1u);
    EXPECT_EQ(snap.shedPredicted, 0u);

    stats.recordShed(serve::ShedReason::PredictedMiss);
    snap = stats.snapshot();
    EXPECT_EQ(snap.shed, 2u);
    EXPECT_EQ(snap.shedPredicted, 1u);
}

TEST(AdmissionTest, ExactModelsEchoTheRequestTheta)
{
    const nn::RnnConfig config = smallLstmConfig();
    nn::RnnNetwork network(config);
    Rng rng(233);
    nn::initNetwork(network, rng);
    const auto sequences = makeSequences(2, config.inputSize, 631);

    serve::ServerOptions options;
    options.slots = 2;
    options.memoized = false;
    serve::Server server(network, nullptr, options);

    // An explicit per-request theta must come back in the Response
    // even though exact evaluation ignores it — mixed memoized/exact
    // fleets break down stats per theta (it used to report 0.0).
    serve::Request tagged;
    tagged.input = sequences[0];
    tagged.theta = 0.15;
    EXPECT_DOUBLE_EQ(
        serve::Server::collect(server.enqueue(std::move(tagged))).theta,
        0.15);

    // The "server default" sentinel reports 0.0: exact evaluation.
    serve::Request untagged;
    untagged.input = sequences[1];
    EXPECT_DOUBLE_EQ(serve::Server::collect(
                         server.enqueue(std::move(untagged)))
                         .theta,
                     0.0);
}

} // namespace
} // namespace nlfm
