/**
 * @file
 * Contract tests of the multi-model fleet host.
 *
 *  - The deficit-round-robin admission policy grants admissions in
 *    proportion to registered weights and never starves a backlogged
 *    model.
 *  - Every request served by a fleet produces outputs bitwise identical
 *    to RnnNetwork::forward through the serial MemoEngine, a reference
 *    that never runs the serving driver — sharing the slot pool with
 *    other models is a scheduling change, not a numerical one. (A
 *    serve::Server is a one-model fleet, so comparing against one
 *    shows schedule independence, not an independent result.)
 *  - serve::Server forwards to its one-model fleet: model "default",
 *    model id 0, and the fleet's counters.
 *  - A slot reclaimed from one model and handed to another starts cold
 *    in both models' engines.
 *  - Skewed load at one model does not starve its neighbor.
 *  - Admission-time load shedding fails expired requests with ShedError
 *    and counts them, per model and aggregate.
 *  - Per-model stats break down the aggregate exactly.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hh"
#include "memo/memo_batch.hh"
#include "memo/memo_engine.hh"
#include "nn/init.hh"
#include "serve/fleet_server.hh"
#include "serve/server.hh"

namespace nlfm
{
namespace
{

nn::RnnConfig
lstmConfig()
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

nn::RnnConfig
gruConfig()
{
    nn::RnnConfig config;
    config.cellType = nn::CellType::Gru;
    config.inputSize = 5; // differs from the LSTM: catches cross-wiring
    config.hiddenSize = 7;
    config.layers = 1;
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

/** Serial per-sequence reference at one theta. */
nn::Sequence
serialReference(nn::RnnNetwork &network, nn::BinarizedNetwork &bnn,
                const nn::Sequence &input, double theta)
{
    memo::MemoOptions options;
    options.predictor = memo::PredictorKind::Bnn;
    options.theta = theta;
    memo::MemoEngine engine(network, &bnn, options);
    return network.forward(input, engine);
}

/** One resident model for fleet tests: network + mirror + inputs. */
struct TestModel
{
    nn::RnnConfig config;
    nn::RnnNetwork network;
    nn::BinarizedNetwork bnn;
    std::vector<nn::Sequence> sequences;

    TestModel(const nn::RnnConfig &cfg, std::uint64_t init_seed,
              std::size_t count, std::uint64_t data_seed,
              std::size_t fixed_len = 0)
        // The comma expression initializes the weights before the
        // binarized mirror snapshots their signs.
        : config(cfg), network(cfg),
          bnn((initWeights(network, init_seed), network)),
          sequences(makeSequences(count, cfg.inputSize, data_seed,
                                  fixed_len))
    {
    }

  private:
    static void
    initWeights(nn::RnnNetwork &network, std::uint64_t seed)
    {
        Rng rng(seed);
        nn::initNetwork(network, rng);
    }
};

// ------------------------------------------------ admission policy

TEST(FleetSchedulerTest, EqualWeightsAlternate)
{
    const double weights[] = {1.0, 1.0};
    serve::FleetScheduler scheduler(4, weights);
    const std::size_t pending[] = {100, 100};

    std::vector<int> picks;
    for (int i = 0; i < 8; ++i)
        picks.push_back(scheduler.pickModel(pending));
    // Both backlogged at equal weight: strict alternation.
    for (std::size_t i = 1; i < picks.size(); ++i)
        EXPECT_NE(picks[i], picks[i - 1]) << "pick " << i;
}

TEST(FleetSchedulerTest, WeightsSetAdmissionRatio)
{
    const double weights[] = {2.0, 1.0};
    serve::FleetScheduler scheduler(4, weights);
    const std::size_t pending[] = {1000, 1000};

    int count0 = 0;
    int count1 = 0;
    for (int i = 0; i < 300; ++i) {
        const int pick = scheduler.pickModel(pending);
        ASSERT_GE(pick, 0);
        (pick == 0 ? count0 : count1)++;
    }
    EXPECT_EQ(count0, 200);
    EXPECT_EQ(count1, 100);
}

TEST(FleetSchedulerTest, FractionalWeightNeverStarves)
{
    // Weight 0.25 admits once per 4 rounds — slowly, but provably.
    const double weights[] = {0.25, 1.0};
    serve::FleetScheduler scheduler(4, weights);
    const std::size_t pending[] = {1000, 1000};

    int count0 = 0;
    for (int i = 0; i < 250; ++i)
        if (scheduler.pickModel(pending) == 0)
            ++count0;
    EXPECT_EQ(count0, 50); // 1 : 4 ratio
}

TEST(FleetSchedulerTest, IdleModelYieldsPoolAndDropsCredit)
{
    const double weights[] = {1.0, 1.0};
    serve::FleetScheduler scheduler(4, weights);

    // Model 1 idle: model 0 takes every admission.
    const std::size_t only0[] = {10, 0};
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(scheduler.pickModel(only0), 0);

    // Model 1 returns: its idle spell earned no credit burst, so picks
    // alternate immediately instead of flooding model 1.
    const std::size_t both[] = {10, 10};
    std::vector<int> picks;
    for (int i = 0; i < 6; ++i)
        picks.push_back(scheduler.pickModel(both));
    int count1 = 0;
    for (const int pick : picks)
        count1 += pick == 1 ? 1 : 0;
    EXPECT_EQ(count1, 3);

    // Nothing pending anywhere: no pick.
    const std::size_t none[] = {0, 0};
    EXPECT_EQ(scheduler.pickModel(none), -1);
}

// ------------------------------------- identity vs single-model serve

TEST(FleetTest, OutputsBitwiseIdenticalToSingleModelServers)
{
    TestModel lstm(lstmConfig(), 31, 7, 101);
    TestModel gru(gruConfig(), 37, 7, 103);

    memo::MemoOptions memo_lstm;
    memo_lstm.predictor = memo::PredictorKind::Bnn;
    memo_lstm.theta = 0.05;
    memo::MemoOptions memo_gru;
    memo_gru.predictor = memo::PredictorKind::Bnn;
    memo_gru.theta = 0.10; // distinct default: pins per-model defaults

    // Per-request thetas: defaults (-1) and overrides, mixed in panels.
    const double thetas[] = {-1.0, 0.01, 0.15, -1.0, 0.02, -1.0, 0.15};

    // Reference: each model behind its own single-model Server.
    std::vector<nn::Sequence> ref_lstm;
    std::vector<nn::Sequence> ref_gru;
    {
        serve::ServerOptions options;
        options.slots = 3;
        options.memo = memo_lstm;
        serve::Server server(lstm.network, &lstm.bnn, options);
        std::vector<std::future<serve::Response>> futures;
        for (std::size_t b = 0; b < lstm.sequences.size(); ++b) {
            serve::Request request;
            request.input = lstm.sequences[b];
            request.theta = thetas[b];
            futures.push_back(server.enqueue(std::move(request)));
        }
        for (auto &future : futures)
            ref_lstm.push_back(serve::Server::collect(future).output);
    }
    {
        serve::ServerOptions options;
        options.slots = 3;
        options.memo = memo_gru;
        serve::Server server(gru.network, &gru.bnn, options);
        std::vector<std::future<serve::Response>> futures;
        for (std::size_t b = 0; b < gru.sequences.size(); ++b) {
            serve::Request request;
            request.input = gru.sequences[b];
            request.theta = thetas[b];
            futures.push_back(server.enqueue(std::move(request)));
        }
        for (auto &future : futures)
            ref_gru.push_back(serve::Server::collect(future).output);
    }

    // Fleet: both models share a 3-slot pool, requests interleaved so
    // mixed-model panels are unavoidable.
    serve::ModelRegistry registry;
    serve::ModelSpec spec_lstm;
    spec_lstm.name = "lstm";
    spec_lstm.network = &lstm.network;
    spec_lstm.bnn = &lstm.bnn;
    spec_lstm.memo = memo_lstm;
    serve::ModelSpec spec_gru;
    spec_gru.name = "gru";
    spec_gru.network = &gru.network;
    spec_gru.bnn = &gru.bnn;
    spec_gru.memo = memo_gru;
    const std::size_t id_lstm = registry.add(spec_lstm);
    const std::size_t id_gru = registry.add(spec_gru);

    serve::FleetOptions options;
    options.slots = 3;
    serve::FleetServer fleet(registry, options);

    std::vector<std::future<serve::Response>> fut_lstm;
    std::vector<std::future<serve::Response>> fut_gru;
    for (std::size_t b = 0; b < lstm.sequences.size(); ++b) {
        serve::Request request;
        request.input = lstm.sequences[b];
        request.theta = thetas[b];
        fut_lstm.push_back(fleet.enqueue(id_lstm, std::move(request)));
        serve::Request other;
        other.input = gru.sequences[b];
        other.theta = thetas[b];
        fut_gru.push_back(fleet.enqueue(id_gru, std::move(other)));
    }

    for (std::size_t b = 0; b < fut_lstm.size(); ++b) {
        const serve::Response response =
            serve::FleetServer::collect(fut_lstm[b]);
        const double expected_theta =
            thetas[b] < 0.0 ? memo_lstm.theta : thetas[b];
        EXPECT_DOUBLE_EQ(response.theta, expected_theta)
            << "lstm request " << b;
        expectSequenceIdentical(ref_lstm[b], response.output,
                                "fleet vs single server, lstm request " +
                                    std::to_string(b));
        expectSequenceIdentical(
            serialReference(lstm.network, lstm.bnn, lstm.sequences[b],
                            expected_theta),
            response.output,
            "fleet vs serial, lstm request " + std::to_string(b));
    }
    for (std::size_t b = 0; b < fut_gru.size(); ++b) {
        const serve::Response response =
            serve::FleetServer::collect(fut_gru[b]);
        const double expected_theta =
            thetas[b] < 0.0 ? memo_gru.theta : thetas[b];
        EXPECT_DOUBLE_EQ(response.theta, expected_theta)
            << "gru request " << b;
        expectSequenceIdentical(ref_gru[b], response.output,
                                "fleet vs single server, gru request " +
                                    std::to_string(b));
        expectSequenceIdentical(
            serialReference(gru.network, gru.bnn, gru.sequences[b],
                            expected_theta),
            response.output,
            "fleet vs serial, gru request " + std::to_string(b));
    }

    // Per-model stats break the aggregate down exactly.
    const serve::FleetStatsSnapshot stats = fleet.fleetStats();
    ASSERT_EQ(stats.perModel.size(), 2u);
    EXPECT_EQ(stats.names[id_lstm], "lstm");
    EXPECT_EQ(stats.names[id_gru], "gru");
    EXPECT_EQ(stats.perModel[id_lstm].completed, fut_lstm.size());
    EXPECT_EQ(stats.perModel[id_gru].completed, fut_gru.size());
    EXPECT_EQ(stats.aggregate.completed,
              fut_lstm.size() + fut_gru.size());
    EXPECT_EQ(stats.aggregate.shed, 0u);
}

// ------------------------------------------ the one-model Server facade

TEST(FleetTest, ServerIsAOneModelFleet)
{
    TestModel lstm(lstmConfig(), 47, 4, 113);

    serve::ServerOptions options;
    options.slots = 2;
    options.memo.predictor = memo::PredictorKind::Bnn;
    options.memo.theta = 0.05;
    options.telemetry.metrics = true;
    ASSERT_FALSE(options.autopilot.enabled);
    serve::Server server(lstm.network, &lstm.bnn, options);
    ASSERT_NE(server.telemetry(), nullptr);

    // Five requests on two slots, one of them zero-length: it is
    // admitted like the others and completes without a step.
    std::vector<nn::Sequence> inputs = lstm.sequences;
    inputs.insert(inputs.begin() + 2, nn::Sequence{});
    ASSERT_EQ(inputs.size(), 5u);
    std::vector<std::future<serve::Response>> futures;
    for (const nn::Sequence &input : inputs) {
        serve::Request request;
        request.input = input;
        futures.push_back(server.enqueue(std::move(request)));
    }
    for (std::size_t b = 0; b < futures.size(); ++b) {
        const serve::Response response =
            serve::Server::collect(futures[b]);
        ASSERT_EQ(response.steps, inputs[b].size()) << "request " << b;
        if (inputs[b].empty())
            continue;
        expectSequenceIdentical(
            serialReference(lstm.network, lstm.bnn, inputs[b],
                            options.memo.theta),
            response.output,
            "server vs serial, request " + std::to_string(b));
    }
    server.drain();
    EXPECT_EQ(server.queueDepth(), 0u);

    // Every admission goes through the fleet's scheduler, so the
    // fleet's admission counter counts a Server's requests too.
    auto &registry = server.telemetry()->registry();
    const auto counter = [&registry](const std::string &name) {
        return registry.counter(name, "").value();
    };
    EXPECT_EQ(
        counter("nlfm_serve_fleet_admissions_total{model=\"default\"}"),
        inputs.size());
    EXPECT_EQ(counter("nlfm_serve_completed_total{model=\"default\"}"),
              inputs.size());

    EXPECT_EQ(server.thetaFloor(), 0.0);
    EXPECT_TRUE(server.thetaAudit().empty());
    EXPECT_EQ(server.options().slots, 2u);
}

TEST(FleetTest, OutputsDeterministicAcrossWorkerCounts)
{
    TestModel lstm(lstmConfig(), 41, 6, 107);
    TestModel gru(gruConfig(), 43, 6, 109);

    std::vector<std::vector<nn::Sequence>> outputs_by_variant;
    struct Variant
    {
        std::size_t workers;
    };
    const Variant variants[] = {{1}, {3}};
    for (const Variant &variant : variants) {
        serve::ModelRegistry registry;
        serve::ModelSpec a;
        a.name = "a";
        a.network = &lstm.network;
        a.bnn = &lstm.bnn;
        serve::ModelSpec b;
        b.name = "b";
        b.network = &gru.network;
        b.bnn = &gru.bnn;
        registry.add(a);
        registry.add(b);

        serve::FleetOptions options;
        options.slots = 5;
        options.workers = variant.workers;
        serve::FleetServer fleet(registry, options);

        std::vector<std::future<serve::Response>> futures;
        for (std::size_t i = 0; i < lstm.sequences.size(); ++i) {
            serve::Request ra;
            ra.input = lstm.sequences[i];
            futures.push_back(fleet.enqueue("a", std::move(ra)));
            serve::Request rb;
            rb.input = gru.sequences[i];
            futures.push_back(fleet.enqueue("b", std::move(rb)));
        }
        std::vector<nn::Sequence> outputs;
        for (auto &future : futures)
            outputs.push_back(
                serve::FleetServer::collect(future).output);
        outputs_by_variant.push_back(std::move(outputs));
    }
    for (std::size_t b = 0; b < outputs_by_variant[0].size(); ++b)
        expectSequenceIdentical(outputs_by_variant[0][b],
                                outputs_by_variant[1][b],
                                "workers=3 chunk=2, request " +
                                    std::to_string(b));
}

// --------------------------------------------- cross-model recycling

TEST(FleetTest, CrossModelSlotRecyclingStartsCold)
{
    TestModel lstm(lstmConfig(), 47, 1, 113);
    TestModel gru(gruConfig(), 53, 1, 127);

    // Generous theta: any leaked memo state reuses immediately and
    // diverges from the cold serial reference.
    memo::MemoOptions memo_options;
    memo_options.predictor = memo::PredictorKind::Bnn;
    memo_options.theta = 0.25;

    const nn::Sequence ref_lstm = serialReference(
        lstm.network, lstm.bnn, lstm.sequences[0], memo_options.theta);
    const nn::Sequence ref_gru = serialReference(
        gru.network, gru.bnn, gru.sequences[0], memo_options.theta);

    serve::ModelRegistry registry;
    serve::ModelSpec a;
    a.name = "lstm";
    a.network = &lstm.network;
    a.bnn = &lstm.bnn;
    a.memo = memo_options;
    serve::ModelSpec b;
    b.name = "gru";
    b.network = &gru.network;
    b.bnn = &gru.bnn;
    b.memo = memo_options;
    registry.add(a);
    registry.add(b);

    serve::FleetOptions options;
    options.slots = 1; // the single slot must recycle across models
    serve::FleetServer fleet(registry, options);

    for (int round = 0; round < 3; ++round) {
        serve::Request ra;
        ra.input = lstm.sequences[0];
        const serve::Response response_a =
            serve::FleetServer::collect(fleet.enqueue(0, std::move(ra)));
        expectSequenceIdentical(ref_lstm, response_a.output,
                                "lstm round " + std::to_string(round));
        EXPECT_GT(response_a.reuseFraction, 0.0)
            << "theta=0.25 should reuse within the sequence";

        serve::Request rb;
        rb.input = gru.sequences[0];
        const serve::Response response_b =
            serve::FleetServer::collect(fleet.enqueue(1, std::move(rb)));
        expectSequenceIdentical(ref_gru, response_b.output,
                                "gru round " + std::to_string(round));
    }
}

// ------------------------------------------------------- starvation

TEST(FleetTest, SkewedLoadDoesNotStarveTheLightModel)
{
    // Two models of the SAME topology (equal service cost) so queueing
    // comparisons are about admission policy, not model weight. The
    // network is sized up so draining the heavy backlog takes real
    // wall time (~10ms+): the assertions below compare positions in
    // that drain, which a backlog over in microseconds cannot resolve.
    nn::RnnConfig config;
    config.cellType = nn::CellType::Lstm;
    config.inputSize = 8;
    config.hiddenSize = 96;
    config.layers = 2;
    config.bidirectional = false;
    TestModel heavy(config, 61, 24, 131, /*fixed_len=*/24);
    TestModel light(config, 67, 4, 137, /*fixed_len=*/24);
    const auto plugs = makeSequences(2, config.inputSize, 141,
                                     /*fixed_len=*/128);

    serve::ModelRegistry registry;
    serve::ModelSpec a;
    a.name = "heavy";
    a.network = &heavy.network;
    a.bnn = &heavy.bnn;
    serve::ModelSpec b;
    b.name = "light";
    b.network = &light.network;
    b.bnn = &light.bnn;
    registry.add(a);
    registry.add(b);

    serve::FleetOptions options;
    options.slots = 2;
    options.queueCapacity = 32;
    serve::FleetServer fleet(registry, options);

    // Two long plug requests occupy both slots first, so the entire
    // skewed backlog is queued BEFORE any of it can be admitted — the
    // admission order below is then a pure scheduling decision, not a
    // race against how fast this machine drains tiny requests.
    std::vector<std::future<serve::Response>> plug_futures;
    for (const auto &plug : plugs) {
        serve::Request request;
        request.input = plug;
        plug_futures.push_back(fleet.enqueue(0, std::move(request)));
    }

    std::vector<std::future<serve::Response>> heavy_futures;
    for (const auto &sequence : heavy.sequences) {
        serve::Request request;
        request.input = sequence;
        heavy_futures.push_back(fleet.enqueue(0, std::move(request)));
    }
    std::vector<std::future<serve::Response>> light_futures;
    for (const auto &sequence : light.sequences) {
        serve::Request request;
        request.input = sequence;
        light_futures.push_back(fleet.enqueue(1, std::move(request)));
    }

    // Fair admission interleaves the light model's 4 requests with the
    // heavy backlog of 24: the light model must drain while the heavy
    // queue is still deep. (A FIFO-across-models scheduler would
    // finish every heavy request first.)
    double light_max_queue = 0.0;
    for (auto &future : light_futures)
        light_max_queue =
            std::max(light_max_queue,
                     serve::FleetServer::collect(future).queueMs);
    bool heavy_still_pending = false;
    for (auto &future : heavy_futures)
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            heavy_still_pending = true;
    EXPECT_TRUE(heavy_still_pending)
        << "light model starved: its requests only completed after the "
           "entire heavy backlog";

    double heavy_max_queue = 0.0;
    for (auto &future : heavy_futures)
        heavy_max_queue =
            std::max(heavy_max_queue,
                     serve::FleetServer::collect(future).queueMs);
    for (auto &future : plug_futures)
        serve::FleetServer::collect(future);

    const serve::FleetStatsSnapshot stats = fleet.fleetStats();
    EXPECT_EQ(stats.perModel[0].completed,
              heavy.sequences.size() + plugs.size());
    EXPECT_EQ(stats.perModel[1].completed, light.sequences.size());
    EXPECT_LT(light_max_queue, heavy_max_queue)
        << "fair admission should finish the light model's queue well "
           "inside the heavy drain";
}

// ---------------------------------------------------- load shedding

TEST(FleetTest, ShedsExpiredRequestsAndCountsThem)
{
    TestModel lstm(lstmConfig(), 71, 2, 139, /*fixed_len=*/20);

    serve::ModelRegistry registry;
    serve::ModelSpec spec;
    spec.name = "only";
    spec.network = &lstm.network;
    spec.bnn = &lstm.bnn;
    registry.add(spec);

    serve::FleetOptions options;
    options.slots = 1;
    options.shedExpired = true;
    serve::FleetServer fleet(registry, options);

    // Blocker occupies the only slot; the doomed request's deadline is
    // over before any slot can free up, so admission sheds it.
    serve::Request blocker;
    blocker.input = lstm.sequences[0];
    auto blocker_future = fleet.enqueue(0, std::move(blocker));

    serve::Request doomed;
    doomed.input = lstm.sequences[1];
    doomed.deadlineMs = 1e-7;
    auto doomed_future = fleet.enqueue(0, std::move(doomed));

    EXPECT_THROW(doomed_future.get(), serve::ShedError);
    const serve::Response blocked =
        serve::FleetServer::collect(blocker_future);
    EXPECT_EQ(blocked.steps, 20u);

    fleet.drain(); // shed requests must not count as pending
    const serve::FleetStatsSnapshot stats = fleet.fleetStats();
    EXPECT_EQ(stats.aggregate.shed, 1u);
    EXPECT_EQ(stats.perModel[0].shed, 1u);
    EXPECT_EQ(stats.aggregate.completed, 1u);
}

// ------------------------------------------------------ edge cases

TEST(FleetTest, EdgeRequestsFailTheirOwnFuturesOnly)
{
    TestModel lstm(lstmConfig(), 73, 2, 149);

    serve::ModelRegistry registry;
    serve::ModelSpec spec;
    spec.name = "only";
    spec.network = &lstm.network;
    spec.bnn = &lstm.bnn;
    registry.add(spec);

    serve::FleetOptions options;
    options.slots = 2;
    serve::FleetServer fleet(registry, options);

    // Zero-length request completes immediately with an empty output.
    serve::Request empty;
    const serve::Response empty_response =
        serve::FleetServer::collect(fleet.enqueue(0, std::move(empty)));
    EXPECT_EQ(empty_response.steps, 0u);
    EXPECT_TRUE(empty_response.output.empty());

    // Wrong frame width fails its own future at enqueue, and so does a
    // frame holding a NaN or an infinity.
    serve::Request bad;
    bad.input.assign(
        3, std::vector<float>(lstm.config.inputSize + 2, 0.f));
    EXPECT_THROW(fleet.enqueue(0, std::move(bad)).get(),
                 std::invalid_argument);
    for (const float non_finite : {std::numeric_limits<float>::quiet_NaN(),
                                   std::numeric_limits<float>::infinity()}) {
        serve::Request poisoned;
        poisoned.input = lstm.sequences[1];
        poisoned.input.front()[0] = non_finite;
        EXPECT_THROW(fleet.enqueue(0, std::move(poisoned)).get(),
                     std::invalid_argument);
    }

    // Unknown model name / out-of-range id fail their own futures.
    serve::Request unrouted;
    unrouted.input = lstm.sequences[0];
    EXPECT_THROW(fleet.enqueue("nonesuch", std::move(unrouted)).get(),
                 std::invalid_argument);
    serve::Request out_of_range;
    out_of_range.input = lstm.sequences[0];
    EXPECT_THROW(fleet.enqueue(7, std::move(out_of_range)).get(),
                 std::invalid_argument);

    // The server is still healthy after every rejection.
    serve::Request good;
    good.input = lstm.sequences[0];
    const serve::Response response =
        serve::FleetServer::collect(fleet.enqueue(0, std::move(good)));
    EXPECT_EQ(response.steps, lstm.sequences[0].size());
    fleet.drain();

    // Enqueue after stop fails the future instead of hanging.
    fleet.stop();
    serve::Request late;
    late.input = lstm.sequences[1];
    auto late_future = fleet.enqueue(0, std::move(late));
    EXPECT_THROW(late_future.get(), std::runtime_error);
}

} // namespace
} // namespace nlfm
