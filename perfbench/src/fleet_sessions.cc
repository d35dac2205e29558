/// @file
/// fleet_sessions: a closed loop of a fixed number of concurrent
/// sessions on one serve::FleetServer hosting three small models from
/// three cell families (IMDB LSTM, BRC, RateRNN). Each session submits
/// its turns one after another, tagged with its session id, so every
/// request writes state: SessionStore::put and the slot exports at
/// completion, restoreSlot at admission. A session that finishes is
/// replaced by a fresh one until the measurement window closes.
///
/// Correctness: the concatenated turns of each session must equal,
/// bit for bit, one uninterrupted pass over the whole session (the
/// closed-batch forwardBatch at the model's theta). Session inputs are
/// a pure function of (seed, session id), so finished sessions keep
/// only a digest and a decode of their outputs; the references are
/// recomputed after the run. Memory does not grow with throughput.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>

#include "common/parallel.hh"
#include "serve/fleet_server.hh"
#include "workloads.hh"
#include "workloads/evaluators.hh"

namespace nlfm::perfbench
{

namespace
{

const char *const kModels[] = {"IMDB", "BRC", "RateRNN"};
constexpr std::size_t kModelCount = 3;
/// Operating thetas from the tune sweep: IMDB's 1 %-loss point, BRC's
/// loss-free 0.8, RateRNN's minimum-loss point.
constexpr double kThetas[kModelCount] = {1.0, 0.8, 0.016};
constexpr std::size_t kSlots = 8;
/// FleetOptions::workers: the driver steps alone, beside the client.
constexpr std::size_t kWorkers = 1;
/// The reference passes' ThreadPool.
constexpr std::size_t kPoolThreads = 4;
/// Sessions in flight.
constexpr std::size_t kSessions = 12;
constexpr std::size_t kTurns = 4;
constexpr std::size_t kTurnSteps = 25;
constexpr std::size_t kSetupReps = 21;
/// Sessions per memoized reference pass (spread over the pool).
constexpr std::size_t kBlock = 256;
/// The first sessions of each model, scored for loss_pts against the
/// exact pass.
constexpr std::size_t kLossSessions = 192;

/// The run-independent description of session @p id.
struct SessionSource
{
    const std::vector<InputGenerator> &generators;
    std::uint64_t seed;
    std::size_t steps; ///< turns x turn steps

    std::size_t model(std::size_t id) const { return id % kModelCount; }

    nn::Sequence input(std::size_t id) const
    {
        Rng rng = Rng(seed).fork(id);
        return generators[model(id)].generate(steps, rng);
    }
};

/// What a finished (or cut) session leaves behind.
struct SessionRecord
{
    std::size_t id = 0;
    std::size_t servedSteps = 0;
    std::uint64_t digest = 0; ///< digestSequence of the served outputs
    metrics::TokenSeq decode; ///< of complete sessions only
};

/// Outcome of one closed-loop pass.
struct ClosedLoopRun
{
    std::vector<SessionRecord> sessions; ///< ids 0..size()-1, any order
    std::vector<ServedRequest> turns;    ///< every completed turn
    std::vector<double> enqueueUs;       ///< enqueue() call durations
    std::vector<double> doneMs;          ///< completion times from start
    std::size_t resumableTurns = 0;      ///< completed turns after a first
    double windowMs = 0.0;
    std::size_t failed = 0;
};

/// Drive @p fleet with kSessions sessions in flight until
/// @p seconds have passed, then let the in-flight turns finish.
ClosedLoopRun
runClosedLoop(serve::FleetServer &fleet, const SessionSource &source,
              const std::vector<std::unique_ptr<workloads::Workload>> &models,
              double seconds, CorrectnessLedger &ledger)
{
    struct Session
    {
        std::size_t id = 0;
        nn::Sequence input;
        nn::Sequence served;
        std::size_t turnsSent = 0;
        std::future<serve::Response> inflight;
    };

    std::vector<workloads::WorkloadEvaluator> evaluators;
    for (const auto &model : models)
        evaluators.emplace_back(*model);

    ClosedLoopRun run;
    std::deque<Session> active;
    std::size_t next_id = 0;
    const auto submit = [&](Session &session) {
        const auto first = session.input.begin() +
                           static_cast<std::ptrdiff_t>(session.turnsSent *
                                                       kTurnSteps);
        serve::Request request;
        request.input.assign(first,
                             first + static_cast<std::ptrdiff_t>(kTurnSteps));
        request.sessionId = std::to_string(session.id);
        const Clock::time_point called = Clock::now();
        session.inflight =
            fleet.enqueue(source.model(session.id), std::move(request));
        run.enqueueUs.push_back(millisBetween(called, Clock::now()) * 1e3);
        ++session.turnsSent;
    };
    const auto start_session = [&] {
        Session session;
        session.id = next_id++;
        session.input = source.input(session.id);
        submit(session);
        active.push_back(std::move(session));
    };
    const auto finish = [&](Session &session) {
        ledger.tamper(session.served);
        SessionRecord record;
        record.id = session.id;
        record.servedSteps = session.served.size();
        record.digest = digestSequence(session.served, session.served.size());
        if (session.served.size() == session.input.size())
            record.decode = evaluators[source.model(session.id)]
                                .decodeSequence(session.served);
        run.sessions.push_back(std::move(record));
    };

    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kSessions; ++i)
        start_session();
    // Wait on the oldest turn in flight: turns are equal-length, so the
    // fleet completes them close to submission order. (A polling client
    // would react sooner but keeps a second core busy, which made the
    // figures swing more under host contention.)
    while (!active.empty()) {
        Session session = std::move(active.front());
        active.pop_front();
        const bool open = secondsSince(start) < seconds;
        try {
            const serve::Response response =
                serve::FleetServer::collect(session.inflight);
            session.served.insert(session.served.end(),
                                  response.output.begin(),
                                  response.output.end());
            run.doneMs.push_back(millisBetween(start, Clock::now()));
            run.resumableTurns += session.turnsSent > 1 ? 1 : 0;
            run.turns.emplace_back(
                response,
                models[source.model(session.id)]->network->totalNeurons());
        } catch (const std::exception &error) {
            std::fprintf(stderr, "session %zu turn %zu failed: %s\n",
                         session.id, session.turnsSent, error.what());
            ++run.failed;
            session.turnsSent = kTurns; // a broken session stops here
        }
        if (open && session.turnsSent < kTurns) {
            submit(session);
            active.push_back(std::move(session));
        } else {
            finish(session);
            if (open)
                start_session();
        }
    }
    run.windowMs = secondsSince(start) * 1e3;
    return run;
}

/// Throughput in each whole second of the window, measured between the
/// first completions at or after consecutive second marks: their median
/// is the run's throughput, so a burst of host noise moves one sample.
std::vector<double>
turnsPerSecond(const ClosedLoopRun &run, double seconds)
{
    std::vector<double> done = run.doneMs;
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    std::size_t from = 0;
    for (double mark = 1e3; mark <= seconds * 1e3; mark += 1e3) {
        const auto to = static_cast<std::size_t>(
            std::lower_bound(done.begin(), done.end(), mark) - done.begin());
        if (to < done.size() && to > from && done[to] > done[from])
            rates.push_back(static_cast<double>(to - from) /
                            (done[to] - done[from]) * 1e3);
        from = to;
    }
    return rates;
}

std::vector<double>
latencies(const ClosedLoopRun &run)
{
    std::vector<double> out;
    for (const ServedRequest &turn : run.turns)
        out.push_back(turn.latencyMs);
    return out;
}

} // namespace

void
runFleetSessions(const RunConfig &config, Report &report,
                 CorrectnessLedger &ledger)
{
    serve::FleetOptions options;
    options.slots = kSlots;
    options.workers = kWorkers;

    // Set-up: the three workload builds plus fleet construction. The
    // first half of the repetitions run here, the rest at the end.
    RunTail tail;
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<workloads::Workload>> models;
    serve::ModelRegistry registry;
    std::unique_ptr<serve::FleetServer> fleet;
    const auto set_up = [&] {
        fleet.reset();
        models.clear();
        registry = serve::ModelRegistry();
        const Clock::time_point start = Clock::now();
        for (const char *name : kModels)
            models.push_back(workloads::buildWorkload(
                workloads::specByName(name), kBuildSteps, 1));
        tail.buildSeconds.push_back(secondsSince(start));
        for (std::size_t m = 0; m < kModelCount; ++m) {
            serve::ModelSpec spec;
            spec.name = kModels[m];
            spec.network = models[m]->network.get();
            spec.bnn = models[m]->bnn.get();
            spec.memo.predictor = memo::PredictorKind::Bnn;
            spec.memo.theta = kThetas[m];
            registry.add(spec);
        }
        fleet = std::make_unique<serve::FleetServer>(registry, options);
        setup_s.push_back(secondsSince(start));
    };
    for (std::size_t rep = 0; rep < (kSetupReps + 1) / 2; ++rep)
        set_up();
    std::vector<InputGenerator> generators;
    for (const auto &model : models)
        generators.emplace_back(model->spec);
    const SessionSource source{generators, config.seed, kTurns * kTurnSteps};

    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    const ClosedLoopRun run =
        runClosedLoop(*fleet, source, models, config.seconds, ledger);
    fleet->stop();
    tail.wallSeconds = secondsSince(start);
    tail.cpuSeconds = processCpuSeconds() - cpu_start;
    const double peak_rss_mb = peakRssMb();

    // Traced run: the same session stream through a fleet with the
    // driver tracer on. Per turn: at most one tick (five spans) per
    // step plus five request spans; doubled in case it serves more.
    std::unique_ptr<serve::FleetServer> traced;
    ClosedLoopRun traced_run;
    if (config.trace) {
        serve::FleetOptions traced_options = options;
        traced_options.telemetry.trace = true;
        traced_options.telemetry.traceCapacity =
            2 * (5 * kTurnSteps + 5) * run.turns.size() + (1 << 16);
        traced = std::make_unique<serve::FleetServer>(registry,
                                                      traced_options);
        traced_run =
            runClosedLoop(*traced, source, models, config.seconds, ledger);
        traced->stop();
    }

    // Every run's records by session id, the untraced run's first.
    std::map<std::size_t, std::vector<const SessionRecord *>> records;
    const ClosedLoopRun *const runs[] = {&run, &traced_run};
    for (const ClosedLoopRun *r : runs)
        for (const SessionRecord &record : r->sessions)
            records[record.id].push_back(&record);

    // References, per model: one uninterrupted memoized closed-batch
    // pass over each session's whole input at the model's theta. A
    // session cut by the window is compared on the steps it was served
    // (outputs are causal).
    LayerAccumulator layers;
    LayerAccumulator *traced_layers = config.trace ? &layers : nullptr;
    std::FILE *spans = openSpans(config);
    ThreadPool pool(kPoolThreads);
    double loss = 0.0;
    std::size_t scored = 0;
    for (std::size_t m = 0; m < kModelCount; ++m) {
        nn::RnnNetwork &network = *models[m]->network;
        memo::BatchMemoEngine engine(network, models[m]->bnn.get(),
                                     registry.spec(m).memo);
        nn::DirectBatchEvaluator direct;
        workloads::WorkloadEvaluator evaluator(*models[m]);
        std::vector<metrics::TokenSeq> exact_decodes, served_decodes;
        std::vector<std::size_t> ids;
        for (const auto &entry : records)
            if (source.model(entry.first) == m)
                ids.push_back(entry.first);
        for (std::size_t first = 0; first < ids.size(); first += kBlock) {
            const std::size_t last = std::min(ids.size(), first + kBlock);
            std::vector<nn::Sequence> inputs;
            for (std::size_t k = first; k < last; ++k)
                inputs.push_back(source.input(ids[k]));
            double seconds = 0.0;
            const auto memo_out = closedBatch(network, inputs, engine,
                                              &engine, pool, traced_layers,
                                              spans, seconds);
            for (std::size_t k = first; k < last; ++k)
                for (const SessionRecord *record : records[ids[k]])
                    ledger.checkDigest(
                        record->digest,
                        digestSequence(memo_out[k - first],
                                       record->servedSteps));
            if (first >= kLossSessions)
                continue;
            // The exact pass over the model's first sessions, for the
            // delivered loss of the untraced run's complete sessions.
            const std::size_t sample = std::min(last, kLossSessions) - first;
            const auto exact_out = closedBatch(
                network, std::span<const nn::Sequence>(inputs.data(), sample),
                direct, nullptr, pool, traced_layers, spans, seconds);
            for (std::size_t k = 0; k < sample; ++k) {
                const std::size_t id = ids[first + k];
                const SessionRecord *plain = records[id].front();
                if (id < run.sessions.size() && !plain->decode.empty()) {
                    exact_decodes.push_back(
                        evaluator.decodeSequence(exact_out[k]));
                    served_decodes.push_back(plain->decode);
                }
            }
        }
        if (!exact_decodes.empty()) {
            loss += evaluator.scoreLoss(exact_decodes, served_decodes);
            scored += exact_decodes.size();
        }
    }
    if (spans != nullptr)
        std::fclose(spans);
    ledger.fail(run.failed + traced_run.failed);

    const std::size_t done = run.turns.size();
    std::printf("fleet_sessions: %zu sessions, %zu turns served, %zu "
                "failed, %zu in flight\n",
                run.sessions.size(), done, run.failed, kSessions);
    const std::vector<double> latency_ms = latencies(run);
    const std::vector<double> buckets = turnsPerSecond(run, config.seconds);
    report.add("seq_per_s", median(buckets), "seq/s", buckets.size());
    report.notApplicable("exact_seq_per_s", "seq/s");
    report.add("p50_ms", percentile(latency_ms, 50.0), "ms", done);
    report.add("p99_ms", percentile(latency_ms, 99.0), "ms", done);
    report.add("loss_pts", loss / kModelCount, "points", scored);
    reportOutcome(report, ledger, peak_rss_mb);
    if (config.trace) {
        std::vector<const nn::RnnNetwork *> networks;
        for (const auto &model : models)
            networks.push_back(model->network.get());
        reportTensorProbe(report, networks, 0.3);

        ServeObservation observation;
        observation.spans = traced->telemetry()->tracer()->spans();
        observation.traceDropped = traced->telemetry()->tracer()->dropped();
        observation.responses = traced_run.turns;
        observation.enqueueUs = traced_run.enqueueUs;
        observation.windowMs = traced_run.windowMs;
        observation.shed = traced->stats().shed;
        observation.resumableTurns = traced_run.resumableTurns;
        reportMemoTotals(report, memoTotalsFromTrace(observation));
        layers.report(report);
        reportServe(report, &observation);

        const double plain = percentile(latency_ms, 50.0);
        tail.traceOverheadPct =
            100.0 * (percentile(latencies(traced_run), 50.0) - plain) /
            plain;
        reportTail(report, tail);
    }

    // The second half of the set-ups; nothing above is used after this.
    traced.reset();
    while (setup_s.size() < kSetupReps)
        set_up();
    reportSetup(report, config, setup_s, tail);
}

} // namespace nlfm::perfbench
