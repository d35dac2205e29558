/**
 * @file
 * Multi-turn session study of the fleet server: warm (session-tagged)
 * vs cold arms of the identical turn schedule.
 *
 * A DeepSpeech2 + IMDB fleet serves multi-turn "conversations" (each
 * test sequence split into contiguous turns, submitted turn-by-turn
 * with a barrier between rounds) twice on the identical schedule — once
 * with every request session-tagged (turns after the first warm-resume
 * the stored memo table + recurrent state) and once untagged (every
 * turn starts cold, the pre-session behavior). Reports per-model reuse
 * uplift and the DELIVERED loss of the concatenated turn outputs
 * against the uninterrupted exact-baseline decode of each full session.
 *
 * Exits non-zero when any expected warm resume is missed, warm reuse
 * drops below cold, or a request goes unaccounted.
 */

#include <cstdio>

#include "common/bench_common.hh"
#include "common/logging.hh"
#include "common/report.hh"
#include "metrics/accuracy.hh"
#include "serve/fleet_server.hh"

namespace
{

using namespace nlfm;

/** One resident model of the session study. */
struct SessionModel
{
    std::string name;
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<workloads::WorkloadEvaluator> evaluator;
    /// Full-length session sequences (one session per test sequence).
    std::vector<nn::Sequence> sessions;
    /// sessions split into contiguous turns: turns[session][turn].
    std::vector<std::vector<nn::Sequence>> turns;
    /// Exact-baseline decode of each full (uninterrupted) session.
    std::vector<metrics::TokenSeq> exactDecodes;
};

/** One arm (warm or cold) of the session study. */
struct SessionArm
{
    serve::FleetStatsSnapshot stats;
    /// Per-model canonical loss of the concatenated turn decodes vs
    /// the uninterrupted exact-baseline decodes.
    std::vector<double> deliveredLossPct;
    std::uint64_t evictions = 0;
    bool accounted = true;
};

/**
 * Serve every session's turns through the fleet on a round-barrier
 * schedule: round t enqueues turn t of EVERY session (both models
 * interleaved, so panels mix models exactly like real fleet traffic)
 * and collects all of round t before round t+1 begins. Turn order
 * within a session is what the warm-start contract requires, and the
 * schedule is identical across arms, so the warm/cold difference is
 * the session store — not the workload or the slot pool.
 */
SessionArm
runSessionArm(std::vector<SessionModel> &models,
              const serve::FleetOptions &options, bool warm)
{
    serve::ModelRegistry registry;
    for (const SessionModel &model : models) {
        serve::ModelSpec spec;
        spec.name = model.name;
        spec.network = model.workload->network.get();
        spec.bnn = model.workload->bnn.get();
        spec.memo.predictor = memo::PredictorKind::Bnn;
        spec.memo.theta = 0.05;
        registry.add(spec);
    }
    serve::FleetServer fleet(registry, options);

    const std::size_t turn_count = models.front().turns.front().size();
    std::vector<std::vector<nn::Sequence>> served(models.size());
    for (std::size_t m = 0; m < models.size(); ++m)
        served[m].resize(models[m].sessions.size());

    std::size_t expected = 0;
    for (std::size_t t = 0; t < turn_count; ++t) {
        std::vector<std::future<serve::Response>> futures;
        std::vector<std::pair<std::size_t, std::size_t>> origin;
        for (std::size_t m = 0; m < models.size(); ++m) {
            for (std::size_t s = 0; s < models[m].turns.size(); ++s) {
                serve::Request request;
                request.input = models[m].turns[s][t];
                // The SAME id on both models, deliberately: sessions
                // are keyed (model, id), so shared ids must never
                // leak state across models. A leak would trip the
                // steppers' shape asserts (the models differ in
                // width) before it could corrupt a decode.
                if (warm)
                    request.sessionId =
                        "session-" + std::to_string(s);
                futures.push_back(fleet.enqueue(m, std::move(request)));
                origin.emplace_back(m, s);
            }
        }
        // Barrier: a session's next turn may only be submitted once
        // this turn's future resolved (the store's checkout contract).
        // Completion delivery happens after the snapshot is stored, so
        // the resolved future guarantees the state is back in the
        // store.
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const serve::Response response =
                serve::FleetServer::collect(futures[i]);
            const auto [m, s] = origin[i];
            served[m][s].insert(served[m][s].end(),
                                response.output.begin(),
                                response.output.end());
            ++expected;
        }
    }
    fleet.drain();

    SessionArm arm;
    arm.stats = fleet.fleetStats();
    arm.evictions = fleet.sessionEvictions();
    arm.accounted = arm.stats.aggregate.completed == expected;
    for (std::size_t m = 0; m < models.size(); ++m) {
        std::vector<metrics::TokenSeq> decodes;
        decodes.reserve(served[m].size());
        for (const nn::Sequence &outputs : served[m])
            decodes.push_back(
                models[m].evaluator->decodeSequence(outputs));
        arm.deliveredLossPct.push_back(models[m].evaluator->scoreLoss(
            models[m].exactDecodes, decodes));
    }
    return arm;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions options = bench::parseBenchArgs(
        argc, argv,
        "multi-turn session study: warm (session-tagged) vs cold arms of "
        "one turn schedule on a DeepSpeech2 + IMDB fleet");

    const std::size_t steps =
        options.steps != 0 ? options.steps : (options.quick ? 6 : 20);
    const std::size_t session_count = options.quick ? 3 : 10;
    const std::size_t turn_count = 3;
    const std::size_t session_slots = options.quick ? 4 : 8;
    const std::vector<std::string> session_names = {"DeepSpeech2",
                                                    "IMDB"};
    std::printf("session study: %zu sessions/model x %zu turns "
                "(%zu steps/session), %zu-slot fleet, theta 0.05\n",
                session_count, turn_count, steps, session_slots);

    std::vector<SessionModel> session_models;
    for (const std::string &model_name : session_names) {
        SessionModel model;
        model.name = model_name;
        model.workload = workloads::buildWorkload(
            workloads::specByName(model_name), steps, session_count);
        model.evaluator = std::make_unique<workloads::WorkloadEvaluator>(
            *model.workload);
        model.sessions = model.workload->testInputs;
        // The uninterrupted baseline: exact forward over each FULL
        // session. Both arms are scored against it, so the cold
        // arm's extra loss is exactly the cost of restarting the
        // recurrent state at every turn boundary.
        const auto exact_outputs =
            model.workload->network->forwardBatchBaseline(model.sessions);
        for (const auto &outputs : exact_outputs)
            model.exactDecodes.push_back(
                model.evaluator->decodeSequence(outputs));
        // Contiguous turns; the last takes the remainder.
        for (const nn::Sequence &session : model.sessions) {
            nlfm_assert(session.size() >= turn_count,
                        "session shorter than the turn count");
            const std::size_t base_len = session.size() / turn_count;
            std::vector<nn::Sequence> turns;
            std::size_t begin = 0;
            for (std::size_t t = 0; t < turn_count; ++t) {
                const std::size_t len = t + 1 == turn_count
                                            ? session.size() - begin
                                            : base_len;
                turns.emplace_back(
                    session.begin() + static_cast<long>(begin),
                    session.begin() + static_cast<long>(begin + len));
                begin += len;
            }
            model.turns.push_back(std::move(turns));
        }
        session_models.push_back(std::move(model));
    }

    serve::FleetOptions session_options;
    session_options.slots = session_slots;
    session_options.queueCapacity =
        std::max<std::size_t>(16, session_count);
    // Capacity sized to the working set: the study measures the
    // warm-start mechanism, not LRU pressure (that contract is
    // pinned by tests/session_test.cc, EvictedSessionFallsBackCold).
    session_options.sessionCapacity = session_count;

    const SessionArm cold =
        runSessionArm(session_models, session_options, /*warm=*/false);
    const SessionArm warm =
        runSessionArm(session_models, session_options, /*warm=*/true);

    TablePrinter session_table("cold vs warm-start sessions");
    session_table.setHeader({"model", "arm", "reuse", "delivered loss %",
                             "warm resumed", "p95 ms"});
    const std::size_t expected_resumes = session_count * (turn_count - 1);
    bool resumes_complete = true;
    bool reuse_up = true;
    for (std::size_t m = 0; m < session_models.size(); ++m) {
        const serve::StatsSnapshot &c = cold.stats.perModel[m];
        const serve::StatsSnapshot &w = warm.stats.perModel[m];
        session_table.addRow({session_models[m].name, "cold",
                              formatPercent(c.meanReuse),
                              formatDouble(cold.deliveredLossPct[m], 2),
                              std::to_string(c.warmResumed),
                              formatDouble(c.p95LatencyMs, 1)});
        session_table.addRow({session_models[m].name, "warm",
                              formatPercent(w.meanReuse),
                              formatDouble(warm.deliveredLossPct[m], 2),
                              std::to_string(w.warmResumed) + "/" +
                                  std::to_string(expected_resumes),
                              formatDouble(w.p95LatencyMs, 1)});
        if (w.warmResumed != expected_resumes || c.warmResumed != 0)
            resumes_complete = false;
        if (w.meanReuse < c.meanReuse)
            reuse_up = false;
        std::printf("session study %s: reuse %s -> %s (%+.1f pts), "
                    "delivered loss %.2f%% -> %.2f%% (%+.2f pts)\n",
                    session_models[m].name.c_str(),
                    bench::pct(c.meanReuse).c_str(),
                    bench::pct(w.meanReuse).c_str(),
                    100.0 * (w.meanReuse - c.meanReuse),
                    cold.deliveredLossPct[m], warm.deliveredLossPct[m],
                    warm.deliveredLossPct[m] - cold.deliveredLossPct[m]);
    }
    // Both models pooled. Delivered loss has no pooled value: each
    // model scores its own metric (WER, flip rate).
    const serve::StatsSnapshot &c = cold.stats.aggregate;
    const serve::StatsSnapshot &w = warm.stats.aggregate;
    session_table.addRow({"(all)", "cold", formatPercent(c.meanReuse), "-",
                          std::to_string(c.warmResumed),
                          formatDouble(c.p95LatencyMs, 1)});
    session_table.addRow(
        {"(all)", "warm", formatPercent(w.meanReuse), "-",
         std::to_string(w.warmResumed) + "/" +
             std::to_string(expected_resumes * session_models.size()),
         formatDouble(w.p95LatencyMs, 1)});
    session_table.print("session_turns");
    std::printf("session acceptance: warm resumes %s, reuse %s, "
                "evictions %llu (expected 0)\n",
                resumes_complete ? "complete" : "INCOMPLETE",
                reuse_up ? "up" : "NOT up",
                static_cast<unsigned long long>(warm.evictions));
    const bool ok =
        cold.accounted && warm.accounted && resumes_complete && reuse_up;
    std::printf("accounting %s\n",
                cold.accounted && warm.accounted ? "ok" : "LOST REQUESTS");
    return ok ? 0 : 1;
}
