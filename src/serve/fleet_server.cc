#include "serve/fleet_server.hh"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hh"

namespace nlfm::serve
{

namespace
{

std::vector<double>
registryWeights(const ModelRegistry &registry)
{
    std::vector<double> weights;
    weights.reserve(registry.size());
    for (std::size_t m = 0; m < registry.size(); ++m)
        weights.push_back(registry.spec(m).weight);
    return weights;
}

AdmissionConfig
fleetAdmissionConfig(const FleetOptions &options)
{
    AdmissionConfig config;
    config.queueCapacity = options.queueCapacity;
    config.slots = options.slots;
    config.queuePolicy = options.queuePolicy;
    config.shedExpired = options.shedExpired;
    config.shedPredicted = options.shedPredicted;
    config.sessionCapacity = options.sessionCapacity;
    return config;
}

std::vector<AdmissionModel>
fleetAdmissionModels(const ModelRegistry &registry)
{
    std::vector<AdmissionModel> models;
    models.reserve(registry.size());
    for (std::size_t m = 0; m < registry.size(); ++m) {
        const ModelSpec &spec = registry.spec(m);
        AdmissionModel model;
        model.inputLabel = "model \"" + spec.name + "\" input";
        model.inputWidth = spec.network->config().inputSize;
        model.stepCostMs = spec.calibratedStepCostMs;
        model.defaultTheta = spec.memoized ? spec.memo.theta : 0.0;
        models.push_back(std::move(model));
    }
    return models;
}

} // namespace

FleetServer::FleetServer(const ModelRegistry &registry,
                         const FleetOptions &options)
    : options_(options),
      scheduler_(options.slots, registryWeights(registry)),
      modelStats_(registry.size()),
      admission_(fleetAdmissionConfig(options),
                 fleetAdmissionModels(registry))
{
    nlfm_assert(!registry.empty(), "fleet with zero models");
    {
        std::vector<ServingStats *> sinks;
        sinks.reserve(modelStats_.size());
        for (auto &stats : modelStats_)
            sinks.push_back(&stats);
        admission_.attachStats(stats_, std::move(sinks));
    }
    if (options_.shedPredicted || options_.costAwareAdmission)
        for (std::size_t m = 0; m < registry.size(); ++m)
            nlfm_assert(registry.spec(m).calibratedStepCostMs > 0.0,
                        "shedPredicted/costAwareAdmission need every "
                        "model calibrated (calibratedStepCostMs > 0); "
                        "model \"", registry.spec(m).name,
                        "\" is not");
    if (options_.costAwareAdmission)
        scheduler_.setCostCharging(true);
    models_.reserve(registry.size());
    for (std::size_t m = 0; m < registry.size(); ++m) {
        ModelRuntime rt;
        rt.spec = registry.spec(m);
        rt.stepper = std::make_unique<nn::NetworkStepper>(
            *rt.spec.network, options_.slots);
        if (rt.spec.memoized) {
            rt.engine = std::make_unique<memo::BatchMemoEngine>(
                *rt.spec.network, rt.spec.bnn, rt.spec.memo);
            // Size the slot-keyed table to the full shared pool once:
            // any slot may be handed to this model, and admission
            // recycles slots individually from here on.
            rt.engine->beginBatch(options_.slots);
            rt.evaluator = rt.engine.get();
        } else {
            rt.exact = std::make_unique<nn::DirectBatchEvaluator>();
            rt.exact->beginBatch(options_.slots);
            rt.evaluator = rt.exact.get();
        }
        if (rt.spec.autopilot.enabled) {
            nlfm_assert(rt.spec.memoized,
                        "theta autopilot on exact model \"",
                        rt.spec.name, "\" has no knob to turn");
            rt.controller = std::make_unique<ThetaController>(
                rt.spec.autopilot, rt.spec.memo.theta);
        }
        models_.push_back(std::move(rt));
    }
    if (options_.telemetry.enabled()) {
        std::vector<std::string> names;
        names.reserve(models_.size());
        for (const ModelRuntime &rt : models_)
            names.push_back(rt.spec.name);
        telemetry_ = std::make_unique<Telemetry>(options_.telemetry,
                                                 std::move(names));
        admission_.attachTelemetry(telemetry_.get());
        // One shared phase sink: the counters are cumulative ns across
        // all engines, which is exactly what the tick attribution
        // differences. Only pay the clock reads when the tracer can
        // show them.
        if (telemetry_->tracer() != nullptr)
            for (ModelRuntime &rt : models_)
                if (rt.engine)
                    rt.engine->setPhaseSink(&phaseTimes_);
    }
    if (options_.workers > 1)
        pool_ = std::make_unique<ThreadPool>(options_.workers);
    // Tick chunks: 64 slot indices, the closed batch's default chunk (a
    // cache line of memo-table slots), capped so every worker gets one;
    // smaller chunks share memo-table lines across workers, which costs
    // speed, never correctness.
    const std::size_t workers = std::max<std::size_t>(1, options_.workers);
    tickChunk_ = std::min<std::size_t>(
        64, (options_.slots + workers - 1) / workers);
    stats_.start();
    for (auto &stats : modelStats_)
        stats.start();
    driver_ = std::thread([this] { driverLoop(); });
}

FleetServer::~FleetServer()
{
    stop();
}

const ModelSpec &
FleetServer::spec(std::size_t model) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    return models_[model].spec;
}

std::future<Response>
FleetServer::enqueue(std::size_t model, Request request)
{
    // Routing errors fail the client's own future on the client's
    // thread; they never reach the driver.
    if (model >= models_.size())
        return admission_.reject(
            std::move(request),
            std::make_exception_ptr(std::invalid_argument(
                "serve::FleetServer: model id " + std::to_string(model) +
                " out of range (fleet has " +
                std::to_string(models_.size()) + " models)")));
    return admission_.submit(model, std::move(request));
}

std::future<Response>
FleetServer::enqueue(const std::string &model, Request request)
{
    for (std::size_t m = 0; m < models_.size(); ++m)
        if (models_[m].spec.name == model)
            return enqueue(m, std::move(request));
    // reject() draws an id like every submission, so an unknown-model
    // rejection is distinguishable from request 0's record.
    return admission_.reject(
        std::move(request),
        std::make_exception_ptr(std::invalid_argument(
            "serve::FleetServer: unknown model \"" + model + "\"")));
}

Response
FleetServer::collect(std::future<Response> &future)
{
    return future.get();
}

Response
FleetServer::collect(std::future<Response> &&future)
{
    return future.get();
}

void
FleetServer::drain()
{
    admission_.drain();
}

void
FleetServer::stop()
{
    if (stopping_.exchange(true))
        return;
    admission_.close();
    if (driver_.joinable())
        driver_.join();
}

FleetStatsSnapshot
FleetServer::fleetStats() const
{
    FleetStatsSnapshot snap;
    snap.aggregate = stats_.snapshot();
    snap.names.reserve(models_.size());
    snap.perModel.reserve(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m) {
        snap.names.push_back(models_[m].spec.name);
        snap.perModel.push_back(modelStats_[m].snapshot());
        for (const ThetaDecision &decision : thetaAudit(m))
            snap.thetaAudit.push_back({models_[m].spec.name, decision});
    }
    return snap;
}

std::vector<ThetaDecision>
FleetServer::thetaAudit(std::size_t model) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    return models_[model].controller
               ? models_[model].controller->audit()
               : std::vector<ThetaDecision>{};
}

void
FleetServer::resetStats()
{
    stats_.reset();
    for (auto &stats : modelStats_)
        stats.reset();
}

std::size_t
FleetServer::queueDepth(std::size_t model) const
{
    return admission_.queueDepth(model);
}

double
FleetServer::maxThetaFloorSeen(std::size_t model) const
{
    nlfm_assert(model < models_.size(), "model id out of range");
    return models_[model].controller
               ? models_[model].controller->maxFloorSeen()
               : 0.0;
}

void
FleetServer::driverLoop()
{
    while (true) {
        controllerTick();
        admitPending();
        if (scheduler_.activeCount() == 0) {
            if (admission_.drainedAndClosed())
                break;
            // Idle: no queue to block on exclusively, so park on the
            // admission layer's wake channel. Its signal counter is
            // the predicate a bare notify lacked: an enqueue landing
            // between the checks above and this wait returns
            // immediately instead of timing out.
            admission_.waitWork(std::chrono::milliseconds(2));
            continue;
        }
        tick();
    }
}

void
FleetServer::controllerTick()
{
    // Occupancy is pool-wide (slots are shared, so the capacity any
    // controller can win back is fleet capacity); queue depth and the
    // event counters are the model's own.
    double occupancy = -1.0;
    for (std::size_t m = 0; m < models_.size(); ++m) {
        ThetaController *controller = models_[m].controller.get();
        if (controller == nullptr)
            continue;
        if (occupancy < 0.0)
            occupancy =
                static_cast<double>(scheduler_.activeCount()) /
                static_cast<double>(options_.slots);
        ThetaSignals signals;
        signals.occupancy = occupancy;
        signals.queueDepth = admission_.queueDepth(m);
        const StatsCounters counters = modelStats_[m].counters();
        signals.shed = counters.shed;
        signals.deadlineMissed = counters.deadlineMissed();
        if (controller->tick(signals))
            admission_.setThetaFloor(m, controller->floor());
    }
}

void
FleetServer::admitPending()
{
    DriverTracer *const tracer =
        telemetry_ ? telemetry_->tracer() : nullptr;
    // Snapshot queue depths once (one lock per queue); each admission
    // below decrements its model's count locally. Arrivals racing this
    // pass are picked up by the next driver-loop iteration.
    pendingDepths_.resize(models_.size());
    for (std::size_t m = 0; m < models_.size(); ++m)
        pendingDepths_[m] = admission_.queueDepth(m);
    while (scheduler_.hasFree()) {
        const int pick = scheduler_.pickModel(pendingDepths_);
        if (pick < 0)
            break;
        const std::size_t m = static_cast<std::size_t>(pick);
        ModelRuntime &rt = models_[m];
        QueuedRequest item;
        const Admission::Pop outcome = admission_.pop(m, item);
        --pendingDepths_[m];
        // Empty: only the driver pops, so this is defensive. Shed: the
        // request spent its flat admission credit (shedding cannot be
        // used to jump the fair queue); under cost charging it is free
        // instead — it consumed no machine time.
        if (outcome != Admission::Pop::Admit)
            continue;
        const double charged_ms =
            scheduler_.costCharging()
                ? static_cast<double>(item.request.input.size()) *
                      rt.spec.calibratedStepCostMs
                : 0.0;
        if (scheduler_.costCharging())
            scheduler_.charge(m, charged_ms);
        if (telemetry_ != nullptr)
            telemetry_->onFleetCharge(m, charged_ms);
        // Frame widths were validated at submit(). Theta is the merge
        // of the request's own value with this model's autopilot floor.
        const double theta = admission_.mergedTheta(m, item.request);
        const std::int64_t t_admit = tracer ? tracer->nowNs() : 0;
        const std::size_t slot = scheduler_.admit(m, std::move(item));
        rt.stepper->resetSlot(slot);
        if (rt.engine)
            rt.engine->admitSlot(slot, theta);
        // Session warm start: restore the session's snapshot over the
        // freshly reset slot. The store is keyed (model, id), so a
        // snapshot taken under one model can never land in another's
        // engine even when the same bare id is reused across models.
        SlotState &admitted = scheduler_.slot(slot);
        if (admission_.sessionsEnabled() &&
            !admitted.request.sessionId.empty()) {
            const std::int64_t t_restore =
                tracer ? tracer->nowNs() : 0;
            if (auto snap =
                    admission_.takeSession(m, admitted.request.sessionId)) {
                if (rt.engine && !snap->memo.empty())
                    rt.engine->restoreSlot(slot, snap->memo);
                rt.stepper->restoreSlot(slot, snap->cell);
                admitted.warmStart = true;
                if (tracer != nullptr) {
                    TraceSpan span;
                    span.phase = TracePhase::SessionRestore;
                    span.startNs = t_restore;
                    span.durNs = tracer->nowNs() - t_restore;
                    span.slot = static_cast<std::uint32_t>(slot);
                    span.model = static_cast<std::uint32_t>(m);
                    span.requestId = admitted.id;
                    span.warmResumed = true;
                    tracer->record(span);
                }
            }
        }
        if (tracer != nullptr) {
            TraceSpan span;
            span.phase = TracePhase::Admit;
            span.startNs = t_admit;
            span.durNs = tracer->nowNs() - t_admit;
            span.slot = static_cast<std::uint32_t>(slot);
            span.model = static_cast<std::uint32_t>(m);
            span.requestId = admitted.id;
            span.theta = static_cast<float>(
                rt.engine ? rt.engine->slotTheta(slot)
                          : servedTheta(admitted.request));
            span.warmResumed = admitted.warmStart;
            tracer->record(span);
        }
        // Zero-length sequences complete in place, never hold a row.
        if (admitted.request.input.empty())
            completeSlot(slot);
    }
}

void
FleetServer::tick()
{
    DriverTracer *const tracer =
        telemetry_ ? telemetry_->tracer() : nullptr;
    // Stage each model's active input frames into its own panel.
    const std::int64_t t_stage = tracer ? tracer->nowNs() : 0;
    for (std::size_t m = 0; m < models_.size(); ++m) {
        const auto rows = scheduler_.activeRows(m);
        if (rows.empty())
            continue;
        tensor::Matrix &input = models_[m].stepper->inputPanel();
        for (const std::size_t slot : rows) {
            const SlotState &state = scheduler_.slot(slot);
            const auto &frame = state.request.input[state.step];
            std::copy(frame.begin(), frame.end(),
                      input.row(slot).begin());
        }
    }
    const std::int64_t t_step = tracer ? tracer->nowNs() : 0;
    if (tracer != nullptr) {
        TraceSpan span;
        span.phase = TracePhase::Stage;
        span.startNs = t_stage;
        span.durNs = t_step - t_stage;
        tracer->record(span);
    }

    // Flatten every model's slot-range chunks into one task list and
    // step them on the single shared pool. Chunk boundaries are
    // slot / tickChunk_ groups per model, as in forwardBatch; every slot
    // evolves as it would in a panel of its own, so outputs depend
    // neither on the chunking nor on which other models share the
    // fleet.
    const std::size_t chunk_size = tickChunk_;
    auto &tasks = tickTasks_;
    tasks.clear();
    for (std::size_t m = 0; m < models_.size(); ++m) {
        const auto rows = scheduler_.activeRows(m);
        if (rows.empty())
            continue;
        std::size_t begin = 0;
        for (std::size_t i = 1; i <= rows.size(); ++i) {
            if (i == rows.size() ||
                rows[i] / chunk_size != rows[begin] / chunk_size) {
                tasks.push_back({m, begin, i});
                begin = i;
            }
        }
    }

    const auto run_task = [&](std::size_t c) {
        const TickTask &task = tasks[c];
        ModelRuntime &rt = models_[task.model];
        rt.stepper->step(scheduler_.activeRows(task.model)
                             .subspan(task.begin, task.end - task.begin),
                         *rt.evaluator);
    };
    if (pool_ != nullptr && tasks.size() > 1) {
        pool_->run(tasks.size(), [&](std::size_t lo, std::size_t hi) {
            for (std::size_t c = lo; c < hi; ++c)
                run_task(c);
        });
    } else {
        for (std::size_t c = 0; c < tasks.size(); ++c)
            run_task(c);
    }
    if (tracer != nullptr) {
        TraceSpan span;
        span.phase = TracePhase::Step;
        span.startNs = t_step;
        span.durNs = tracer->nowNs() - t_step;
        tracer->record(span);
        // Attribute the step to probe/decide/commit from the shared
        // phase counters, laid back to back inside the step window.
        // With pool workers the phase times are summed CPU ns across
        // workers (and across every model's engine), so they can
        // exceed the step's wall duration — attribution, not timeline.
        std::int64_t cursor = t_step;
        const auto sub = [&](TracePhase phase, std::uint64_t total,
                             std::uint64_t &last) {
            const std::int64_t dur =
                static_cast<std::int64_t>(total - last);
            last = total;
            if (dur <= 0)
                return;
            TraceSpan attribution;
            attribution.phase = phase;
            attribution.startNs = cursor;
            attribution.durNs = dur;
            tracer->record(attribution);
            cursor += dur;
        };
        sub(TracePhase::Probe,
            phaseTimes_.probeNs.load(std::memory_order_relaxed),
            lastProbeNs_);
        sub(TracePhase::Decide,
            phaseTimes_.decideNs.load(std::memory_order_relaxed),
            lastDecideNs_);
        sub(TracePhase::Commit,
            phaseTimes_.commitNs.load(std::memory_order_relaxed),
            lastCommitNs_);
    }

    // Collect outputs; completions release slots, which invalidates the
    // active-row spans, so gather finished slots first.
    auto &done = tickDone_;
    done.clear();
    for (std::size_t m = 0; m < models_.size(); ++m) {
        for (const std::size_t slot : scheduler_.activeRows(m)) {
            SlotState &state = scheduler_.slot(slot);
            const auto out = models_[m].stepper->output(slot);
            state.output.emplace_back(out.begin(), out.end());
            if (++state.step == state.request.input.size())
                done.push_back(slot);
        }
    }
    for (const std::size_t slot : done)
        completeSlot(slot);
}

void
FleetServer::completeSlot(std::size_t slot)
{
    DriverTracer *const tracer =
        telemetry_ ? telemetry_->tracer() : nullptr;
    const std::int64_t t_complete = tracer ? tracer->nowNs() : 0;
    SlotState &state = scheduler_.slot(slot);
    const std::size_t model = state.model;
    ModelRuntime &rt = models_[model];
    const double theta = rt.engine ? rt.engine->slotTheta(slot)
                                   : servedTheta(state.request);
    const double reuse =
        rt.engine ? rt.engine->slotReuseFraction(slot) : 0.0;
    const std::uint64_t request_id = state.id;
    const bool warm = state.warmStart;
    // Snapshot the finished slot under (model, session id) for the
    // session's next turn. Exact models still warm-start recurrent
    // state; their memo half stays empty.
    if (admission_.sessionsEnabled() && !state.request.sessionId.empty()) {
        SessionState snap;
        if (rt.engine)
            rt.engine->exportSlot(slot, snap.memo);
        rt.stepper->exportSlot(slot, snap.cell);
        admission_.storeSession(model, state.request.sessionId,
                                std::move(snap));
    }
    admission_.complete(model, slot, state, theta, reuse);
    // Restore this model's default theta while the slot sits free, so a
    // stale override does not pin the engine's scalar decision path
    // (admission re-resets it anyway).
    if (rt.engine)
        rt.engine->setSlotTheta(slot, rt.engine->theta());
    scheduler_.release(slot);
    if (tracer != nullptr) {
        TraceSpan span;
        span.phase = TracePhase::Complete;
        span.startNs = t_complete;
        span.durNs = tracer->nowNs() - t_complete;
        span.slot = static_cast<std::uint32_t>(slot);
        span.model = static_cast<std::uint32_t>(model);
        span.requestId = request_id;
        span.theta = static_cast<float>(theta);
        span.warmResumed = warm;
        tracer->record(span);
    }
}

} // namespace nlfm::serve
