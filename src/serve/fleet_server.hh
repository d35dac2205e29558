/// @file
/// Multi-model fleet host: several resident models, one slot pool.
///
/// A FleetServer hosts N resident models (or theta-tuned variants of
/// one network) sharing one slot budget and one thread budget; the
/// single-model serve::Server is a FleetServer with one model, so this
/// driver serves every request in the repo. Each registered model
/// keeps its own NetworkStepper panels and slot-keyed memo engine —
/// numerical state never crosses models — but the SLOTS are a single
/// shared pool: a slot freed by one model's completed sequence is
/// reclaimed into the pool and may be handed to any model on the next
/// admission, cold.
///
/// Requests are routed by model id (or name) into per-model bounded
/// queues; the FleetScheduler admits across those queues with weighted
/// deficit-round-robin fairness, so a flood at one model cannot starve
/// its neighbors (docs/SERVING.md, "Multi-model fleets"). One driver
/// thread ticks EVERY model's active panel per step: the per-model
/// panel chunks of a tick are flattened into one task list and spread
/// over the single optional ThreadPool, so the thread budget is shared
/// exactly like the slot budget.
///
/// Determinism: each request's output is bitwise identical to a
/// one-sequence RnnNetwork::forward through a MemoEngine at the same
/// theta — per-model state is slot-keyed and per-row results never
/// depend on panel composition, so which models share the fleet, which
/// slot a request lands in, and the worker count all cancel out. Pinned
/// by tests/fleet_test.cc against that one-row reference, which
/// tests/reference_test.cc pins against the scalar reference.
///
/// Accounting is per model and aggregate: ServingStats per registered
/// model plus a fleet-wide accumulator, all exposed in one
/// FleetStatsSnapshot (per-model latency percentiles, throughput,
/// goodput, reuse, shed counts).

#ifndef NLFM_SERVE_FLEET_SERVER_HH
#define NLFM_SERVE_FLEET_SERVER_HH

#include <atomic>
#include <memory>
#include <thread>

#include "common/parallel.hh"
#include "memo/memo_batch.hh"
#include "nn/network_stepper.hh"
#include "serve/admission.hh"
#include "serve/fleet_scheduler.hh"
#include "serve/model_registry.hh"
#include "serve/stats.hh"

namespace nlfm::serve
{

/// Fleet-wide configuration (per-model policy lives in ModelSpec).
struct FleetOptions
{
    /// Shared slot-pool width: sequences evaluated concurrently per
    /// tick across ALL models. Slots are not partitioned statically —
    /// an idle model consumes none.
    std::size_t slots = 8;

    /// Per-model request-queue capacity; enqueue() blocks (per-model
    /// backpressure) when that model's queue is full.
    std::size_t queueCapacity = 64;

    /// Stepping threads per tick, including the driver; the single
    /// private pool is shared by every model's panel chunks.
    std::size_t workers = 1;

    /// Upper bound on slots per worker chunk within a tick, per model
    /// (same contract and default as ServerOptions::chunkSize).
    std::size_t chunkSize = 64;

    /// Admission-time load shedding: reject (fail with ShedError)
    /// requests whose deadline has already expired when they would be
    /// admitted, instead of burning a slot on guaranteed-zero-goodput
    /// work. Sheds are counted per model and aggregate.
    bool shedExpired = false;

    /// Per-model queue service order: FIFO (default) or earliest-
    /// deadline-first (deadline-free requests stay FIFO among
    /// themselves). EDF orders WITHIN each model's queue; fairness
    /// across models is still the DRR scheduler's job.
    QueuePolicy queuePolicy = QueuePolicy::Fifo;

    /// Predictive shedding (see ServerOptions::shedPredicted and the
    /// serve::Admission header): requires every registered model's
    /// ModelSpec::calibratedStepCostMs > 0.
    bool shedPredicted = false;

    /// Charge DRR admissions by calibrated service cost (popped
    /// request's steps x the model's calibratedStepCostMs) instead of
    /// a flat 1 credit, so weights buy machine time instead of
    /// admission count (FleetScheduler::setCostCharging). Requires
    /// every model's calibratedStepCostMs > 0. Off by default: the
    /// flat-credit path is bit-identical to PR 4.
    bool costAwareAdmission = false;

    /// Max warm-start sessions retained PER MODEL
    /// (serve/session_store.hh); 0 disables the store. Sessions are
    /// keyed (model, id), so fleet slots never leak state across
    /// models; warm start is per-request opt-in via
    /// Request::sessionId, and untagged traffic is bit-identical
    /// either way.
    std::size_t sessionCapacity = 64;

    /// Serving telemetry (serve/telemetry.hh): metrics registry and/or
    /// driver-tick tracer, fleet-wide (per-model series carry each
    /// model's registry name). Both off — the default — constructs no
    /// telemetry state at all.
    TelemetryOptions telemetry{};
};

/// Continuous-batching server for a fleet of resident models.
class FleetServer
{
  public:
    /// @param registry model catalog; the registry is copied, but the
    ///                 networks/mirrors it references must outlive the
    ///                 server. Must be non-empty.
    FleetServer(const ModelRegistry &registry,
                const FleetOptions &options);

    /// Stops and joins the driver (drains already-queued requests).
    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    const FleetOptions &options() const { return options_; }
    std::size_t modelCount() const { return models_.size(); }
    const ModelSpec &spec(std::size_t model) const;

    /// Submit one request to @p model. Blocks while that model's queue
    /// is full. The future resolves on completion; after stop() it
    /// carries std::runtime_error, and under shedExpired it may carry
    /// ShedError.
    std::future<Response> enqueue(std::size_t model, Request request);

    /// Name-routed convenience overload (registry lookup); an unknown
    /// name fails the future with std::invalid_argument.
    std::future<Response> enqueue(const std::string &model,
                                  Request request);

    /// Block on one future and return its Response.
    static Response collect(std::future<Response> &future);
    static Response collect(std::future<Response> &&future);

    /// Block until every request enqueued so far has completed (or was
    /// shed/rejected).
    void drain();

    /// Close every queue, drain, and stop the driver. Idempotent.
    void stop();

    /// Aggregate accounting across all models since construction (or
    /// the last resetStats).
    StatsSnapshot stats() const { return stats_.snapshot(); }

    /// One model's accounting.
    StatsSnapshot modelStats(std::size_t model) const;

    /// Per-model breakdown plus the aggregate, in one snapshot.
    FleetStatsSnapshot fleetStats() const;

    /// Open a fresh measurement window on every accumulator.
    void resetStats();

    /// Requests currently queued (not yet admitted) at one model.
    std::size_t queueDepth(std::size_t model) const;

    /// One model's current autopilot theta floor (0 when its autopilot
    /// is off or idle). Any thread.
    double thetaFloor(std::size_t model) const
    {
        return admission_.thetaFloor(model);
    }

    /// Highest floor @p model's autopilot reached since construction
    /// (0 when off). Any thread.
    double maxThetaFloorSeen(std::size_t model) const;

    /// Warm-start sessions currently stored for @p model (0 when
    /// sessions are disabled). Any thread.
    std::size_t sessionCount(std::size_t model) const
    {
        return admission_.sessionCount(model);
    }

    /// Sessions evicted by capacity pressure, fleet-wide (0 when
    /// disabled). Any thread.
    std::uint64_t sessionEvictions() const
    {
        return admission_.sessionEvictions();
    }

    /// Telemetry bundle; null when FleetOptions::telemetry is all off.
    /// Registry reads are any-thread; trace export is post-stop.
    Telemetry *telemetry() { return telemetry_.get(); }
    const Telemetry *telemetry() const { return telemetry_.get(); }

    /// Oldest-first autopilot decision audit of one model (empty when
    /// its autopilot is off or auditCapacity == 0). Any thread.
    std::vector<ThetaDecision> thetaAudit(std::size_t model) const;

  private:
    /// Per-model runtime: the stepper/engine pair sized to the shared
    /// pool, plus its spec (the model's queue lives in admission_).
    struct ModelRuntime
    {
        ModelSpec spec;
        std::unique_ptr<nn::NetworkStepper> stepper;
        std::unique_ptr<memo::BatchMemoEngine> engine; ///< memoized
        std::unique_ptr<nn::DirectBatchEvaluator> exact; ///< or exact
        nn::BatchGateEvaluator *evaluator = nullptr;
        /// Theta autopilot; null unless spec.autopilot.enabled.
        std::unique_ptr<ThetaController> controller;
    };

    /// One stepping task of a tick: a chunk of one model's active rows.
    struct TickTask
    {
        std::size_t model = 0;
        std::size_t begin = 0; ///< index into activeRows(model)
        std::size_t end = 0;
    };

    void driverLoop();
    void controllerTick();
    void admitPending();
    void tick();
    void completeSlot(std::size_t slot);

    FleetOptions options_;
    std::vector<ModelRuntime> models_;
    FleetScheduler scheduler_;

    std::unique_ptr<ThreadPool> pool_; ///< null when workers == 1
    std::size_t chunkSize_ = 64;       ///< effective per-tick chunk size

    ServingStats stats_;                     ///< aggregate
    std::vector<ServingStats> modelStats_;   ///< per model

    /// Shared admission front end (serve/admission.hh): per-model
    /// queues, validation, shedding policies, completion delivery,
    /// drain bookkeeping, and the lost-wakeup-safe idle-driver wake
    /// channel.
    Admission admission_;

    /// Telemetry bundle; null unless options.telemetry.enabled().
    std::unique_ptr<Telemetry> telemetry_;
    /// Gate phase-time sink shared by every model's engine when
    /// tracing is on; tick() differences the cumulative counters to
    /// attribute each fleet step to probe/decide/commit.
    memo::GatePhaseTimes phaseTimes_;
    std::uint64_t lastProbeNs_ = 0;
    std::uint64_t lastDecideNs_ = 0;
    std::uint64_t lastCommitNs_ = 0;

    // Driver-tick scratch (tickTasks_ is read by pool workers).
    std::vector<TickTask> tickTasks_;
    std::vector<std::size_t> tickDone_;
    std::vector<std::size_t> pendingDepths_;

    std::atomic<bool> stopping_{false};
    std::thread driver_;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_FLEET_SERVER_HH
