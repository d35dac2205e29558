/// @file
/// Long-lived RNN inference server with continuous batching.
///
/// A Server keeps one model resident — the full-precision network, its
/// binarized mirror, and a slot pool of per-sequence memo/recurrent
/// state — and serves a stream of requests by admitting each one into a
/// free slot of the panel *while its neighbors are mid-sequence*. Every
/// driver tick advances all active slots one timestep through the whole
/// stack; a slot whose sequence completes is released and refilled from
/// the request queue on the next tick. That is continuous batching: the
/// panel never drains to admit new work, so weight-stream amortization
/// (the reason the batch path exists) holds under ragged, open-loop
/// arrivals instead of only for closed batches.
///
/// Quality/latency knobs are per request: each admitted sequence carries
/// its own reuse threshold theta (BatchMemoEngine::setSlotTheta) and an
/// optional deadline that feeds the goodput accounting.
///
/// Determinism (details in docs/SERVING.md): each request's *output* is
/// bitwise identical to RnnNetwork::forward on the same input at the
/// same theta, regardless of what else shared the panel, which slot it
/// landed in, worker count, or chunk size. *Aggregate* numbers
/// (latencies, which tick admitted what) depend on wall-clock timing and
/// are not reproducible run to run.
///
/// Implementation: a Server is a one-model FleetServer
/// (serve/fleet_server.hh). It owns one fleet whose registry holds one
/// model named "default" (the label its telemetry and errors carry),
/// and every member forwards to that fleet with model id 0. Error
/// texts and metrics are therefore the fleet's (docs/SERVING.md,
/// "Server as a one-model fleet").
///
/// Threading model: clients call enqueue()/collect() from any thread;
/// the fleet's driver thread owns the scheduler, stepper, and engine;
/// panel work inside a tick is optionally spread over a private
/// ThreadPool (ServerOptions::workers). The pool is private because
/// ThreadPool::run is not reentrant — sharing one pool between the
/// driver and outside callers would interleave two jobs on one pool
/// state.

#ifndef NLFM_SERVE_SERVER_HH
#define NLFM_SERVE_SERVER_HH

#include "serve/fleet_server.hh"

namespace nlfm::serve
{

/// Server configuration.
struct ServerOptions
{
    /// Slot-pool width: sequences evaluated concurrently per tick. The
    /// panel amortizes each weight-row read over the live slots, so
    /// larger pools raise throughput until the memo tables outgrow
    /// cache; see docs/SERVING.md for tuning.
    std::size_t slots = 8;

    /// Request-queue capacity; enqueue() blocks (backpressure) when the
    /// queue is full.
    std::size_t queueCapacity = 64;

    /// Memoization configuration; memo.theta is the default per-request
    /// theta. recordTrace must be off: a served slot's trace is dropped
    /// when the slot is recycled.
    memo::MemoOptions memo{};

    /// false serves exact (DirectBatchEvaluator) instead of memoized —
    /// the exact baseline a memoized server is compared against.
    bool memoized = true;

    /// Stepping threads per tick, including the driver thread; 1 steps
    /// every chunk on the driver. Values > 1 spin up a private
    /// ThreadPool and cut the slots into chunks of min(64,
    /// ceil(slots / workers)) (FleetOptions::workers).
    std::size_t workers = 1;

    /// Admission-time load shedding: when a request's deadline has
    /// already expired by the time a slot frees up for it, fail its
    /// future with ShedError instead of burning the slot on
    /// guaranteed-zero-goodput work. Off by default (the PR 3 contract:
    /// deadlines only feed accounting). Sheds are counted in
    /// ServingStats.
    bool shedExpired = false;

    /// Queue service order: FIFO (default) or earliest-deadline-first
    /// (deadline-free requests stay FIFO among themselves, behind any
    /// deadlined request). See docs/SERVING.md, "Admission policies".
    QueuePolicy queuePolicy = QueuePolicy::Fifo;

    /// Predictive shedding: at enqueue and again at admission, shed
    /// (ShedError, counted as StatsSnapshot::shedPredicted) requests
    /// whose optimistic completion estimate already misses their
    /// deadline — elapsed queueing + queue-ahead drain at the full
    /// pool rate + own service at the calibrated per-step cost (the
    /// serve::Admission header derives the formula). Requires
    /// calibratedStepCostMs > 0.
    bool shedPredicted = false;

    /// Calibrated per-step service cost in milliseconds (per sequence
    /// step of one request, measured under saturation) — the scale of
    /// the predictive-shedding estimate. bench_admission_sweep derives it
    /// from its closed-batch calibration (cal seconds * 1000 / slots /
    /// steps); 0 = uncalibrated.
    double calibratedStepCostMs = 0.0;

    /// Theta autopilot (serve/theta_controller.hh): closed-loop theta
    /// floor under SLO pressure, bounded by an offline accuracy curve.
    /// Off by default — and off means bit-identical serving to a build
    /// without the controller. Requires memoized (a floor on an exact
    /// server has nothing to act on).
    ThetaAutopilotOptions autopilot{};

    /// Max warm-start sessions retained (serve/session_store.hh); 0
    /// disables the store. Warm start itself is per-request opt-in:
    /// only requests carrying a non-empty Request::sessionId touch the
    /// store, so plain traffic is bit-identical either way.
    std::size_t sessionCapacity = 64;

    /// Serving telemetry (serve/telemetry.hh): metrics registry and/or
    /// driver-tick tracer. Both off — the default — constructs no
    /// telemetry state at all; serving is bit-identical to a
    /// telemetry-free build.
    TelemetryOptions telemetry{};
};

/// Continuous-batching inference server: a one-model FleetServer.
/// Destroying it stops and joins the driver (drains already-queued
/// requests).
class Server
{
  public:
    /// @param network unidirectional stack (asserted by NetworkStepper);
    ///                must outlive the server
    /// @param bnn     binarized mirror; required when options.memoized
    ///                with the BNN predictor, unused otherwise
    Server(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
           const ServerOptions &options);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    const ServerOptions &options() const { return options_; }

    /// Submit one request. Blocks while the queue is full. The returned
    /// future resolves when the request's last step completes; after
    /// stop() it carries a std::runtime_error instead.
    std::future<Response> enqueue(Request request)
    {
        return fleet_.enqueue(0, std::move(request));
    }

    /// Block on one future and return its Response (convenience; any
    /// future-composition works too).
    static Response collect(std::future<Response> &future)
    {
        return future.get();
    }
    static Response collect(std::future<Response> &&future)
    {
        return future.get();
    }

    /// Block until every request enqueued so far has completed.
    void drain() { fleet_.drain(); }

    /// Close the queue, drain, and stop the driver thread. Idempotent;
    /// enqueue after stop() returns a failed future.
    void stop() { fleet_.stop(); }

    /// Aggregate accounting of completed requests since construction
    /// (or the last resetStats). Bounded memory: see ServingStats.
    StatsSnapshot stats() const { return fleet_.stats(); }

    /// Open a fresh measurement window (windowed load studies).
    void resetStats() { fleet_.resetStats(); }

    /// Requests currently queued (not yet admitted).
    std::size_t queueDepth() const { return fleet_.queueDepth(0); }

    /// The autopilot's current effective theta floor (0 when the
    /// autopilot is off or idle). Any thread.
    double thetaFloor() const { return fleet_.thetaFloor(0); }

    /// Highest floor the autopilot reached since construction (0 when
    /// off). Any thread.
    double maxThetaFloorSeen() const { return fleet_.maxThetaFloorSeen(0); }

    /// Warm-start sessions currently stored (0 when sessions are
    /// disabled). Any thread.
    std::size_t sessionCount() const { return fleet_.sessionCount(0); }

    /// Sessions evicted by capacity pressure (0 when disabled). Any
    /// thread.
    std::uint64_t sessionEvictions() const
    {
        return fleet_.sessionEvictions();
    }

    /// Telemetry bundle; null when ServerOptions::telemetry is all off.
    /// Registry reads (exposition/jsonSnapshot) are any-thread; trace
    /// export is post-stop (DriverTracer contract).
    Telemetry *telemetry() { return fleet_.telemetry(); }
    const Telemetry *telemetry() const { return fleet_.telemetry(); }

    /// Oldest-first autopilot decision audit (empty when the autopilot
    /// is off or ThetaAutopilotOptions::auditCapacity == 0). Any
    /// thread.
    std::vector<ThetaDecision> thetaAudit() const
    {
        return fleet_.thetaAudit(0);
    }

  private:
    ServerOptions options_;
    FleetServer fleet_;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_SERVER_HH
