/// @file
/// Serving telemetry: one metrics surface for the whole serving stack.
///
/// Every serving-tier component keeps its own private accounting —
/// ServingStats aggregates completions, Admission counts sheds by
/// reason, SessionStore counts evictions, FleetScheduler tracks per-
/// model credit — and before this layer the only way to see any of it
/// was an end-of-window StatsSnapshot. The MetricsRegistry gives them
/// one shared publication surface: named monotonic counters, gauges,
/// and log-bucketed histograms (common/histogram.hh LogHistogram),
/// rendered either as a Prometheus-style text exposition or as a JSON
/// snapshot. The Telemetry bundle owns the registry, the per-model
/// metric handles the hot hooks update, and (optionally) the
/// DriverTracer (serve/trace.hh).
///
/// Contract with the serving path (same discipline as every opt-in
/// policy since PR 5): telemetry is OFF by default, and a disabled
/// build constructs no Telemetry object at all — the hooks are
/// null-pointer checks, no counters exist, and serving outputs are
/// bit-identical to a telemetry-free build. Enabled, the counter hooks
/// fire at the single choke point where ServingStats is updated
/// (Admission::complete / Admission::shed), so the exposition's
/// completed/shed/deadline-met values agree exactly with
/// StatsCounters — pinned by tests/telemetry_test.cc.
///
/// Threading: counters and gauges are relaxed atomics (clients bump
/// queue-depth from their submit threads while the driver completes);
/// histograms take a short mutex per observation. The registry's
/// metric handles are stable for the registry's lifetime — hooks
/// resolve them once at construction, never per event.

#ifndef NLFM_SERVE_TELEMETRY_HH
#define NLFM_SERVE_TELEMETRY_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "serve/request.hh"
#include "serve/trace.hh"

namespace nlfm::serve
{

/// Telemetry configuration (ServerOptions/FleetOptions::telemetry).
/// Both switches off — the default — means the server constructs no
/// telemetry state at all.
struct TelemetryOptions
{
    /// Metrics registry: counters/gauges/histograms + exposition.
    bool metrics = false;

    /// Driver-tick tracer (serve/trace.hh): phase + request spans,
    /// Chrome trace-event export.
    bool trace = false;

    /// Tracer ring capacity in spans (allocated once at construction).
    std::size_t traceCapacity = 1 << 16;

    bool enabled() const { return metrics || trace; }
};

/// Named-metric registry with Prometheus-style text exposition.
///
/// Metric names follow Prometheus conventions and may carry inline
/// labels, e.g. `nlfm_serve_shed_total{model="imdb",reason="expired"}`;
/// series of one family (same name up to the label block) share one
/// `# TYPE` header in the exposition.
class MetricsRegistry
{
  public:
    /// Monotonic counter (relaxed atomic; any thread).
    class Counter
    {
      public:
        void inc(std::uint64_t n = 1)
        {
            value_.fetch_add(n, std::memory_order_relaxed);
        }
        std::uint64_t value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<std::uint64_t> value_{0};
    };

    /// Point-in-time value (relaxed atomic; any thread).
    class Gauge
    {
      public:
        void set(double v)
        {
            value_.store(v, std::memory_order_relaxed);
        }
        double value() const
        {
            return value_.load(std::memory_order_relaxed);
        }

      private:
        std::atomic<double> value_{0.0};
    };

    /// Log-bucketed distribution (mutex-guarded; any thread).
    class HistogramMetric
    {
      public:
        HistogramMetric(std::size_t bins, double lo, double hi)
            : histogram_(bins, lo, hi)
        {
        }

        void observe(double value)
        {
            std::lock_guard<std::mutex> lock(mutex_);
            histogram_.add(value);
            sum_ += value;
        }

        /// Consistent copy of the distribution (exposition/tests).
        LogHistogram snapshot() const
        {
            std::lock_guard<std::mutex> lock(mutex_);
            return histogram_;
        }

        double sum() const
        {
            std::lock_guard<std::mutex> lock(mutex_);
            return sum_;
        }

      private:
        mutable std::mutex mutex_;
        LogHistogram histogram_;
        double sum_ = 0.0;
    };

    /// Find-or-register. References are stable for the registry's
    /// lifetime; re-registering an existing name returns the existing
    /// metric (asserting the kind matches).
    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    HistogramMetric &histogram(const std::string &name,
                               const std::string &help,
                               std::size_t bins, double lo, double hi);

    /// Prometheus-style text exposition (families in registration
    /// order; histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum`/`_count`).
    std::string exposition() const;

    /// The same values as one JSON object: {"counters":{...},
    /// "gauges":{...},"histograms":{...}}.
    std::string jsonSnapshot() const;

  private:
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    struct Metric
    {
        Kind kind;
        std::string name;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<HistogramMetric> histogram;
    };

    Metric &findOrCreate(Kind kind, const std::string &name,
                         const std::string &help);

    mutable std::mutex mutex_;
    /// Registration order (the exposition's family order); pointers
    /// into the unique_ptrs stay valid as the vector grows.
    std::vector<Metric> metrics_;
};

/// The per-server telemetry bundle: registry + pre-resolved hot-path
/// handles + optional tracer. Constructed only when
/// TelemetryOptions::enabled(); every serving hook takes `Telemetry *`
/// and treats null as "telemetry off".
class Telemetry
{
  public:
    /// @param model_names one entry per model, in model-id order (the
    ///        `model` label of every per-model series); a single-model
    ///        server passes its one name.
    Telemetry(const TelemetryOptions &options,
              std::vector<std::string> model_names);

    const TelemetryOptions &options() const { return options_; }

    MetricsRegistry &registry() { return registry_; }
    const MetricsRegistry &registry() const { return registry_; }

    /// Null when TelemetryOptions::trace is off.
    DriverTracer *tracer() { return tracer_.get(); }
    const DriverTracer *tracer() const { return tracer_.get(); }

    /// Chrome trace-event JSON of the retained spans (empty string
    /// when tracing is off). Post-stop export, like DriverTracer.
    std::string traceJson() const;

    // ------------------------------------------------- serving hooks
    // All O(1); called from the single ServingStats choke points so
    // exposition counters reconcile exactly with StatsCounters.

    /// One completed request (Admission::complete, driver thread).
    void onComplete(std::size_t model, const Response &response);

    /// One shed request (Admission::shed; client or driver thread).
    void onShed(std::size_t model, ShedReason reason);

    /// Queue depth after an enqueue/pop (gauge + distribution).
    void onQueueDepth(std::size_t model, std::size_t depth);

    /// One SessionStore lookup at admission (hit = warm start).
    void onSessionLookup(std::size_t model, bool hit);

    /// One LRU eviction from the SessionStore.
    void onSessionEviction();

    /// Autopilot floor published for @p model.
    void onThetaFloor(std::size_t model, double floor);

    /// Cost-aware DRR charge at fleet admission (per-model credit
    /// spent, in calibrated milliseconds).
    void onFleetCharge(std::size_t model, double cost_ms);

  private:
    /// Pre-resolved per-model series handles.
    struct ModelHandles
    {
        MetricsRegistry::Counter *completed = nullptr;
        MetricsRegistry::Counter *deadlineMet = nullptr;
        MetricsRegistry::Counter *warmResumed = nullptr;
        MetricsRegistry::Counter *steps = nullptr;
        MetricsRegistry::Counter *shedExpired = nullptr;
        MetricsRegistry::Counter *shedPredicted = nullptr;
        MetricsRegistry::Counter *sessionHits = nullptr;
        MetricsRegistry::Counter *sessionMisses = nullptr;
        MetricsRegistry::Counter *admissions = nullptr;
        MetricsRegistry::Counter *chargedMsX1000 = nullptr;
        MetricsRegistry::Gauge *thetaFloor = nullptr;
        MetricsRegistry::Gauge *queueDepth = nullptr;
    };

    TelemetryOptions options_;
    std::vector<std::string> names_;
    MetricsRegistry registry_;
    std::unique_ptr<DriverTracer> tracer_;
    std::vector<ModelHandles> models_;
    MetricsRegistry::HistogramMetric *latencyMs_ = nullptr;
    MetricsRegistry::HistogramMetric *queueMs_ = nullptr;
    MetricsRegistry::HistogramMetric *serviceMs_ = nullptr;
    MetricsRegistry::HistogramMetric *queueDepthDist_ = nullptr;
    MetricsRegistry::Counter *sessionEvictions_ = nullptr;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_TELEMETRY_HH
