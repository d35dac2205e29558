/**
 * @file
 * Shared open-loop harness of the serving benches.
 *
 * Every serving study drives its server the same way: a ragged request
 * set, Poisson arrivals drawn independently of service progress, and a
 * collect step in which shed requests deliver nothing. The single-model
 * studies (bench_serving_load, bench_admission_sweep,
 * bench_autopilot_ramp) also share one set-up: the same network, request
 * set and slot pool, with "offered load 1.0x" calibrated against the
 * closed-batch capacity of that slot count. bench_multi_model_load
 * calibrates by a saturation probe instead (docs/BENCHMARKS.md).
 */

#ifndef NLFM_BENCH_OPEN_LOOP_HH
#define NLFM_BENCH_OPEN_LOOP_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bench_common.hh"
#include "common/rng.hh"
#include "serve/server.hh"

namespace nlfm::bench
{

/** Ragged copies of the workload inputs: length varies 50%..100%. */
std::vector<nn::Sequence>
makeRaggedRequests(std::span<const nn::Sequence> inputs, std::size_t count,
                   Rng &rng);

/** Mean length in steps of a request set. */
double meanLength(std::span<const nn::Sequence> requests);

/**
 * Open-loop Poisson arrivals: calls @p submit(i) for i = 0..count-1,
 * each after an exponential gap at @p offered arrivals/s drawn from
 * Rng(@p seed). Arrival times are drawn independently of service
 * progress, so a busy server means queueing, not fewer arrivals.
 */
void paceArrivals(std::size_t count, double offered, std::uint64_t seed,
                  const std::function<void(std::size_t)> &submit);

/**
 * Wait on every future. Shed futures (admission policies on) carry
 * ShedError and are dropped; each completed response goes to
 * @p on_completed with its index. Any other failure propagates.
 */
void collectCompleted(
    std::span<std::future<serve::Response>> futures,
    const std::function<void(std::size_t, const serve::Response &)>
        &on_completed = {});

/**
 * Enqueue requests[i] into @p server on Poisson arrivals (paceArrivals),
 * after @p shape set its theta and deadline, then drain the server and
 * collect the futures (collectCompleted, with @p on_completed).
 */
void serveOpenLoop(
    serve::Server &server, std::span<const nn::Sequence> requests,
    double offered, std::uint64_t seed,
    const std::function<void(std::size_t, serve::Request &)> &shape,
    const std::function<void(std::size_t, const serve::Response &)>
        &on_completed = {});

/**
 * One open-loop run through a fresh Server: request i runs at theta lo
 * (even i) or hi (odd i), the theta mix (mixed panels take the per-slot
 * scalar decision path), with deadline @p deadlines[i % size] (a
 * single-element span is the uniform-deadline case; the admission sweep
 * alternates tight/loose). Shed requests are dropped.
 */
serve::StatsSnapshot runLoad(nn::RnnNetwork &network,
                             nn::BinarizedNetwork &bnn,
                             const serve::ServerOptions &options,
                             std::span<const nn::Sequence> requests,
                             double theta_lo, double theta_hi,
                             double offered,
                             std::span<const double> deadlines,
                             std::uint64_t seed);

/**
 * Closed-batch calibration: one closed batch of slots full-length test
 * sequences through a memo engine bounds what the slot pool sustains.
 */
struct Calibration
{
    /// Ragged requests/s the pool sustains: "offered load 1.0x".
    double capacity = 0.0;
    /// Ideal per-sequence service: batch wall time * 1000 / slots.
    double serviceMs = 0.0;
    /// serviceMs per step: ServerOptions::calibratedStepCostMs.
    double stepCostMs = 0.0;
    /// 3x ideal per-sequence service + 500 ms queue allowance.
    double deadlineMs = 0.0;
};

/** One model on one Server: the single-model studies' set-up. */
struct ServingStudy
{
    std::string name; ///< zoo network (default DeepSpeech2)
    std::unique_ptr<workloads::Workload> workload;
    /// Ragged copies of the test split, drawn from Rng(2026).
    std::vector<nn::Sequence> requests;
    /// BNN predictor at theta 0.05; queue holds the request set.
    serve::ServerOptions serverOptions;
    Calibration calibration;
};

/**
 * Build and calibrate the single-model study, printing its header and
 * calibration lines prefixed by @p tag. Returns nullopt, after printing
 * why, for a bidirectional network: the step-major serving loop needs a
 * causal stack.
 */
std::optional<ServingStudy> makeServingStudy(const BenchOptions &options,
                                             const std::string &tag);

} // namespace nlfm::bench

#endif // NLFM_BENCH_OPEN_LOOP_HH
