/// @file
/// Request/response types of the serving subsystem.
///
/// A Request is one inference job: an input sequence plus per-request
/// quality (theta) and urgency (deadline) knobs. The Server answers with
/// a Response carrying the full output sequence and the request's
/// individual latency/reuse accounting — the per-request half of the
/// accounting the paper's serving pitch (energy/latency under sustained
/// traffic) is measured by.

#ifndef NLFM_SERVE_REQUEST_HH
#define NLFM_SERVE_REQUEST_HH

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "nn/rnn_layer.hh"

namespace nlfm::serve
{

/// Thrown through a request's future when admission-time load shedding
/// (ServerOptions::shedExpired / FleetOptions::shedExpired) rejects the
/// request because its deadline had already expired before a slot freed
/// up. Distinct from std::runtime_error("... stopped") so clients can
/// tell "retry elsewhere" from "server is gone".
class ShedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/// Why admission shed a request (ServingStats breaks sheds down by
/// reason).
enum class ShedReason
{
    /// The deadline had already passed while the request queued
    /// (ServerOptions/FleetOptions::shedExpired).
    Expired,
    /// The deadline is still ahead, but even the optimistic completion
    /// estimate from the calibrated per-step cost misses it
    /// (ServerOptions/FleetOptions::shedPredicted).
    PredictedMiss,
};

/// Monotonic clock every serving timestamp uses.
using Clock = std::chrono::steady_clock;

/// One inference job submitted to a Server.
struct Request
{
    /// Input sequence (per-step feature vectors of the network's input
    /// width). Moved into the server on enqueue.
    nn::Sequence input;

    /// Per-request reuse threshold (Eq. 14's theta). Negative means the
    /// server's default (ServerOptions::memo.theta). Ignored by exact
    /// (non-memoized) servers. NaN fails the request's future with
    /// std::invalid_argument.
    double theta = -1.0;

    /// Latency budget in milliseconds, measured enqueue -> completion.
    /// 0 (or less) means no deadline, and so does one too long for the
    /// clock to represent (inf, 1e300); NaN fails the request's future
    /// with std::invalid_argument. By default the deadline only feeds
    /// the goodput accounting (Response::deadlineMet) and orders
    /// nothing; the opt-in admission policies (queuePolicy = Edf,
    /// shedExpired, shedPredicted — see docs/SERVING.md "Admission
    /// policies") use it for scheduling and shedding.
    double deadlineMs = 0.0;

    /// Client-supplied session key for cross-request warm-start
    /// (docs/SERVING.md, "Sessions & warm-start"). Empty — the default
    /// — opts out: the request is served exactly as before sessions
    /// existed (cold slot, nothing snapshotted). Non-empty asks the
    /// server to restore the session's memo table and recurrent state
    /// into the assigned slot at admission and to snapshot them back at
    /// completion, so consecutive turns of one session evaluate as one
    /// uninterrupted sequence. Turns of a session are expected to be
    /// submitted sequentially (enqueue turn k+1 after turn k's future
    /// resolves); a concurrent second turn simply finds the state
    /// checked out and starts cold.
    std::string sessionId;
};

/// Completion record of one request.
struct Response
{
    /// Server-assigned id, dense in enqueue order.
    std::uint64_t id = 0;

    /// Per-step network outputs (the top layer's hidden state), exactly
    /// length(input) steps of outputSize() floats — bitwise identical to
    /// RnnNetwork::forward on the same input with the same theta.
    nn::Sequence output;

    /// Steps processed (== input length).
    std::size_t steps = 0;

    /// The theta the request was served at (after defaulting). Exact
    /// (non-memoized) models echo an explicit request theta for
    /// per-theta accounting and report 0.0 — exact evaluation — for
    /// the "server default" sentinel.
    double theta = 0.0;

    /// Fraction of neuron evaluations answered from the memo table
    /// (0 for exact servers and zero-length inputs).
    double reuseFraction = 0.0;

    /// Time spent waiting in the request queue before a slot freed up.
    double queueMs = 0.0;
    /// Time from slot admission to final step.
    double serviceMs = 0.0;
    /// End-to-end latency (queueMs + serviceMs).
    double latencyMs = 0.0;
    /// latencyMs <= deadline (true when no deadline was set).
    bool deadlineMet = true;

    /// True when the request resumed from its session's stored state
    /// (Request::sessionId hit the SessionStore); false for cold starts,
    /// including session-tagged requests whose state was evicted or
    /// checked out. Counted by ServingStats as warmResumed.
    bool warmResumed = false;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_REQUEST_HH
