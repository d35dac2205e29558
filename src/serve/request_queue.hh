/// @file
/// Bounded MPMC queue between client threads and the serving driver.
///
/// Clients (any number of threads) push requests; the driver loop pops
/// them as slots free up. The queue is bounded so an overloaded server
/// exerts backpressure at enqueue() instead of buffering unboundedly —
/// under open-loop load beyond capacity, client threads block, which is
/// the behavior the serving_load bench measures as queueing latency.
///
/// Pop order is the scheduler's admission order and follows the queue's
/// QueuePolicy: FIFO (the default — requests enter slots in exactly the
/// order they were pushed, which keeps admission deterministic for a
/// single client thread) or EDF (earliest absolute deadline first;
/// deadline-free requests sort last and stay FIFO among themselves).

#ifndef NLFM_SERVE_REQUEST_QUEUE_HH
#define NLFM_SERVE_REQUEST_QUEUE_HH

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>

#include "serve/request.hh"

namespace nlfm::serve
{

/// A request plus the promise and timestamps that travel with it.
struct QueuedRequest
{
    std::uint64_t id = 0;
    Request request;
    std::promise<Response> promise;
    Clock::time_point enqueueTime{};
};

/// Queue service order (ServerOptions/FleetOptions::queuePolicy).
enum class QueuePolicy
{
    /// Pop in push order.
    Fifo,
    /// Pop the earliest absolute deadline (enqueue time + deadlineMs).
    /// Deadline-free requests sort last and stay FIFO among
    /// themselves; ties go to the earlier-queued request.
    Edf,
};

/// Absolute deadline of a queued request; time_point::max() when the
/// request carries none, or one beyond the clock's range (EDF sorts
/// those last).
Clock::time_point deadlineAt(const QueuedRequest &item);

/// Bounded multi-producer/multi-consumer queue with a pop policy.
class RequestQueue
{
  public:
    /// @param capacity maximum queued (not yet admitted) requests; > 0.
    explicit RequestQueue(std::size_t capacity,
                          QueuePolicy policy = QueuePolicy::Fifo);

    std::size_t capacity() const { return capacity_; }
    QueuePolicy policy() const { return policy_; }

    /// Blocking push: waits while the queue is full. Returns false when
    /// the queue was closed (the item is then dropped — callers observe
    /// shutdown via the future they kept).
    bool push(QueuedRequest &&item);

    /// Non-blocking push; false when full or closed.
    bool tryPush(QueuedRequest &&item);

    /// Non-blocking pop in policy order.
    std::optional<QueuedRequest> tryPop();

    /// Total input steps of the queued requests the pop policy would
    /// serve before a request pushed now with absolute deadline
    /// @p deadline: everything queued under FIFO, only earlier-or-equal
    /// deadlines under EDF. The optimistic "work ahead of you" term of
    /// the predictive-shedding estimate (serve::Admission).
    std::size_t stepsAhead(Clock::time_point deadline) const;

    /// Close the queue: pending and future pushes fail, pops drain what
    /// remains. Idempotent.
    void close();

    bool closed() const;
    std::size_t size() const;

  private:
    const std::size_t capacity_;
    const QueuePolicy policy_;
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::deque<QueuedRequest> items_;
    bool closed_ = false;
};

} // namespace nlfm::serve

#endif // NLFM_SERVE_REQUEST_QUEUE_HH
