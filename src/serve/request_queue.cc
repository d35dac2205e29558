#include "serve/request_queue.hh"

#include "common/logging.hh"

namespace nlfm::serve
{

Clock::time_point
deadlineAt(const QueuedRequest &item)
{
    // Compared in double nanoseconds, so that any budget below the
    // clock's headroom converts without overflow. One at or beyond it
    // (inf, 1e300 ms) would overflow the clock's integer count, which
    // is undefined: it is no deadline.
    const std::chrono::duration<double, std::nano> budget =
        std::chrono::duration<double, std::milli>(item.request.deadlineMs);
    if (!(item.request.deadlineMs > 0.0) ||
        budget >= Clock::time_point::max() - item.enqueueTime)
        return Clock::time_point::max();
    return item.enqueueTime +
           std::chrono::duration_cast<Clock::duration>(budget);
}

RequestQueue::RequestQueue(std::size_t capacity, QueuePolicy policy)
    : capacity_(capacity), policy_(policy)
{
    nlfm_assert(capacity > 0, "zero-capacity request queue");
}

bool
RequestQueue::push(QueuedRequest &&item)
{
    std::unique_lock<std::mutex> lock(mutex_);
    notFull_.wait(lock,
                  [&] { return closed_ || items_.size() < capacity_; });
    if (closed_)
        return false;
    items_.push_back(std::move(item));
    return true;
}

bool
RequestQueue::tryPush(QueuedRequest &&item)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_)
        return false;
    items_.push_back(std::move(item));
    return true;
}

std::optional<QueuedRequest>
RequestQueue::tryPop()
{
    std::optional<QueuedRequest> item;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (items_.empty())
            return item;
        auto best = items_.begin();
        if (policy_ == QueuePolicy::Edf) {
            // Strict < keeps ties (and the deadline-free tail, all at
            // time_point::max()) in FIFO order.
            Clock::time_point best_deadline = deadlineAt(*best);
            for (auto it = std::next(best); it != items_.end(); ++it) {
                const Clock::time_point deadline = deadlineAt(*it);
                if (deadline < best_deadline) {
                    best = it;
                    best_deadline = deadline;
                }
            }
        }
        item.emplace(std::move(*best));
        items_.erase(best);
    }
    notFull_.notify_one();
    return item;
}

std::size_t
RequestQueue::stepsAhead(Clock::time_point deadline) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t steps = 0;
    for (const QueuedRequest &item : items_)
        if (policy_ == QueuePolicy::Fifo || deadlineAt(item) <= deadline)
            steps += item.request.input.size();
    return steps;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    notFull_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
}

} // namespace nlfm::serve
