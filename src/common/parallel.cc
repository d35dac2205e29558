#include "common/parallel.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace nlfm
{

ThreadPool::ThreadPool(std::size_t threads)
{
    std::size_t n = threads;
    if (n == 0) {
        n = std::thread::hardware_concurrency();
        if (n == 0)
            n = 4;
    }
    // The calling thread participates, so spawn n - 1 workers.
    for (std::size_t i = 1; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wakeWorkers_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen_epoch = 0;
    while (true) {
        std::pair<std::size_t, std::size_t> range;
        const std::function<void(std::size_t, std::size_t)> *body = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeWorkers_.wait(lock, [&] {
                return stopping_ ||
                       (job_.epoch > seen_epoch &&
                        job_.nextChunk < job_.ranges.size());
            });
            if (stopping_)
                return;
            range = job_.ranges[job_.nextChunk++];
            body = job_.body;
            if (job_.nextChunk >= job_.ranges.size())
                seen_epoch = job_.epoch;
        }
        std::exception_ptr error;
        try {
            (*body)(range.first, range.second);
        } catch (...) {
            error = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !job_.error)
                job_.error = std::move(error);
            if (--job_.pending == 0)
                jobDone_.notify_all();
        }
    }
}

void
ThreadPool::run(std::size_t count,
                const std::function<void(std::size_t, std::size_t)> &body)
{
    if (count == 0)
        return;
    const std::size_t threads = threadCount();
    const std::size_t chunks = std::min(threads, count);
    if (chunks == 1) {
        body(0, count);
        return;
    }

    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(chunks);
    const std::size_t base = count / chunks;
    const std::size_t extra = count % chunks;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < chunks; ++i) {
        const std::size_t len = base + (i < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + len);
        begin += len;
    }
    nlfm_assert(begin == count, "chunking lost iterations");

    // One Job slot per pool: a nested or concurrent multi-chunk run
    // would overwrite the job the workers are draining (PR 3 hit this
    // as silent corruption; now it is loud). Single-chunk calls above
    // never touch the job slot and are deliberately exempt.
    nlfm_assert(!inRun_.exchange(true, std::memory_order_acquire),
                "ThreadPool::run is not reentrant: a multi-chunk job is "
                "already in flight on this pool (nested run from a "
                "worker body, or concurrent run from another thread). "
                "Use a separate/private pool instead.");
    // Cleared via RAII on every exit, the rethrow of a chunk's exception
    // below included. That rethrow comes only after every chunk has
    // finished, so a cleared flag always finds the workers idle.
    struct RunGuard
    {
        std::atomic<bool> &flag;
        ~RunGuard() { flag.store(false, std::memory_order_release); }
    } run_guard{inRun_};

    // Chunk 0 runs on the calling thread.
    const auto first = ranges.front();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_.body = &body;
        job_.ranges.assign(ranges.begin() + 1, ranges.end());
        job_.nextChunk = 0;
        job_.pending = ranges.size() - 1;
        job_.epoch = ++epoch_;
    }
    wakeWorkers_.notify_all();
    // Every chunk finishes before run() returns or throws: the workers'
    // chunks use @p body and whatever it refers to in the caller's frame.
    // The first exception of any chunk is rethrown after the join.
    try {
        body(first.first, first.second);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!job_.error)
            job_.error = std::current_exception();
    }
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        jobDone_.wait(lock, [&] { return job_.pending == 0; });
        error = std::exchange(job_.error, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

} // namespace nlfm
