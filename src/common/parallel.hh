/**
 * @file
 * Minimal thread pool running blocking range jobs.
 *
 * RnnNetwork::forwardBatch runs sequence chunks on it, or splits each
 * phase of a one-chunk batch's cell steps over it by neurons
 * (nn/batch_evaluator.hh); nn::initNetwork fills a network's gates on
 * the global one; the servers drive their ticks on a private one. A
 * job's range is split into contiguous static chunks, one per thread,
 * and chunk i always runs on pool thread i.
 */

#ifndef NLFM_COMMON_PARALLEL_HH
#define NLFM_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nlfm
{

/**
 * Fixed-size pool of worker threads executing blocking range jobs.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardware_concurrency. */
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return workers_.size() + 1; }

    /**
     * Execute body(begin, end) over [0, count) split into one contiguous
     * chunk per thread; blocks until all chunks complete. Chunk i runs
     * on pool thread i: the calling thread is thread 0, worker i - 1 is
     * thread i, so a caller that hands the same data to the same chunk
     * index on every job keeps it on one core. Workers beyond the
     * chunk count stay idle.
     *
     * If chunks throw, run() still waits for every chunk, then rethrows
     * the first exception on the calling thread; the pool stays usable.
     *
     * NOT REENTRANT: there is one Job slot per pool, so a second
     * multi-chunk run — nested inside @p body, or issued concurrently
     * from another thread — would overwrite the job the workers are
     * still draining. This is asserted (loudly, in every build type)
     * instead of left undefined; callers that need parallelism inside a
     * parallel region must use a separate pool, which is exactly why
     * serve::Server/FleetServer keep a private pool instead of sharing
     * ThreadPool::global(). Single-chunk runs (count or pool of 1) run the
     * body inline and are exempt: they never touch the job slot.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t, std::size_t)> &body);

    /** Process-wide shared pool (lazily constructed). */
    static ThreadPool &global();

  private:
    struct Job
    {
        const std::function<void(std::size_t, std::size_t)> *body = nullptr;
        /// Chunk i's range; chunk 0 is the caller's.
        std::vector<std::pair<std::size_t, std::size_t>> ranges;
        std::size_t pending = 0;
        std::uint64_t epoch = 0;
        /// First exception thrown by any chunk of the job.
        std::exception_ptr error;
    };

    /** Worker loop of pool thread @p thread (1 .. threadCount() - 1). */
    void workerLoop(std::size_t thread);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wakeWorkers_;
    std::condition_variable jobDone_;
    Job job_;
    std::uint64_t epoch_ = 0;
    bool stopping_ = false;
    /// True while a multi-chunk job is in flight; guards run() against
    /// nested/concurrent invocation (see run()'s doc).
    std::atomic<bool> inRun_{false};
};

} // namespace nlfm

#endif // NLFM_COMMON_PARALLEL_HH
