/**
 * @file
 * A small fixed-size thread pool for the sweep engine. Jobs are
 * plain closures; wait() blocks until every submitted job has
 * finished, so a sweep can fan out a batch and then merge results
 * deterministically.
 */

#ifndef PROPHET_SIM_THREAD_POOL_HH
#define PROPHET_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prophet::sim
{

/**
 * Fixed-size worker pool. Construction spawns the workers;
 * destruction drains outstanding jobs and joins them. One pool is
 * meant to outlive many submit/wait batches (benches reuse a single
 * engine across figures).
 */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 selects the hardware
     *        concurrency (at least 1).
     */
    explicit ThreadPool(unsigned threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a job. Safe to call from worker threads. An exception
     * escaping the job cannot kill the worker: it is logged to
     * stderr, counted (swallowedExceptions()), and dropped so the
     * pool stays healthy and wait() still returns. Callers that need
     * the failure itself must capture it inside the closure, as
     * SweepEngine::tryForEach does — a nonzero swallowed count
     * therefore indicates a caller bug, not an expected path.
     */
    void submit(std::function<void()> job);

    /** Block until all submitted jobs have completed. */
    void wait();

    /** Exceptions that escaped jobs and were logged + dropped. */
    std::uint64_t
    swallowedExceptions() const
    {
        return swallowed.load(std::memory_order_relaxed);
    }

    /**
     * Nanoseconds workers spent inside jobs, summed across workers
     * (also accumulated into the "threadpool.busy_ns" registry
     * counter). With the pool's lifetime this yields the busy/idle
     * utilization split the metrics report prints: idle time is
     * workers x wall-clock minus this.
     */
    std::uint64_t
    busyNanos() const
    {
        return busyNs.load(std::memory_order_relaxed);
    }

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /** Resolve a requested thread count (0 = hardware concurrency). */
    static unsigned resolveThreads(unsigned requested);

  private:
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> jobs;
    std::mutex mu;
    std::condition_variable wakeWorker;
    std::condition_variable allDone;
    std::size_t inFlight = 0;
    bool stopping = false;
    std::atomic<std::uint64_t> swallowed{0};
    std::atomic<std::uint64_t> busyNs{0};

    void workerLoop(unsigned index);
};

} // namespace prophet::sim

#endif // PROPHET_SIM_THREAD_POOL_HH
