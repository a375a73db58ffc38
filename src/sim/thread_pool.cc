#include "sim/thread_pool.hh"

#include <chrono>
#include <exception>
#include <string>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/span_trace.hh"

namespace prophet::sim
{

unsigned
ThreadPool::resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    unsigned n = resolveThreads(threads);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    wakeWorker.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        jobs.push_back(std::move(job));
        ++inFlight;
    }
    wakeWorker.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    allDone.wait(lock, [this] { return inFlight == 0; });
}

void
ThreadPool::workerLoop(unsigned index)
{
    // Label this worker's span-trace track. Cheap, and recorded even
    // while the collector is off, so a pool constructed before
    // --trace-out enables collection still gets named tracks.
    span::setCurrentThreadName("worker-" + std::to_string(index));

    // Cache the registry lookup once per worker; the busy counter is
    // bumped per *job* (whole simulations), not per record.
    metrics::Counter &busy_counter =
        metrics::counter("threadpool.busy_ns");
    metrics::Counter &escaped_counter =
        metrics::counter("threadpool.escaped_exceptions");

    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu);
            wakeWorker.wait(lock, [this] {
                return stopping || !jobs.empty();
            });
            if (jobs.empty())
                return; // stopping with nothing left to run
            job = std::move(jobs.front());
            jobs.pop_front();
        }
        auto t0 = std::chrono::steady_clock::now();
        try {
            job();
        } catch (const std::exception &e) {
            // A throwing job must not kill the worker (std::terminate)
            // or leak inFlight and hang wait(). Callers that care
            // about failures capture them inside the closure, as
            // SweepEngine::tryForEach does — so an exception
            // reaching here is a caller bug, worth a trace and a
            // counter instead of silence.
            swallowed.fetch_add(1, std::memory_order_relaxed);
            escaped_counter.inc();
            prophet_warnf("thread-pool: job leaked exception: %s",
                          e.what());
        } catch (...) {
            swallowed.fetch_add(1, std::memory_order_relaxed);
            escaped_counter.inc();
            prophet_warnf("thread-pool: job leaked non-std exception");
        }
        auto busy =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (busy > 0) {
            busyNs.fetch_add(static_cast<std::uint64_t>(busy),
                             std::memory_order_relaxed);
            busy_counter.inc(static_cast<std::uint64_t>(busy));
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            if (--inFlight == 0)
                allDone.notify_all();
        }
    }
}

} // namespace prophet::sim
