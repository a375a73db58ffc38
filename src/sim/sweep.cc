#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "common/log.hh"
#include "common/metrics.hh"
#include "common/span_trace.hh"

namespace prophet::sim
{

SweepEngine::SweepEngine(unsigned threads)
    : nThreads(threads > 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency()))
{
}

std::vector<SweepEngine::JobFailure>
SweepEngine::tryForEach(std::size_t n,
                        const std::function<void(std::size_t)> &fn,
                        FailurePolicy policy,
                        CancellationToken *token)
{
    std::vector<JobFailure> out(n);
    std::atomic<bool> abort{false};
    // The counter keeps its historical name: the metrics report's
    // thread_pool section reads it.
    metrics::Counter &busy = metrics::counter("threadpool.busy_ns");

    auto runOne = [&](std::size_t i) {
        // A fired token skips jobs not yet started under *any*
        // policy: fail-fast fires it on the first failure, and the
        // driver's graceful-shutdown path fires it on SIGINT/SIGTERM
        // — where even keep-going must drain, not start new work.
        if ((policy == FailurePolicy::FailFast
             && abort.load(std::memory_order_relaxed))
            || (token && token->cancelled())) {
            out[i].skipped = true;
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        try {
            fn(i);
        } catch (...) {
            // Each slot is written by exactly one job, so no lock is
            // needed: joining the workers publishes every write
            // before the caller reads the vector.
            out[i].error = std::current_exception();
            if (policy == FailurePolicy::FailFast) {
                abort.store(true, std::memory_order_relaxed);
                if (token)
                    token->cancel();
            }
        }
        busy.inc(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    };

    if (nThreads == 1) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
        return out;
    }

    std::atomic<std::size_t> next{0};
    auto work = [&](unsigned k) {
        // Label this worker's span-trace track; recorded even while
        // the collector is off.
        span::setCurrentThreadName("worker-" + std::to_string(k));
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            runOne(i);
    };
    const auto count =
        static_cast<unsigned>(std::min<std::size_t>(nThreads, n));
    std::vector<std::thread> workers;
    workers.reserve(count);
    try {
        for (unsigned k = 0; k < count; ++k)
            workers.emplace_back(work, k);
    } catch (const std::exception &e) {
        // The workers already started claim every index between
        // them; only a fan-out with none cannot run.
        if (workers.empty())
            throw;
        prophet_warnf("sweep: started %zu of %u workers (%s)",
                      workers.size(), count, e.what());
    }
    for (auto &w : workers)
        w.join();
    return out;
}

void
SweepEngine::forEach(std::size_t n,
                     const std::function<void(std::size_t)> &fn)
{
    for (const JobFailure &f : tryForEach(n, fn))
        if (f.error)
            std::rethrow_exception(f.error);
}

} // namespace prophet::sim
