#include "sim/sweep.hh"

#include <atomic>
#include <exception>

namespace prophet::sim
{

SweepEngine::SweepEngine(unsigned threads)
{
    unsigned n = ThreadPool::resolveThreads(threads);
    if (n > 1)
        pool = std::make_unique<ThreadPool>(n);
}

unsigned
SweepEngine::threads() const
{
    return pool ? pool->threadCount() : 1;
}

std::vector<SweepEngine::JobFailure>
SweepEngine::tryForEach(std::size_t n,
                        const std::function<void(std::size_t)> &fn,
                        FailurePolicy policy,
                        CancellationToken *token)
{
    std::vector<JobFailure> out(n);
    std::atomic<bool> abort{false};

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
        try {
            fn(i);
        } catch (...) {
            // Each slot is written by exactly one job, so no lock is
            // needed: the pool's wait() publishes every write before
            // the caller reads the vector.
            out[i].error = std::current_exception();
            if (policy == FailurePolicy::FailFast) {
                abort.store(true, std::memory_order_relaxed);
                if (token)
                    token->cancel();
            }
        }
    };

    if (!pool) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
        return out;
    }
    for (std::size_t i = 0; i < n; ++i)
        pool->submit([&, i] { runOne(i); });
    pool->wait();
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
