#include "common/cancellation.hh"

#include "common/error.hh"

namespace prophet::cancellation
{

namespace
{
/**
 * thread_local rather than passed through call signatures, so the
 * driver needs no per-job plumbing through the pipeline registry,
 * the Runner or the workload generators.
 */
thread_local const CancellationToken *tl_current = nullptr;
} // anonymous namespace

const CancellationToken *
current() noexcept
{
    return tl_current;
}

Scope::Scope(const CancellationToken *token) noexcept
    : previous(tl_current)
{
    tl_current = token;
}

Scope::~Scope()
{
    tl_current = previous;
}

void
poll()
{
    if (tl_current && tl_current->cancelled())
        throw Error(ErrorCode::Cancelled, "job cancelled mid-pass");
}

} // namespace prophet::cancellation
