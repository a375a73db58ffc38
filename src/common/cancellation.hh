/**
 * @file
 * Cooperative cancellation: a shared flag long-running work polls at
 * coarse intervals. A run owns one token; shutdown, fail-fast, a
 * serve client's disconnect and a daemon drain all fire it. Every
 * job attempt polls a private child token chained to it, so a run-wide
 * cancel reaches in-flight simulations at their next poll, and a
 * per-job deadline, fixed when the child is made, expires that child
 * alone.
 *
 * Polling has no side effects on simulation state, so a run with a
 * token attached but never cancelled is bit-identical to a run
 * without one (regression-gated in tests/test_system.cc).
 */

#ifndef PROPHET_COMMON_CANCELLATION_HH
#define PROPHET_COMMON_CANCELLATION_HH

#include <atomic>
#include <chrono>

namespace prophet
{

/**
 * A one-way cancel flag, optionally chained to a parent and bounded
 * by a deadline: cancelled() reports true once this token or any
 * ancestor has fired, or once this token's deadline has passed.
 * cancel() may be called from any thread, any number of times, and
 * never touches the parent. There is no un-cancel: one token serves
 * one logical run (or one job attempt). The parent must outlive the
 * child.
 */
class CancellationToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** No deadline: the token never reads the clock. */
    static constexpr Clock::time_point kNoDeadline =
        Clock::time_point::max();

    CancellationToken() = default;

    explicit CancellationToken(
        const CancellationToken *chained_to,
        Clock::time_point expires_at = kNoDeadline) noexcept
        : parent(chained_to), deadline(expires_at)
    {
    }

    void
    cancel() noexcept
    {
        flag.store(true, std::memory_order_relaxed);
    }

    bool
    cancelled() const noexcept
    {
        return flag.load(std::memory_order_relaxed) || expired()
            || (parent && parent->cancelled());
    }

    /** True once this token's own deadline has passed. */
    bool
    expired() const noexcept
    {
        return deadline != kNoDeadline && Clock::now() >= deadline;
    }

  private:
    std::atomic<bool> flag{false};
    const CancellationToken *parent = nullptr;
    Clock::time_point deadline = kNoDeadline;
};

} // namespace prophet

#endif // PROPHET_COMMON_CANCELLATION_HH
