#include "sim/core_model.hh"

#include <cmath>

#include "common/intmath.hh"
#include "common/log.hh"

namespace prophet::sim
{

CoreModel::CoreModel(const CoreParams &params)
    : prm(params)
{
    prophet_assert(prm.issueWidth > 0.0);
    prophet_assert(prm.robSize >= 1);
    // One slot per possibly-outstanding load, rounded up so the ring
    // indices wrap with a mask.
    outstanding.resize(nextPowerOf2(prm.robSize + 1));
    outMask = outstanding.size() - 1;
}

Cycle
CoreModel::beginAccess(unsigned inst_gap, bool depends_on_prev)
{
    // Issue the gap instructions plus this access at sustained width.
    instCount += inst_gap + 1;
    issueClock += static_cast<double>(inst_gap + 1) / prm.issueWidth;

    // ROB constraint: issue may not run more than robSize
    // instructions ahead of the oldest unretired load.
    while (outHead != outTail) {
        const auto &[idx, retire_at] = outstanding[outHead & outMask];
        if (idx + prm.robSize <= instCount) {
            // That load must retire before this instruction can
            // even occupy the ROB.
            if (issueClock < retire_at)
                issueClock = retire_at;
            ++outHead;
        } else {
            break;
        }
    }

    // Data dependence: a chased pointer cannot issue before its
    // parent's value arrives.
    if (depends_on_prev && issueClock < lastLoadComplete)
        issueClock = lastLoadComplete;

    return static_cast<Cycle>(std::llround(std::ceil(issueClock)));
}

void
CoreModel::completeAccess(Cycle ready_at)
{
    auto ready = static_cast<double>(ready_at);
    lastLoadComplete = ready;

    // In-order retirement: this load retires no earlier than every
    // prior instruction.
    retireClock = std::max(retireClock, ready);
    prophet_assert(outTail - outHead <= outMask);
    outstanding[outTail & outMask] = {instCount, retireClock};
    ++outTail;
}

void
CoreModel::mark()
{
    // Statistics-window boundary: drain the pipeline so the measured
    // window does not inherit retirement backlog from warmup.
    markCycles = std::max(issueClock, retireClock);
    issueClock = markCycles;
    retireClock = markCycles;
    markInsts = instCount;
}

} // namespace prophet::sim
