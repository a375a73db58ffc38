/**
 * @file
 * Analytic out-of-order core timing model. Reproduces the first-order
 * effects that matter to prefetching studies on Table 1's core
 * (5-wide fetch, 10-wide issue, 288-entry ROB):
 *
 *  - instructions issue at a sustained width;
 *  - independent misses overlap (memory-level parallelism): a second
 *    miss issued one cycle after the first completes one cycle after
 *    it, not a full latency later;
 *  - dependent loads serialize: a pointer-chase step cannot issue
 *    until its parent's data returns — the reason temporal
 *    prefetching matters (Section 1);
 *  - the ROB bounds how far issue runs ahead of retirement, so an
 *    unprefetched DRAM miss stalls the core once the window fills.
 */

#ifndef PROPHET_SIM_CORE_MODEL_HH
#define PROPHET_SIM_CORE_MODEL_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace prophet::sim
{

/** Core parameters (Table 1). */
struct CoreParams
{
    /** Sustained issue width in instructions per cycle. */
    double issueWidth = 5.0;

    /** Reorder-buffer capacity in instructions. */
    unsigned robSize = 288;
};

/**
 * The timing model. Drive it record by record:
 *   Cycle t = core.beginAccess(gap, depends);
 *   auto out = hierarchy.access(..., t);
 *   core.completeAccess(out.readyAt);
 */
class CoreModel
{
  public:
    explicit CoreModel(const CoreParams &params = {});

    /**
     * Advance the issue clock past @p inst_gap non-memory
     * instructions and account ROB/dependence constraints for the
     * upcoming memory access.
     *
     * @return The cycle at which the access issues.
     */
    Cycle beginAccess(unsigned inst_gap, bool depends_on_prev);

    /** Report the access's data-ready cycle. */
    void completeAccess(Cycle ready_at);

    /** Retired instructions so far. */
    std::uint64_t retiredInstructions() const { return instCount; }

    /**
     * Open a measurement window: cyclesSinceMark() and
     * instructionsSinceMark() count only work after this point.
     */
    void mark();

    /**
     * Exact (fractional) cycles elapsed since the last mark(). System
     * accumulates these per measurement window and rounds only the
     * run's total, so a full run's single window reports the same
     * cycle count as rounding exactCycles() up once.
     */
    double cyclesSinceMark() const
    {
        double c = (issueClock > retireClock ? issueClock
                                             : retireClock)
            - markCycles;
        return c > 0.0 ? c : 0.0;
    }

    /** Instructions retired since the last mark(). */
    std::uint64_t instructionsSinceMark() const
    {
        return instCount - markInsts;
    }

    /**
     * Exact (fractional) total cycles including the drain of
     * in-flight loads; System rounds them up once when it reports.
     */
    double exactCycles() const
    {
        return issueClock > retireClock ? issueClock : retireClock;
    }

  private:
    CoreParams prm;

    /** Issue clock (fractional cycles at issueWidth granularity). */
    double issueClock = 0.0;

    /** Retired-instruction counter. */
    std::uint64_t instCount = 0;

    /** Completion cycle of the most recent load (dependences). */
    double lastLoadComplete = 0.0;

    /** In-order retirement frontier. */
    double retireClock = 0.0;

    /**
     * Outstanding loads: (instruction index, retire time), a ring
     * buffer sized at construction. At most robSize loads can be
     * outstanding (older ones are force-retired by the ROB check in
     * beginAccess), so the record loop never allocates — unlike the
     * deque this replaces, which allocated a chunk every ~32
     * push/pop cycles.
     */
    std::vector<std::pair<std::uint64_t, double>> outstanding;
    std::size_t outHead = 0;
    std::size_t outTail = 0;
    std::size_t outMask = 0;

    /** Warmup mark. */
    double markCycles = 0.0;
    std::uint64_t markInsts = 0;
};

} // namespace prophet::sim

#endif // PROPHET_SIM_CORE_MODEL_HH
