/**
 * @file
 * Unit tests for the analytic core timing model: issue width, MLP
 * overlap of independent misses, serialization of dependent loads
 * (pointer chasing), ROB-full stalls, and IPC windows.
 */

#include <gtest/gtest.h>

#include "sim/core_model.hh"

namespace prophet::sim
{
namespace
{

TEST(CoreModel, IssueWidthPacesInstructions)
{
    CoreModel core(CoreParams{5.0, 288});
    // 9 gap instructions + 1 access = 10 instructions = 2 cycles.
    Cycle t = core.beginAccess(9, false);
    EXPECT_EQ(t, 2u);
    core.completeAccess(t + 2); // L1 hit
    EXPECT_EQ(core.retiredInstructions(), 10u);
}

TEST(CoreModel, IndependentMissesOverlap)
{
    // Two independent 200-cycle misses issued back to back finish
    // ~1 gap apart, not 200 apart (memory-level parallelism).
    CoreModel core(CoreParams{1.0, 512});
    Cycle t1 = core.beginAccess(0, false);
    core.completeAccess(t1 + 200);
    Cycle t2 = core.beginAccess(0, false);
    core.completeAccess(t2 + 200);
    EXPECT_LE(t2, t1 + 2);
    EXPECT_LE(core.exactCycles(), t1 + 205.0);
}

TEST(CoreModel, DependentLoadsSerialize)
{
    // Pointer chasing: the second load cannot issue before the
    // first one's data returns.
    CoreModel core(CoreParams{1.0, 512});
    Cycle t1 = core.beginAccess(0, false);
    core.completeAccess(t1 + 200);
    Cycle t2 = core.beginAccess(0, true);
    EXPECT_GE(t2, t1 + 200);
    core.completeAccess(t2 + 200);
    EXPECT_GE(core.exactCycles(), 400.0);
}

TEST(CoreModel, RobBoundsRunahead)
{
    // With a 16-entry ROB, issue cannot run hundreds of
    // instructions past an outstanding miss.
    CoreModel core(CoreParams{1.0, 16});
    Cycle t1 = core.beginAccess(0, false);
    core.completeAccess(t1 + 1000);
    // Issue 10 more independent accesses of 15 instructions each:
    // they exceed the ROB and must wait for the miss to retire.
    Cycle last = 0;
    for (int i = 0; i < 10; ++i) {
        last = core.beginAccess(14, false);
        core.completeAccess(last + 1);
    }
    EXPECT_GE(last, 1000u);
}

TEST(CoreModel, LargeRobHidesLatency)
{
    CoreModel big(CoreParams{1.0, 4096});
    CoreModel small(CoreParams{1.0, 16});
    for (int i = 0; i < 50; ++i) {
        Cycle tb = big.beginAccess(4, false);
        big.completeAccess(tb + 300);
        Cycle ts = small.beginAccess(4, false);
        small.completeAccess(ts + 300);
    }
    EXPECT_LT(big.exactCycles(), small.exactCycles());
}

TEST(CoreModel, IpcComputation)
{
    CoreModel core(CoreParams{2.0, 288});
    for (int i = 0; i < 100; ++i) {
        Cycle t = core.beginAccess(9, false);
        core.completeAccess(t + 1);
    }
    // 1000 instructions at width 2 => ~500 cycles => IPC ~2. With no
    // mark() the window is the whole run.
    EXPECT_EQ(core.cyclesSinceMark(), core.exactCycles());
    EXPECT_NEAR(static_cast<double>(core.instructionsSinceMark())
                    / core.cyclesSinceMark(),
                2.0, 0.1);
}

TEST(CoreModel, MarkWindowsIpc)
{
    CoreModel core(CoreParams{1.0, 512});
    // Slow warmup phase.
    for (int i = 0; i < 20; ++i) {
        Cycle t = core.beginAccess(0, true);
        core.completeAccess(t + 500);
    }
    core.mark();
    // Fast measured phase.
    for (int i = 0; i < 200; ++i) {
        Cycle t = core.beginAccess(0, false);
        core.completeAccess(t + 1);
    }
    const double window_ipc =
        static_cast<double>(core.instructionsSinceMark())
        / core.cyclesSinceMark();
    const double run_ipc =
        static_cast<double>(core.retiredInstructions())
        / core.exactCycles();
    EXPECT_GT(window_ipc, run_ipc);
    EXPECT_NEAR(window_ipc, 1.0, 0.2);
}

TEST(CoreModel, PrefetchingShortensChaseAnalytically)
{
    // The whole point of the paper in one test: a dependent chain of
    // misses at 200 cycles vs the same chain hit in the L2 at 11.
    auto run_chain = [](Cycle latency) {
        CoreModel core(CoreParams{5.0, 288});
        for (int i = 0; i < 100; ++i) {
            Cycle t = core.beginAccess(3, true);
            core.completeAccess(t + latency);
        }
        return core.exactCycles();
    };
    const double unprefetched = run_chain(200);
    const double prefetched = run_chain(11);
    EXPECT_GT(unprefetched, prefetched * 10);
}

} // anonymous namespace
} // namespace prophet::sim
