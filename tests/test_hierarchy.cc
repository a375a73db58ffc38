/**
 * @file
 * Integration tests for the L1 -> L2 -> LLC -> DRAM hierarchy:
 * demand paths, prefetch injection at both levels, usefulness
 * attribution, and writeback routing.
 */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

namespace prophet::mem
{
namespace
{

HierarchyConfig
tinyConfig()
{
    HierarchyConfig cfg;
    cfg.l1d = {"L1D", 4 * 1024, 4, 2, 8, "lru"};
    cfg.l2 = {"L2", 16 * 1024, 8, 9, 8, "lru"};
    cfg.llc = {"LLC", 64 * 1024, 16, 20, 8, "lru"};
    cfg.dram = DramConfig{150, 8, 1};
    return cfg;
}

TEST(Hierarchy, ColdMissGoesToDram)
{
    Hierarchy h(tinyConfig());
    auto out = h.access(0x400, 0x10000, false, 0);
    EXPECT_EQ(out.level, HitLevel::Dram);
    EXPECT_TRUE(out.l2Accessed);
    EXPECT_FALSE(out.l2Hit);
    EXPECT_GE(out.readyAt, 150u);
    EXPECT_EQ(h.dram().stats().reads, 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    Hierarchy h(tinyConfig());
    h.access(0x400, 0x10000, false, 0);
    auto out = h.access(0x400, 0x10000, false, 1000);
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_FALSE(out.l2Accessed);
    EXPECT_EQ(out.readyAt, 1002u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyConfig cfg = tinyConfig();
    Hierarchy h(cfg);
    Addr target = 0x10000;
    h.access(0x400, target, false, 0);
    // Evict the line from the 64-set L1 by filling its set (sets are
    // 16 for 4KB/4way/64B: stride 16 lines = 1024 bytes).
    unsigned l1_sets = h.l1().numSets();
    for (unsigned i = 1; i <= 4; ++i)
        h.access(0x404, target + i * l1_sets * kLineSize, false,
                 1000 + i);
    auto out = h.access(0x400, target, false, 5000);
    EXPECT_EQ(out.level, HitLevel::L2);
    EXPECT_TRUE(out.l2Hit);
}

TEST(Hierarchy, L2PrefetchInstallsInL2NotL1)
{
    Hierarchy h(tinyConfig());
    EXPECT_TRUE(h.prefetchL2(0x999, 0x77, 0));
    EXPECT_TRUE(h.l2().contains(0x77));
    EXPECT_FALSE(h.l1().contains(0x77));
    // The demand that consumes it is credited to the prefetch PC.
    auto out = h.access(0x400, 0x77 << kLineShift, false, 1000);
    EXPECT_EQ(out.level, HitLevel::L2);
    EXPECT_TRUE(out.prefetchUseful);
    EXPECT_EQ(out.prefetchClass, PfClass::L2);
    EXPECT_EQ(out.prefetchPc, 0x999u);
}

TEST(Hierarchy, RedundantL2PrefetchSquashed)
{
    Hierarchy h(tinyConfig());
    EXPECT_TRUE(h.prefetchL2(0x1, 0x88, 0));
    EXPECT_FALSE(h.prefetchL2(0x1, 0x88, 10));
    EXPECT_EQ(h.l2PrefetchesIssued(), 1u);
}

TEST(Hierarchy, L1PrefetchReportsL2Observation)
{
    Hierarchy h(tinyConfig());
    auto out = h.prefetchL1(0x2, 0x55, 0);
    EXPECT_TRUE(out.issued);
    EXPECT_TRUE(out.l2Accessed);
    EXPECT_FALSE(out.l2Hit);
    EXPECT_TRUE(h.l1().contains(0x55));
    EXPECT_TRUE(h.l2().contains(0x55));

    // Now that it's in L1, a repeat is redundant.
    auto again = h.prefetchL1(0x2, 0x55, 100);
    EXPECT_FALSE(again.issued);
}

TEST(Hierarchy, L1PrefetchHitInL2DoesNotTouchDram)
{
    Hierarchy h(tinyConfig());
    h.prefetchL2(0x1, 0x44, 0);
    auto before = h.dram().stats().reads;
    auto out = h.prefetchL1(0x2, 0x44, 100);
    EXPECT_TRUE(out.l2Hit);
    EXPECT_EQ(h.dram().stats().reads, before);
}

TEST(Hierarchy, PrefetchReadsCountedSeparately)
{
    Hierarchy h(tinyConfig());
    h.prefetchL2(0x1, 0x200, 0);
    h.access(0x400, 0x90000, false, 0);
    EXPECT_EQ(h.dram().stats().reads, 2u);
    EXPECT_EQ(h.dram().stats().prefetchReads, 1u);
}

TEST(Hierarchy, DirtyEvictionReachesDram)
{
    HierarchyConfig cfg = tinyConfig();
    Hierarchy h(cfg);
    // Write a line, then stream enough conflicting lines through the
    // whole hierarchy to force it out everywhere.
    h.access(0x400, 0x10000, true, 0);
    unsigned llc_sets = h.llc().numSets();
    for (unsigned i = 1; i <= 40; ++i)
        h.access(0x404, 0x10000 + i * llc_sets * kLineSize, false,
                 i * 10);
    EXPECT_GT(h.dram().stats().writes, 0u);
}

TEST(Hierarchy, StoreHitMarksLineDirty)
{
    Hierarchy h(tinyConfig());
    // A load fills the line clean; the store to it hits in the L1.
    const Addr target = 0x10000;
    h.access(0x400, target, false, 0);
    ASSERT_EQ(h.access(0x404, target, true, 1000).level, HitLevel::L1);
    // Force the line out of every level: only a dirty L1 copy
    // writes back, and the write-back reaches the L2, then the LLC,
    // then DRAM.
    unsigned llc_sets = h.llc().numSets();
    for (unsigned i = 1; i <= 40; ++i)
        h.access(0x408, target + i * llc_sets * kLineSize, false,
                 2000 + i * 10);
    EXPECT_EQ(h.l1().stats().writebacks, 1u);
    EXPECT_EQ(h.l2().stats().writebacks, 1u);
    EXPECT_EQ(h.llc().stats().writebacks, 1u);
    EXPECT_EQ(h.dram().stats().writes, 1u);
}

TEST(Hierarchy, LatePrefetchReported)
{
    Hierarchy h(tinyConfig());
    h.prefetchL2(0x9, 0x300, 0); // completes ~150+ cycles later
    auto out = h.access(0x400, 0x300 << kLineShift, false, 5);
    EXPECT_TRUE(out.prefetchUseful);
    EXPECT_TRUE(out.prefetchLate);
    EXPECT_GT(out.readyAt, 100u);
}

TEST(Hierarchy, TimelyPrefetchFullCredit)
{
    Hierarchy h(tinyConfig());
    h.prefetchL2(0x9, 0x300, 0);
    auto out = h.access(0x400, 0x300 << kLineShift, false, 5000);
    EXPECT_TRUE(out.prefetchUseful);
    EXPECT_FALSE(out.prefetchLate);
    // L1 miss + L2 hit latency only.
    EXPECT_LE(out.readyAt - 5000, 20u);
}

TEST(Hierarchy, ResetStatsClearsAllLevels)
{
    Hierarchy h(tinyConfig());
    h.access(0x1, 0x5000, false, 0);
    h.prefetchL2(0x2, 0x600, 0);
    h.resetStats();
    EXPECT_EQ(h.l1().stats().demandMisses, 0u);
    EXPECT_EQ(h.dram().stats().reads, 0u);
    EXPECT_EQ(h.l2PrefetchesIssued(), 0u);
}

} // anonymous namespace
} // namespace prophet::mem
