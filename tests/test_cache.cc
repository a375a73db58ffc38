/**
 * @file
 * Unit tests for the set-associative cache model: hits/misses,
 * prefetch-bit accounting, fill timing (late prefetches), way
 * reservation for the metadata partition, and writeback tracking.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "mem/cache.hh"

/**
 * Allocation counter: global operator new replacement so tests can
 * assert that the steady-state miss path performs zero heap
 * allocations (the eviction hot path uses pre-built candidate spans).
 */
namespace
{
std::atomic<std::uint64_t> g_heapAllocs{0};
} // anonymous namespace

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++g_heapAllocs;
    // aligned_alloc requires the size to be a multiple of alignment.
    std::size_t a = static_cast<std::size_t>(align);
    std::size_t size = ((n ? n : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace prophet::mem
{
namespace
{

CacheConfig
smallConfig()
{
    // 16 sets x 4 ways.
    return CacheConfig{"test", 16 * 4 * 64, 4, 2, 8, "lru"};
}

TEST(Cache, MissThenHit)
{
    Cache c(smallConfig());
    EXPECT_FALSE(c.lookupDemand(5, 0).hit);
    c.fill(5, 10, PfClass::None, kInvalidPC, false);
    auto r = c.lookupDemand(5, 20);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.readyAt, 22u); // cycle + hit latency
    EXPECT_EQ(c.stats().demandHits, 1u);
    EXPECT_EQ(c.stats().demandMisses, 1u);
}

TEST(Cache, InFlightFillPaysResidualLatency)
{
    Cache c(smallConfig());
    c.fill(5, 100, PfClass::L2, 0x400, false);
    auto r = c.lookupDemand(5, 50); // before the fill lands
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.wasLate);
    EXPECT_EQ(r.readyAt, 102u); // fill time + latency
    EXPECT_EQ(c.stats().latePrefetchHits, 1u);
}

TEST(Cache, PrefetchBitConsumedOnce)
{
    Cache c(smallConfig());
    c.fill(7, 0, PfClass::L2, 0x1234, false);
    auto first = c.lookupDemand(7, 10);
    EXPECT_TRUE(first.wasPrefetched);
    EXPECT_EQ(first.prefetchClass, PfClass::L2);
    EXPECT_EQ(first.prefetchPc, 0x1234u);
    auto second = c.lookupDemand(7, 20);
    EXPECT_FALSE(second.wasPrefetched);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(Cache, PrefetchClassDistinguishesL1FromL2)
{
    Cache c(smallConfig());
    c.fill(1, 0, PfClass::L1, 0x10, false);
    c.fill(2, 0, PfClass::L2, 0x20, false);
    EXPECT_EQ(c.lookupDemand(1, 5).prefetchClass, PfClass::L1);
    EXPECT_EQ(c.lookupDemand(2, 5).prefetchClass, PfClass::L2);
}

TEST(Cache, EvictionReportsDirtyLine)
{
    Cache c(smallConfig());
    // Fill one set (addresses congruent mod 16) to capacity.
    c.fill(0, 0, PfClass::None, kInvalidPC, true); // dirty
    c.fill(16, 0, PfClass::None, kInvalidPC, false);
    c.fill(32, 0, PfClass::None, kInvalidPC, false);
    c.fill(48, 0, PfClass::None, kInvalidPC, false);
    auto ev = c.fill(64, 0, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u); // LRU victim
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, UnusedPrefetchEvictionCounted)
{
    Cache c(smallConfig());
    c.fill(0, 0, PfClass::L2, 0x1, false);
    for (Addr a = 16; a <= 64; a += 16)
        c.fill(a, 0, PfClass::None, kInvalidPC, false);
    EXPECT_EQ(c.stats().unusedPrefetchEvictions, 1u);
}

TEST(Cache, RefillMergesDirtyState)
{
    Cache c(smallConfig());
    c.fill(3, 0, PfClass::None, kInvalidPC, false);
    c.fill(3, 0, PfClass::None, kInvalidPC, true);
    for (Addr a = 3 + 16; a <= 3 + 64; a += 16)
        c.fill(a, 0, PfClass::None, kInvalidPC, false);
    // Line 3 must have been evicted dirty.
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, RefillMergesEarlierReadyTime)
{
    Cache c(smallConfig());
    // A prefetch lands the line at cycle 100; a second (e.g. demand)
    // fill of the same line arrives earlier, at cycle 50. The line
    // must take the earlier ready time, or demands between 50 and
    // 100 would keep paying the stale later timestamp.
    c.fill(5, 100, PfClass::L2, 0x400, false);
    c.fill(5, 50, PfClass::None, kInvalidPC, false);
    auto r = c.lookupDemand(5, 60);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.wasLate);
    EXPECT_EQ(r.readyAt, 62u); // cycle + hit latency
}

TEST(Cache, RefillNeverDelaysReadyTime)
{
    Cache c(smallConfig());
    // The merge is one-directional: a refill with a *later* ready
    // time must not push back a line already (about to be) present.
    c.fill(5, 50, PfClass::None, kInvalidPC, false);
    c.fill(5, 100, PfClass::L2, 0x400, false);
    auto r = c.lookupDemand(5, 60);
    EXPECT_TRUE(r.hit);
    EXPECT_FALSE(r.wasLate);
}

TEST(Cache, SteadyStateMissPathDoesNotAllocate)
{
    for (const char *policy : {"lru", "plru", "srrip", "random"}) {
        CacheConfig cfg = smallConfig();
        cfg.replacement = policy;
        Cache c(cfg);
        // Warm every way of every set so each subsequent fill evicts.
        for (Addr a = 0; a < 16 * 4; ++a)
            c.fill(a, 0, PfClass::None, kInvalidPC, false);

        std::uint64_t before = g_heapAllocs.load();
        Cycle cycle = 0;
        for (Addr a = 16 * 4; a < 16 * 4 + 512; ++a) {
            auto miss = c.lookupDemand(a, cycle);
            ASSERT_FALSE(miss.hit);
            auto ev = c.fill(a, cycle + 30, PfClass::None,
                             kInvalidPC, false);
            ASSERT_TRUE(ev.valid); // every fill evicts a valid line
            ++cycle;
        }
        EXPECT_EQ(g_heapAllocs.load(), before)
            << "demand miss + eviction allocated under " << policy;
    }
}

TEST(Cache, MarkDirtyAndInvalidate)
{
    Cache c(smallConfig());
    c.fill(9, 0, PfClass::None, kInvalidPC, false);
    c.markDirty(9);
    auto ev = c.invalidate(9);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_FALSE(c.contains(9));
    EXPECT_FALSE(c.invalidate(9).valid);
}

TEST(Cache, ReservedWaysShrinkDemandCapacity)
{
    Cache c(smallConfig());
    EXPECT_EQ(c.effectiveBytes(), 16u * 4 * 64);
    c.setReservedWays(2);
    EXPECT_EQ(c.effectiveBytes(), 16u * 2 * 64);
    EXPECT_EQ(c.reservedWays(), 2u);
}

TEST(Cache, GrowingReservationInvalidatesLines)
{
    Cache c(smallConfig());
    // Fill ways 0..3 of set 0.
    for (Addr a = 0; a < 4 * 16; a += 16)
        c.fill(a, 0, PfClass::None, kInvalidPC, false);
    c.setReservedWays(3);
    // Only one demand way remains; at most one line can still hit.
    int hits = 0;
    for (Addr a = 0; a < 4 * 16; a += 16)
        if (c.contains(a))
            ++hits;
    EXPECT_LE(hits, 1);
}

TEST(Cache, ReservedWaysStillAllowFills)
{
    Cache c(smallConfig());
    c.setReservedWays(3);
    // One way left: every new fill in a set evicts the previous.
    c.fill(0, 0, PfClass::None, kInvalidPC, false);
    auto ev = c.fill(16, 0, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, 0u);
    EXPECT_TRUE(c.contains(16));
}

TEST(Cache, LookupPrefetchDoesNotPerturbStats)
{
    Cache c(smallConfig());
    c.fill(4, 0, PfClass::L2, 0x99, false);
    auto r = c.lookupPrefetch(4, 10);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(c.stats().demandHits, 0u);
    // The prefetch bit survives for the real demand.
    EXPECT_TRUE(c.lookupDemand(4, 20).wasPrefetched);
}

TEST(Cache, SetIndexingSeparatesSets)
{
    Cache c(smallConfig());
    // Same tag bits, different sets: both must coexist.
    c.fill(0, 0, PfClass::None, kInvalidPC, false);
    c.fill(1, 0, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(1));
}

TEST(Cache, StatsResetKeepsContents)
{
    Cache c(smallConfig());
    c.fill(2, 0, PfClass::None, kInvalidPC, false);
    c.lookupDemand(2, 5);
    c.resetStats();
    EXPECT_EQ(c.stats().demandHits, 0u);
    EXPECT_TRUE(c.contains(2));
}

TEST(Cache, FillTakesLowestInvalidDemandWay)
{
    // Ways 0-1 are reserved (their invalid tags must never take a
    // fill); invalidate() opens holes at way 3 and the last way.
    // Fills take the lowest hole first, which the reservation growth
    // at the end reveals: it drops ways 2-3 and keeps the rest. With
    // 6 ways the upper hole sits in the scan's scalar tail, with 8
    // in its second vector compare.
    for (unsigned assoc : {6u, 8u}) {
        SCOPED_TRACE(testing::Message() << "assoc " << assoc);
        Cache c(CacheConfig{"test", 16 * assoc * 64, assoc, 2, 8,
                            "lru"});
        c.setReservedWays(2);
        const unsigned demand = assoc - 2;
        // Set 0: line i fills way 2 + i.
        std::vector<Addr> line;
        for (unsigned i = 0; i < demand; ++i) {
            line.push_back(16 * (i + 1));
            EXPECT_FALSE(c.fill(line[i], 0, PfClass::None, kInvalidPC,
                                false)
                             .valid);
            EXPECT_TRUE(c.contains(line[i]));
        }
        ASSERT_TRUE(c.invalidate(line[1]).valid);          // way 3
        ASSERT_TRUE(c.invalidate(line[demand - 1]).valid); // last

        const Addr low = 16 * 100, high = 16 * 101, next = 16 * 102;
        EXPECT_FALSE(
            c.fill(low, 0, PfClass::None, kInvalidPC, false).valid);
        EXPECT_FALSE(
            c.fill(high, 0, PfClass::None, kInvalidPC, false).valid);
        // No hole is left: the next fill evicts the LRU line, line 0
        // in way 2.
        auto ev = c.fill(next, 0, PfClass::None, kInvalidPC, false);
        EXPECT_TRUE(ev.valid);
        EXPECT_EQ(ev.lineAddr, line[0]);

        // Growing the reservation to 4 drops ways 2 and 3: `next`
        // (way 2) and `low` (way 3, the lower hole). `high` took the
        // last way and survives with lines 2 to demand - 2.
        c.setReservedWays(4);
        EXPECT_FALSE(c.contains(next));
        EXPECT_FALSE(c.contains(low));
        EXPECT_TRUE(c.contains(high));
        for (unsigned i = 2; i + 1 < demand; ++i)
            EXPECT_TRUE(c.contains(line[i])) << "line " << i;

        // The demand ways are full again, so the next fill evicts the
        // LRU survivor: line 2, filled before `high`.
        ev = c.fill(16 * 103, 0, PfClass::None, kInvalidPC, false);
        EXPECT_TRUE(ev.valid);
        EXPECT_EQ(ev.lineAddr, line[2]);
    }
}

} // anonymous namespace
} // namespace prophet::mem
