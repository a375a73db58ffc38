/**
 * @file
 * Unit tests for the set-associative cache model: hits/misses,
 * prefetch-bit accounting, fill timing (late prefetches), way
 * reservation for the metadata partition, writeback tracking, and
 * the per-set LRU and tree-PLRU words against a reference model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"

/**
 * Allocation counter: global operator new replacement so tests can
 * assert that the steady-state miss path performs zero heap
 * allocations (a victim is read from the set's replacement word).
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

// Not inlined: gcc would otherwise see the free() of an inlined
// delete beside a std::vector's operator new and report a
// -Wmismatched-new-delete pairing that the replacements make valid.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
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
    for (const char *policy : {"lru", "plru"}) {
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

TEST(Cache, TreePlruProtectsRecentlyTouched)
{
    // One set of four ways: after line 2 is touched, the tree points
    // away from its way, so the next fill evicts another line.
    Cache c(CacheConfig{"test", 4 * 64, 4, 2, 8, "plru"});
    for (Addr a = 0; a < 4; ++a)
        c.fill(a, 0, PfClass::None, kInvalidPC, false);
    ASSERT_TRUE(c.lookupDemand(2, 10).hit);
    auto ev = c.fill(4, 20, PfClass::None, kInvalidPC, false);
    EXPECT_TRUE(ev.valid);
    EXPECT_NE(ev.lineAddr, 2u);
    EXPECT_TRUE(c.contains(2));
}

TEST(CacheDeathTest, RejectsUnsupportedReplacement)
{
    const CacheConfig srrip{"test", 16 * 4 * 64, 4, 2, 8, "srrip"};
    EXPECT_EXIT({ Cache c(srrip); }, ::testing::ExitedWithCode(1),
                "unknown cache replacement policy");
    const CacheConfig wide{"test", 32 * 64, 32, 2, 8, "lru"};
    EXPECT_EXIT({ Cache c(wide); }, ::testing::ExitedWithCode(1),
                "1 to 16 ways");
    const CacheConfig six{"test", 6 * 64, 6, 2, 8, "plru"};
    EXPECT_EXIT({ Cache c(six); }, ::testing::ExitedWithCode(1),
                "power-of-two");
}

TEST(CacheDeathTest, TreePlruReservesNoWays)
{
    // Only the LRU LLC partitions its ways for metadata; a tree-PLRU
    // victim walk has no demand-way restriction to honour.
    Cache c(CacheConfig{"test", 16 * 4 * 64, 4, 2, 8, "plru"});
    EXPECT_DEATH(c.setReservedWays(1), "!plru");
}

/**
 * Reference model for the packed per-set words: a tag per way, fills
 * into the lowest invalid demand way, and either timestamp LRU (the
 * least recently touched demand way, the lowest on a tie) or
 * tree-PLRU with one byte per node. It is each policy in its plain
 * form, which the words must reproduce exactly.
 */
class ReferenceCache
{
  public:
    static constexpr Addr kNone = ~static_cast<Addr>(0);

    ReferenceCache(unsigned sets, unsigned assoc, bool plru)
        : sets(sets), assoc(assoc), plru(plru),
          tags(sets * assoc, kNone), stamps(sets * assoc, 0),
          nodes(sets * assoc, 0)
    {}

    /** A demand or prefetch lookup: a hit touches the line. */
    bool
    lookup(Addr line)
    {
        const int way = find(line);
        if (way >= 0)
            touch(setOf(line), static_cast<unsigned>(way));
        return way >= 0;
    }

    bool contains(Addr line) const { return find(line) >= 0; }

    /** Install @p line; returns the line it evicted, or kNone. */
    Addr
    fill(Addr line)
    {
        const unsigned set = setOf(line);
        if (const int present = find(line); present >= 0) {
            touch(set, static_cast<unsigned>(present));
            return kNone;
        }
        unsigned way = reserved;
        while (way < assoc && tags[set * assoc + way] != kNone)
            ++way;
        Addr evicted = kNone;
        if (way == assoc) {
            way = victim(set);
            evicted = tags[set * assoc + way];
        }
        tags[set * assoc + way] = line;
        touch(set, way);
        return evicted;
    }

    bool
    invalidate(Addr line)
    {
        const int way = find(line);
        if (way < 0)
            return false;
        tags[setOf(line) * assoc + static_cast<unsigned>(way)] = kNone;
        return true;
    }

    void
    setReserved(unsigned ways)
    {
        for (unsigned set = 0; set < sets; ++set)
            for (unsigned w = reserved; w < ways; ++w)
                tags[set * assoc + w] = kNone;
        reserved = ways;
    }

  private:
    unsigned sets, assoc;
    bool plru;
    unsigned reserved = 0;
    std::uint64_t clock = 0;
    std::vector<Addr> tags;
    std::vector<std::uint64_t> stamps;
    std::vector<std::uint8_t> nodes; ///< assoc - 1 used per set

    unsigned setOf(Addr line) const
    {
        return static_cast<unsigned>(line & (sets - 1));
    }

    int
    find(Addr line) const
    {
        const unsigned set = setOf(line);
        for (unsigned w = reserved; w < assoc; ++w)
            if (tags[set * assoc + w] == line)
                return static_cast<int>(w);
        return -1;
    }

    void
    touch(unsigned set, unsigned way)
    {
        stamps[set * assoc + way] = ++clock;
        // Walk from the root, pointing each node at the other half.
        unsigned node = 0, lo = 0, hi = assoc;
        while (hi - lo > 1) {
            const unsigned mid = (lo + hi) / 2;
            const bool right = way >= mid;
            nodes[set * assoc + node] = right ? 0 : 1;
            node = 2 * node + (right ? 2 : 1);
            (right ? lo : hi) = mid;
        }
    }

    unsigned
    victim(unsigned set) const
    {
        if (plru) {
            unsigned node = 0, lo = 0, hi = assoc;
            while (hi - lo > 1) {
                const unsigned mid = (lo + hi) / 2;
                const bool right = nodes[set * assoc + node] != 0;
                node = 2 * node + (right ? 2 : 1);
                (right ? lo : hi) = mid;
            }
            return lo;
        }
        unsigned best = reserved;
        for (unsigned w = reserved + 1; w < assoc; ++w)
            if (stamps[set * assoc + w] < stamps[set * assoc + best])
                best = w;
        return best;
    }
};

TEST(Cache, PackedReplacementMatchesReference)
{
    // A seeded mix of demand and prefetch lookups, fills (a demand
    // miss's own fill, prefetch fills, refills), invalidations and,
    // for LRU, reservation changes, over twice as many lines as the
    // cache holds: every hit, miss and eviction must match.
    for (const char *policy : {"lru", "plru"}) {
        for (unsigned assoc : {4u, 8u, 16u}) {
            SCOPED_TRACE(testing::Message() << policy << " " << assoc
                                            << "-way");
            const bool plru = std::string(policy) == "plru";
            const unsigned sets = 4;
            Cache c(CacheConfig{"test", sets * assoc * 64, assoc, 2, 8,
                                policy});
            ReferenceCache ref(sets, assoc, plru);
            Rng rng(0xcace + assoc);
            std::uint64_t evictions = 0;
            auto same_eviction = [&](const Eviction &ev, Addr want,
                                     int step) {
                ASSERT_EQ(ev.valid, want != ReferenceCache::kNone)
                    << "step " << step;
                if (ev.valid) {
                    ASSERT_EQ(ev.lineAddr, want) << "step " << step;
                    ++evictions;
                }
            };
            for (int step = 0; step < 20000; ++step) {
                const Addr line = rng.below(2 * sets * assoc);
                const Cycle cycle = static_cast<Cycle>(step);
                const auto op = rng.below(100);
                if (op < 40) {
                    const bool hit = c.lookupDemand(line, cycle).hit;
                    ASSERT_EQ(hit, ref.lookup(line)) << "step " << step;
                    if (!hit)
                        same_eviction(c.fill(line, cycle + 30,
                                             PfClass::None, kInvalidPC,
                                             false),
                                      ref.fill(line), step);
                } else if (op < 55) {
                    ASSERT_EQ(c.lookupPrefetch(line, cycle).hit,
                              ref.lookup(line))
                        << "step " << step;
                } else if (op < 80) {
                    same_eviction(c.fill(line, cycle + 30, PfClass::L2,
                                         0x400, rng.chance(0.2)),
                                  ref.fill(line), step);
                } else if (op < 90) {
                    ASSERT_EQ(c.invalidate(line).valid,
                              ref.invalidate(line))
                        << "step " << step;
                } else if (op < 99 || plru) {
                    ASSERT_EQ(c.contains(line), ref.contains(line))
                        << "step " << step;
                } else {
                    const auto ways =
                        static_cast<unsigned>(rng.below(assoc));
                    c.setReservedWays(ways);
                    ref.setReserved(ways);
                }
            }
            EXPECT_GT(evictions, 2000u);
        }
    }
}

} // anonymous namespace
} // namespace prophet::mem
