/**
 * @file
 * Unit tests for the LLC-resident metadata (Markov) table:
 * insert/lookup/update semantics, way-partition capacity, priority-
 * aware victim filtering (Prophet replacement), the eviction
 * callback feeding the Multi-path Victim Buffer, and resizing; plus
 * a randomized differential test of the way scan against a std::map
 * and fingerprint-collision cases.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <vector>

#include "mem/replacement.hh"
#include "prefetch/markov_table.hh"

namespace prophet::pf
{
namespace
{

MarkovTable
smallTable(unsigned sets = 4, unsigned ways = 1)
{
    return MarkovTable(sets, ways,
                       std::make_unique<mem::LruPolicy>());
}

TEST(MarkovTable, InsertThenLookup)
{
    auto t = smallTable();
    t.insert(100, 200, 0);
    auto target = t.lookup(100);
    ASSERT_TRUE(target.has_value());
    EXPECT_EQ(*target, 200u);
    EXPECT_EQ(t.stats().hits, 1u);
    EXPECT_EQ(t.stats().inserts, 1u);
}

TEST(MarkovTable, MissOnAbsentKey)
{
    auto t = smallTable();
    EXPECT_FALSE(t.lookup(7).has_value());
    EXPECT_EQ(t.stats().lookups, 1u);
    EXPECT_EQ(t.stats().hits, 0u);
}

TEST(MarkovTable, UpdateOverwritesTarget)
{
    auto t = smallTable();
    t.insert(100, 200, 0);
    t.insert(100, 300, 0);
    EXPECT_EQ(*t.peek(100), 300u);
    EXPECT_EQ(t.stats().inserts, 1u);
    EXPECT_EQ(t.stats().updates, 1u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(MarkovTable, SameTargetReinsertIsNotAnUpdate)
{
    auto t = smallTable();
    t.insert(100, 200, 0);
    t.insert(100, 200, 0);
    EXPECT_EQ(t.stats().updates, 0u);
}

TEST(MarkovTable, CapacityMatchesGeometry)
{
    MarkovTable t(2048, 8, std::make_unique<mem::SrripPolicy>());
    // 2048 sets x 8 ways x 12 entries/line = 196,608 entries = 1 MB,
    // the paper's maximum (Section 5.10).
    EXPECT_EQ(t.capacityEntries(), 196608u);
}

TEST(MarkovTable, EvictionCallbackOnReplacement)
{
    auto t = smallTable(1, 1); // 12 entries total
    std::vector<MarkovTable::Entry> evicted;
    t.setEvictionCallback([&](const MarkovTable::Entry &e) {
        evicted.push_back(e);
    });
    for (Addr k = 0; k < 13; ++k)
        t.insert(k * 1000 + 1, k, static_cast<std::uint8_t>(1));
    EXPECT_EQ(t.stats().replacements, 1u);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_TRUE(evicted[0].valid);
}

TEST(MarkovTable, EvictionCallbackOnTargetOverwrite)
{
    auto t = smallTable();
    std::vector<MarkovTable::Entry> displaced;
    t.setEvictionCallback([&](const MarkovTable::Entry &e) {
        displaced.push_back(e);
    });
    t.insert(100, 200, 2);
    t.insert(100, 300, 2); // displaces target 200
    ASSERT_EQ(displaced.size(), 1u);
    EXPECT_EQ(displaced[0].key, 100u);
    EXPECT_EQ(displaced[0].target, 200u);
}

TEST(MarkovTable, PriorityAwareVictimFiltering)
{
    // One set, 12 entries. Fill with high priority except one low-
    // priority entry; the next insert must evict the low one.
    auto t = smallTable(1, 1);
    t.setPriorityAware(true);
    for (Addr k = 0; k < 11; ++k)
        t.insert(0x1000 + k * 64, k, 3);
    t.insert(0x9999, 7, 1); // the only low-priority entry
    // Touch the low-priority entry so pure LRU would protect it.
    t.lookup(0x9999);
    t.insert(0xabcd, 8, 3); // forces a replacement
    EXPECT_FALSE(t.peek(0x9999).has_value());
    // All high-priority entries survive.
    for (Addr k = 0; k < 11; ++k)
        EXPECT_TRUE(t.peek(0x1000 + k * 64).has_value());
}

TEST(MarkovTable, WithoutPriorityAwarenessLruWins)
{
    auto t = smallTable(1, 1);
    t.setPriorityAware(false);
    for (Addr k = 0; k < 12; ++k)
        t.insert(0x1000 + k * 64, k, 0);
    // Refresh everything except the first entry.
    for (Addr k = 1; k < 12; ++k)
        t.lookup(0x1000 + k * 64);
    t.insert(0xabcd, 99, 0);
    EXPECT_FALSE(t.peek(0x1000).has_value());
}

TEST(MarkovTable, PriorityRecorded)
{
    auto t = smallTable();
    t.insert(100, 200, 3);
    auto p = t.priorityOf(100);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 3u);
}

TEST(MarkovTable, ShrinkDropsEntriesBeyondCapacity)
{
    MarkovTable t(4, 2, std::make_unique<mem::LruPolicy>());
    for (Addr k = 0; k < 150; ++k)
        t.insert(k * 131 + 7, k, 0);
    std::uint64_t before = t.size();
    t.setAllocatedWays(1);
    EXPECT_LT(t.size(), before);
    EXPECT_GT(t.stats().resizeDrops, 0u);
    EXPECT_EQ(t.allocatedWays(), 1u);
    EXPECT_EQ(t.capacityEntries(), 4u * 12);
}

TEST(MarkovTable, ZeroWaysDisablesTable)
{
    auto t = smallTable();
    t.setAllocatedWays(0);
    t.insert(1, 2, 0);
    EXPECT_FALSE(t.lookup(1).has_value());
    EXPECT_EQ(t.size(), 0u);
    // Re-enable.
    t.setAllocatedWays(1);
    t.insert(1, 2, 0);
    EXPECT_TRUE(t.lookup(1).has_value());
}

TEST(MarkovTable, AllocatedEntriesCounter)
{
    auto t = smallTable(1, 1);
    for (Addr k = 0; k < 12; ++k)
        t.insert(0x2000 + k * 64, k, 0);
    EXPECT_EQ(t.stats().allocatedEntries(), 12u);
    t.insert(0x9000, 1, 0); // replacement
    // Insertions - replacements stays at live size (Section 4.1).
    EXPECT_EQ(t.stats().allocatedEntries(), 12u);
    EXPECT_EQ(t.stats().allocatedEntries(), t.size());
}

TEST(MarkovTable, ClearInvalidatesEverything)
{
    auto t = smallTable();
    t.insert(1, 2, 0);
    t.insert(3, 4, 0);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_FALSE(t.peek(1).has_value());
}

TEST(MarkovTable, PeekDoesNotTouchReplacement)
{
    auto t = smallTable(1, 1);
    for (Addr k = 0; k < 12; ++k)
        t.insert(0x3000 + k * 64, k, 0);
    // Peeking the oldest entry must not rescue it from LRU eviction.
    t.peek(0x3000);
    t.insert(0x7777, 9, 0);
    EXPECT_FALSE(t.peek(0x3000).has_value());
}

TEST(MarkovTable, ChainsComposable)
{
    auto t = smallTable(16, 2);
    // Store A->B->C->D and follow the chain.
    t.insert(10, 20, 0);
    t.insert(20, 30, 0);
    t.insert(30, 40, 0);
    Addr cur = 10;
    std::vector<Addr> chain;
    for (int d = 0; d < 3; ++d) {
        auto n = t.lookup(cur);
        ASSERT_TRUE(n.has_value());
        chain.push_back(*n);
        cur = *n;
    }
    EXPECT_EQ(chain, (std::vector<Addr>{20, 30, 40}));
}

/**
 * Random inserts, updates, lookups, peeks and clears on each
 * geometry, checked op by op against a std::map. The eviction
 * callback erases a replaced key from the reference (a target
 * overwrite keeps its key), so the map stays exact once sets fill
 * and the replacement policy picks victims. maxWays 1 and 3 give
 * 12- and 36-slot sets, which are not multiples of the scan's
 * 8-wide loads.
 */
TEST(MarkovTable, DifferentialAgainstMap)
{
    for (unsigned max_ways : {1u, 3u, 8u}) {
        for (bool aware : {false, true}) {
            SCOPED_TRACE(testing::Message() << "maxWays " << max_ways
                                            << " aware " << aware);
            constexpr unsigned kSets = 4;
            MarkovTable t(kSets, max_ways,
                          std::make_unique<mem::SrripPolicy>());
            t.setPriorityAware(aware);
            std::map<Addr, Addr> ref;
            Addr inserting = kInvalidAddr;
            t.setEvictionCallback([&](const MarkovTable::Entry &e) {
                if (e.key != inserting)
                    ref.erase(e.key);
            });

            std::mt19937_64 rng(max_ways * 2 + aware);
            // A key pool about 1.5x the capacity: lookups both hit
            // and miss, and sets overflow.
            std::vector<Addr> pool;
            const std::uint64_t cap = t.capacityEntries();
            for (std::uint64_t i = 0; i < cap * 3 / 2; ++i)
                pool.push_back(rng() >> 24); // 40-bit line addresses
            std::uint64_t ref_hits = 0;
            unsigned clears = 0;
            for (int op = 0; op < 40000; ++op) {
                const Addr key = pool[rng() % pool.size()];
                const unsigned kind = rng() % 10000;
                if (kind < 4500) {
                    const Addr target = rng() >> 24;
                    inserting = key;
                    t.insert(key, target,
                             static_cast<std::uint8_t>(rng() % 4));
                    inserting = kInvalidAddr;
                    ref[key] = target;
                } else if (kind < 9998) {
                    auto it = ref.find(key);
                    std::optional<Addr> want;
                    if (it != ref.end())
                        want = it->second;
                    if (kind < 7500) {
                        ref_hits += want.has_value();
                        ASSERT_EQ(t.lookup(key), want) << "op " << op;
                    } else {
                        ASSERT_EQ(t.peek(key), want) << "op " << op;
                    }
                } else {
                    t.clear();
                    ref.clear();
                    ++clears;
                }
                ASSERT_EQ(t.size(), ref.size()) << "op " << op;
            }
            EXPECT_EQ(t.stats().hits, ref_hits);
            EXPECT_GT(t.stats().replacements, 0u);
            EXPECT_GT(clears, 0u);
        }
    }
}

/**
 * Keys (a << 16) | (a ^ c) fold to the fingerprint c, and with one
 * set every key lands in set 0: the scan must verify each fingerprint
 * hit against the full key. With c the fingerprint of kInvalidAddr,
 * the invalid slots and the padding after the last set match too, so
 * only the valid-prefix bound keeps the scan inside the set.
 */
TEST(MarkovTable, FingerprintCollisionsResolveByFullKey)
{
    const Addr invalid_fp = MarkovTable::fingerprint(kInvalidAddr);
    for (unsigned max_ways : {1u, 3u}) {
        for (Addr c : {Addr{0x5a5a}, invalid_fp}) {
            SCOPED_TRACE(testing::Message() << "maxWays " << max_ways
                                            << " fp " << c);
            MarkovTable t(1, max_ways,
                          std::make_unique<mem::LruPolicy>());
            const unsigned slots = max_ways * kEntriesPerLine;
            auto colliding = [c](Addr a) { return (a << 16) | (a ^ c); };
            for (Addr a = 1; a <= slots + 1; ++a)
                ASSERT_EQ(MarkovTable::fingerprint(colliding(a)), c);

            // Fill the set exactly: no replacement.
            for (Addr a = 1; a <= slots; ++a)
                t.insert(colliding(a), 1000 + a, 0);
            ASSERT_EQ(t.size(), slots);
            ASSERT_EQ(t.stats().replacements, 0u);
            for (Addr a = 1; a <= slots; ++a) {
                auto got = t.lookup(colliding(a));
                ASSERT_TRUE(got.has_value()) << "key " << a;
                EXPECT_EQ(*got, 1000 + a);
            }
            // A colliding key that was never inserted misses.
            EXPECT_FALSE(t.lookup(colliding(slots + 1)).has_value());
            EXPECT_FALSE(t.peek(colliding(slots + 1)).has_value());
            EXPECT_EQ(t.stats().hits, slots);

            // A half-full set: the scan stops at its valid prefix.
            t.clear();
            for (Addr a = 1; a <= slots / 2; ++a)
                t.insert(colliding(a), 2000 + a, 0);
            for (Addr a = 1; a <= slots / 2; ++a)
                EXPECT_EQ(t.peek(colliding(a)), 2000 + a);
            EXPECT_FALSE(t.peek(colliding(slots)).has_value());
        }
    }
}

} // anonymous namespace
} // namespace prophet::pf
