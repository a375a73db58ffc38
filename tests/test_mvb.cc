/**
 * @file
 * Unit tests for the Multi-path Victim Buffer (Section 4.5):
 * priority-gated insertion, alternative-target lookup, counter-based
 * replacement, and candidate capacity (Figure 16(c)).
 */

#include <gtest/gtest.h>

#include "core/mvb.hh"

namespace prophet::core
{
namespace
{

pf::MarkovTable::Entry
entry(Addr key, Addr target, std::uint8_t priority)
{
    pf::MarkovTable::Entry e;
    e.key = key;
    e.target = target;
    e.priority = priority;
    e.valid = true;
    return e;
}

TEST(Mvb, RejectsPriorityZeroVictims)
{
    // Insertion rule: only targets with priority > 0 (acc > EL_ACC)
    // deserve buffer space.
    MultiPathVictimBuffer mvb(64, 1);
    mvb.offer(entry(100, 200, 0));
    EXPECT_EQ(mvb.stats().inserts, 0u);
    EXPECT_EQ(mvb.stats().rejectedLowPriority, 1u);
    std::vector<Addr> out;
    mvb.lookup(100, kInvalidAddr, out);
    EXPECT_TRUE(out.empty());
}

TEST(Mvb, StoresAndReturnsDisplacedTarget)
{
    MultiPathVictimBuffer mvb(64, 1);
    mvb.offer(entry(100, 200, 2));
    std::vector<Addr> out;
    mvb.lookup(100, kInvalidAddr, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 200u);
    EXPECT_EQ(mvb.stats().hits, 1u);
}

TEST(Mvb, ExcludesTableTarget)
{
    // Figure 9: the table already supplies C; the MVB must only add
    // *different* Markov targets (D).
    MultiPathVictimBuffer mvb(64, 2);
    mvb.offer(entry(100, 200, 2));
    std::vector<Addr> out;
    mvb.lookup(100, 200, out); // 200 is what the table returned
    EXPECT_TRUE(out.empty());
}

TEST(Mvb, MultiplePathsPerKey)
{
    MultiPathVictimBuffer mvb(64, 2);
    mvb.offer(entry(100, 200, 2));
    mvb.offer(entry(100, 300, 2));
    std::vector<Addr> out;
    mvb.lookup(100, kInvalidAddr, out);
    EXPECT_EQ(out.size(), 2u);
}

TEST(Mvb, CandidateCapEnforced)
{
    // candidates = 1: a key keeps at most one buffered target.
    MultiPathVictimBuffer mvb(64, 1);
    mvb.offer(entry(100, 200, 2));
    mvb.offer(entry(100, 300, 2));
    std::vector<Addr> out;
    mvb.lookup(100, kInvalidAddr, out);
    EXPECT_EQ(out.size(), 1u);
}

TEST(Mvb, DuplicateOfferRefreshesCounter)
{
    MultiPathVictimBuffer mvb(64, 2);
    mvb.offer(entry(100, 200, 2));
    mvb.offer(entry(100, 200, 2));
    EXPECT_EQ(mvb.stats().inserts, 1u); // no duplicate slot
}

TEST(Mvb, FrequentlyUsedTargetSurvivesReplacement)
{
    // One set of 4 ways shared by aliasing keys: the target whose
    // counter is highest must be retained preferentially.
    MultiPathVictimBuffer mvb(4, 1); // single set
    mvb.offer(entry(10, 111, 2));
    // Pump its counter.
    std::vector<Addr> out;
    for (int i = 0; i < 4; ++i) {
        out.clear();
        mvb.lookup(10, kInvalidAddr, out);
    }
    // Now flood the set with other keys.
    mvb.offer(entry(20, 222, 2));
    mvb.offer(entry(30, 333, 2));
    mvb.offer(entry(40, 444, 2));
    mvb.offer(entry(50, 555, 2)); // must evict a low-counter slot
    out.clear();
    mvb.lookup(10, kInvalidAddr, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 111u);
}

TEST(Mvb, InvalidVictimIgnored)
{
    MultiPathVictimBuffer mvb(64, 1);
    pf::MarkovTable::Entry e; // invalid
    mvb.offer(e);
    EXPECT_EQ(mvb.stats().inserts, 0u);
}

TEST(Mvb, StorageBitsPerPaper)
{
    // 65,536 entries x 43 bits = 344 KB (Section 5.10).
    MultiPathVictimBuffer mvb(65536, 1);
    EXPECT_EQ(mvb.storageBits(), 65536ull * 43);
    EXPECT_NEAR(static_cast<double>(mvb.storageBits()) / 8 / 1024,
                344.0, 1.0);
}

TEST(Mvb, LookupCountsExtraTargets)
{
    MultiPathVictimBuffer mvb(64, 2);
    mvb.offer(entry(7, 70, 1));
    mvb.offer(entry(7, 71, 1));
    std::vector<Addr> out;
    mvb.lookup(7, 70, out);
    EXPECT_EQ(out.size(), 1u); // 70 excluded, 71 returned
    EXPECT_EQ(mvb.stats().extraTargets, 1u);
}

} // anonymous namespace
} // namespace prophet::core
