/**
 * @file
 * Unit tests for the Prophet prefetcher (Figure 4): hint-driven
 * insertion filtering, priority recording, CSR-driven resizing and
 * the disable path, MVB integration, feature-flag ablation, and the
 * simplified configuration Step 1 profiles under (Section 3.2).
 */

#include <gtest/gtest.h>

#include "core/prophet.hh"

namespace prophet::core
{
namespace
{

ProphetConfig
tinyConfig()
{
    ProphetConfig cfg;
    cfg.degree = 4;
    cfg.numSets = 64;
    cfg.maxWays = 4;
    cfg.mvbEntries = 256;
    cfg.mvbCandidates = 1;
    return cfg;
}

/** The simplified temporal prefetcher of Section 3.2, as System
 *  builds it for the profiling pass: degree 1, every feature off. */
ProphetConfig
simplifiedConfig()
{
    ProphetConfig cfg = tinyConfig();
    cfg.degree = 1;
    cfg.features = ProphetFeatures{false, false, false, false};
    return cfg;
}

OptimizedBinary
binaryWith(std::initializer_list<std::pair<PC, Hint>> hints,
           unsigned ways = 4, bool disabled = false)
{
    OptimizedBinary bin;
    for (const auto &[pc, h] : hints)
        bin.hints.install(pc, h);
    bin.csr.prophetEnabled = true;
    bin.csr.metadataWays = ways;
    bin.csr.temporalDisabled = disabled;
    return bin;
}

std::vector<pf::PrefetchRequest>
observe(ProphetPrefetcher &pf, PC pc, Addr line, bool l2_hit = false)
{
    std::vector<pf::PrefetchRequest> out;
    pf.observe(pc, line, l2_hit, 0, out);
    return out;
}

TEST(Prophet, LearnsAndPrefetchesLikeATemporalPrefetcher)
{
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{true, 3}}}));
    observe(pf, 1, 100);
    observe(pf, 1, 200);
    auto out = observe(pf, 1, 100);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0].lineAddr, 200u);
}

TEST(Prophet, CondemnedPcFullyDiscarded)
{
    // "Prophet instructs the temporal prefetcher to discard all
    // demand requests associated with that PC": no training, no
    // prediction.
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{false, 0}},
                                     {2, Hint{true, 3}}}));
    observe(pf, 1, 100);
    observe(pf, 1, 200);
    EXPECT_EQ(pf.markovTable().stats().inserts, 0u);
    EXPECT_EQ(pf.markovTable().stats().lookups, 0u);

    // Another PC teaches the same correlation; the condemned PC
    // still never predicts from it.
    observe(pf, 2, 100);
    observe(pf, 2, 200);
    auto out = observe(pf, 1, 100);
    EXPECT_TRUE(out.empty());
}

TEST(Prophet, PriorityFromHintRecordedInTable)
{
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{true, 2}}}));
    observe(pf, 1, 100);
    observe(pf, 1, 200);
    auto p = pf.markovTable().priorityOf(100);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 2u);
}

TEST(Prophet, UnhintedPcInsertsAtLowestPriority)
{
    ProphetPrefetcher pf(tinyConfig(), binaryWith({}));
    observe(pf, 9, 100);
    observe(pf, 9, 200);
    auto p = pf.markovTable().priorityOf(100);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, 0u);
}

TEST(Prophet, CsrResizesTableAtConstruction)
{
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{true, 3}}}, 2));
    EXPECT_EQ(pf.metadataWays(), 2u);
}

TEST(Prophet, CsrDisableTurnsTemporalOff)
{
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{true, 3}}}, 0, true));
    EXPECT_EQ(pf.metadataWays(), 0u);
    observe(pf, 1, 100);
    observe(pf, 1, 200);
    auto out = observe(pf, 1, 100);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.markovTable().stats().inserts, 0u);
}

TEST(Prophet, ResizingFeatureOffIgnoresCsr)
{
    ProphetConfig cfg = tinyConfig();
    cfg.features.resizing = false;
    ProphetPrefetcher pf(cfg, binaryWith({}, 1));
    EXPECT_EQ(pf.metadataWays(), cfg.maxWays);
}

TEST(Prophet, InsertionFeatureOffIgnoresCondemnation)
{
    ProphetConfig cfg = tinyConfig();
    cfg.features.insertion = false;
    ProphetPrefetcher pf(cfg, binaryWith({{1, Hint{false, 0}}}));
    observe(pf, 1, 100);
    observe(pf, 1, 200);
    EXPECT_GT(pf.markovTable().stats().inserts, 0u);
}

TEST(Prophet, AllFeaturesOffActsLikeTriage4)
{
    // The Figure 19 baseline: degree-4 chaining, no filtering, fixed
    // table size, SRRIP replacement.
    ProphetConfig cfg = tinyConfig();
    cfg.features = ProphetFeatures{false, false, false, false};
    ProphetPrefetcher pf(cfg, OptimizedBinary{});
    for (Addr a : {10, 20, 30, 40, 50})
        observe(pf, 1, a);
    auto out = observe(pf, 1, 10);
    EXPECT_EQ(out.size(), 4u); // full-depth chain
    EXPECT_EQ(pf.metadataWays(), cfg.maxWays);
}

TEST(Prophet, DegreeScalesWithPriority)
{
    // Fine-grained aggressiveness: a priority-0 PC chases depth 1,
    // a priority-3 PC the full configured degree.
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{true, 0}},
                                     {2, Hint{true, 3}}}));
    for (Addr a : {10, 20, 30, 40, 50})
        observe(pf, 1, a);
    auto low = observe(pf, 1, 10);
    EXPECT_EQ(low.size(), 1u);

    for (Addr a : {110, 120, 130, 140, 150})
        observe(pf, 2, a);
    auto high = observe(pf, 2, 110);
    EXPECT_EQ(high.size(), 4u);
}

TEST(Prophet, MvbSuppliesAlternativePath)
{
    // (A,B,C) and (A,B,D): after C is displaced by D, a lookup on B
    // prefetches both paths (Figure 9).
    ProphetPrefetcher pf(tinyConfig(),
                         binaryWith({{1, Hint{true, 3}}}));
    observe(pf, 1, 1); // A
    observe(pf, 1, 2); // B   (A->B)
    observe(pf, 1, 3); // C   (B->C)
    observe(pf, 1, 1); // back to A
    observe(pf, 1, 2); // B
    observe(pf, 1, 4); // D   (B->D, displacing C into the MVB)
    auto out = observe(pf, 1, 2);
    std::vector<Addr> addrs;
    for (const auto &r : out)
        addrs.push_back(r.lineAddr);
    EXPECT_NE(std::find(addrs.begin(), addrs.end(), 4u), addrs.end());
    EXPECT_NE(std::find(addrs.begin(), addrs.end(), 3u), addrs.end());
}

TEST(Prophet, MvbFeatureOffNoAlternatives)
{
    ProphetConfig cfg = tinyConfig();
    cfg.features.mvb = false;
    ProphetPrefetcher pf(cfg, binaryWith({{1, Hint{true, 3}}}));
    observe(pf, 1, 1);
    observe(pf, 1, 2);
    observe(pf, 1, 3);
    observe(pf, 1, 1);
    observe(pf, 1, 2);
    observe(pf, 1, 4);
    auto out = observe(pf, 1, 2);
    for (const auto &r : out)
        EXPECT_NE(r.lineAddr, 3u); // the displaced path stays gone
}

TEST(Prophet, UnusedMvbTakesOneSet)
{
    // The MVB takes its configured size only where it is used; a
    // profiling pass or an ablation without it builds one set, and
    // its statistics still read zero.
    const std::uint64_t one_set_bits =
        std::uint64_t{MultiPathVictimBuffer::kWays} * 43;
    EXPECT_EQ(ProphetPrefetcher(tinyConfig(), OptimizedBinary{})
                  .victimBuffer()
                  .storageBits(),
              256u * 43);

    ProphetConfig no_mvb = tinyConfig();
    no_mvb.features.mvb = false;
    for (const ProphetConfig &cfg : {simplifiedConfig(), no_mvb}) {
        ProphetPrefetcher pf(cfg, binaryWith({{1, Hint{true, 3}}}));
        for (Addr a : {1, 2, 3, 1, 2, 4, 2})
            observe(pf, 1, a);
        EXPECT_EQ(pf.victimBuffer().storageBits(), one_set_bits);
        EXPECT_EQ(pf.victimBuffer().stats().lookups, 0u);
        EXPECT_EQ(pf.victimBuffer().stats().inserts, 0u);
    }
}

TEST(Prophet, ProfilingConfigIsSimplified)
{
    // Section 3.2: degree 1, fixed table, no insertion policy.
    ProphetConfig cfg = simplifiedConfig();
    ProphetPrefetcher pf(cfg, OptimizedBinary{});
    EXPECT_EQ(pf.metadataWays(), cfg.maxWays);
    for (Addr a : {10, 20, 30, 40, 50})
        observe(pf, 1, a);
    auto out = observe(pf, 1, 10);
    EXPECT_EQ(out.size(), 1u); // degree 1
}

TEST(Prophet, ProfilingCollectsCounters)
{
    ProphetPrefetcher pf(simplifiedConfig(), OptimizedBinary{});
    observe(pf, 1, 100, false); // L2 miss recorded
    observe(pf, 1, 200, false);
    pf.notifyIssued(1);
    pf.notifyUseful(1);
    auto snap = pf.takeSnapshot();
    ASSERT_TRUE(snap.perPc.count(1));
    EXPECT_EQ(snap.perPc.at(1).l2Misses, 2u);
    EXPECT_DOUBLE_EQ(snap.perPc.at(1).accuracy, 1.0);
    EXPECT_EQ(snap.allocatedEntries,
              pf.markovTable().stats().allocatedEntries());
}

} // anonymous namespace
} // namespace prophet::core
