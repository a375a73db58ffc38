/**
 * @file
 * Unit tests for Prophet's analysis step (Section 4.2): Eq. 1
 * insertion decisions, Eq. 2 priority levels, Eq. 3 resizing, and
 * top-miss-PC hint selection.
 */

#include <gtest/gtest.h>

#include "core/analyzer.hh"

namespace prophet::core
{
namespace
{

TEST(Analyzer, Eq1InsertionThreshold)
{
    Analyzer a(AnalyzerConfig{});
    EXPECT_FALSE(a.insertionAllowed(0.0));
    EXPECT_FALSE(a.insertionAllowed(0.1499));
    EXPECT_TRUE(a.insertionAllowed(0.15));
    EXPECT_TRUE(a.insertionAllowed(1.0));
}

TEST(Analyzer, Eq1ThresholdConfigurable)
{
    AnalyzerConfig cfg;
    cfg.elAcc = 0.25;
    Analyzer a(cfg);
    EXPECT_FALSE(a.insertionAllowed(0.2));
    EXPECT_TRUE(a.insertionAllowed(0.25));

    // The top of the spec's [0, 1] range: only perfect PCs insert.
    cfg.elAcc = 1.0;
    Analyzer strict(cfg);
    EXPECT_FALSE(strict.insertionAllowed(0.99));
    EXPECT_TRUE(strict.insertionAllowed(1.0));
}

TEST(Analyzer, Eq2PriorityLevelsN2)
{
    Analyzer a(AnalyzerConfig{}); // n = 2: four levels
    EXPECT_EQ(a.priorityLevel(0.0), 0);
    EXPECT_EQ(a.priorityLevel(0.24), 0);
    EXPECT_EQ(a.priorityLevel(0.25), 1);
    EXPECT_EQ(a.priorityLevel(0.49), 1);
    EXPECT_EQ(a.priorityLevel(0.5), 2);
    EXPECT_EQ(a.priorityLevel(0.75), 3);
    EXPECT_EQ(a.priorityLevel(1.0), 3); // clamped to 2^n - 1
}

/** Eq. 2 sweep over n: levels partition [0,1) evenly. */
class PrioritySweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(PrioritySweep, LevelsMatchFloor)
{
    AnalyzerConfig cfg;
    cfg.nBits = GetParam();
    Analyzer a(cfg);
    unsigned levels = 1u << cfg.nBits;
    for (unsigned k = 0; k < levels; ++k) {
        double low = static_cast<double>(k) / levels;
        double high = static_cast<double>(k + 1) / levels - 1e-9;
        EXPECT_EQ(a.priorityLevel(low), k);
        EXPECT_EQ(a.priorityLevel(high), k);
    }
    EXPECT_EQ(a.priorityLevel(1.0), levels - 1);
}

INSTANTIATE_TEST_SUITE_P(N, PrioritySweep,
                         ::testing::Values(1u, 2u, 3u));

TEST(Analyzer, Eq3ExactFit)
{
    Analyzer a(AnalyzerConfig{}); // 2048 sets, 24576 entries/way
    Csr csr = a.resize(196608);   // exactly 8 ways
    EXPECT_FALSE(csr.temporalDisabled);
    EXPECT_EQ(csr.metadataWays, 8u);
}

TEST(Analyzer, Eq3RoundsToNearestPow2)
{
    Analyzer a(AnalyzerConfig{});
    // 40,000 rounds to 32,768 entries -> ceil(32768/24576) = 2 ways.
    Csr csr = a.resize(40000);
    EXPECT_EQ(csr.metadataWays, 2u);
    // 16,000 rounds (tie-up) to 16,384 -> 1 way (the sphinx3-style
    // small-footprint case).
    EXPECT_EQ(a.resize(16000).metadataWays, 1u);
    EXPECT_FALSE(a.resize(16000).temporalDisabled);
}

TEST(Analyzer, Eq3DisablesBelowHalfWay)
{
    Analyzer a(AnalyzerConfig{});
    // Half a way is 12,288 entries; rounded value 8,192 is below.
    Csr csr = a.resize(8000);
    EXPECT_TRUE(csr.temporalDisabled);
    EXPECT_EQ(csr.metadataWays, 0u);
}

TEST(Analyzer, Eq3CapsAtOneMegabyte)
{
    Analyzer a(AnalyzerConfig{});
    // Footnote 4: the rounded value never exceeds a 1 MB table.
    Csr csr = a.resize(10'000'000);
    EXPECT_EQ(csr.metadataWays, 8u);
}

TEST(Analyzer, HintsSelectTopMissPcs)
{
    AnalyzerConfig cfg;
    cfg.hintCapacity = 2;
    Analyzer a(cfg);
    ProfileSnapshot snap;
    snap.perPc[1] = {0.9, 1000, 50};   // few misses
    snap.perPc[2] = {0.8, 1000, 5000}; // most misses
    snap.perPc[3] = {0.7, 1000, 3000}; // second most
    snap.allocatedEntries = 196608;
    auto bin = a.analyze(snap);
    EXPECT_EQ(bin.hints.size(), 2u);
    EXPECT_TRUE(bin.hints.lookup(2).has_value());
    EXPECT_TRUE(bin.hints.lookup(3).has_value());
    EXPECT_FALSE(bin.hints.lookup(1).has_value());
}

TEST(Analyzer, LowAccuracyPcCondemned)
{
    Analyzer a(AnalyzerConfig{});
    ProfileSnapshot snap;
    snap.perPc[7] = {0.01, 10000, 9000};
    snap.allocatedEntries = 196608;
    auto bin = a.analyze(snap);
    auto hint = bin.hints.lookup(7);
    ASSERT_TRUE(hint.has_value());
    EXPECT_FALSE(hint->allowInsert);
}

TEST(Analyzer, InsufficientEvidenceStaysConservative)
{
    Analyzer a(AnalyzerConfig{});
    ProfileSnapshot snap;
    // Accuracy 0 but only 3 issued prefetches: too little evidence
    // to condemn (Prophet filters only clear non-temporal PCs).
    snap.perPc[8] = {0.0, 3, 9000};
    snap.allocatedEntries = 196608;
    auto bin = a.analyze(snap);
    auto hint = bin.hints.lookup(8);
    ASSERT_TRUE(hint.has_value());
    EXPECT_TRUE(hint->allowInsert);
}

TEST(Analyzer, PriorityEncodedInHint)
{
    Analyzer a(AnalyzerConfig{});
    ProfileSnapshot snap;
    snap.perPc[9] = {0.8, 10000, 9000};
    snap.allocatedEntries = 196608;
    auto bin = a.analyze(snap);
    auto hint = bin.hints.lookup(9);
    ASSERT_TRUE(hint.has_value());
    EXPECT_TRUE(hint->allowInsert);
    EXPECT_EQ(hint->priority, 3);
}

TEST(Analyzer, CsrEnabledInAnalyzedBinary)
{
    Analyzer a(AnalyzerConfig{});
    ProfileSnapshot snap;
    snap.allocatedEntries = 100000;
    auto bin = a.analyze(snap);
    EXPECT_TRUE(bin.csr.prophetEnabled);
    EXPECT_EQ(bin.csr.metadataWays, 6u); // 131072 / 24576 -> ceil = 6
}

TEST(Analyzer, DeterministicTieBreaking)
{
    AnalyzerConfig cfg;
    cfg.hintCapacity = 1;
    Analyzer a(cfg);
    ProfileSnapshot snap;
    snap.perPc[20] = {0.5, 100, 1000};
    snap.perPc[10] = {0.5, 100, 1000}; // same miss count
    snap.allocatedEntries = 196608;
    auto b1 = a.analyze(snap);
    auto b2 = a.analyze(snap);
    // Lower PC wins the tie, reproducibly.
    EXPECT_TRUE(b1.hints.lookup(10).has_value());
    EXPECT_TRUE(b2.hints.lookup(10).has_value());
}

} // anonymous namespace
} // namespace prophet::core
