/**
 * @file
 * Cross-module property tests: randomized operation sequences driven
 * against structural invariants. These catch state-machine bugs that
 * example-based tests miss.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/prophet.hh"
#include "mem/hierarchy.hh"
#include "prefetch/markov_table.hh"
#include "prefetch/triangel.hh"

namespace prophet
{
namespace
{

// ------------------------------------------------- Markov invariants

/** Randomized op mix over the metadata table. */
class MarkovRandomOps
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MarkovRandomOps, InvariantsHoldUnderChurn)
{
    Rng rng(GetParam());
    pf::MarkovTable table(16, 2, std::make_unique<mem::SrripPolicy>());
    table.setPriorityAware(rng.chance(0.5));

    std::uint64_t offered = 0;
    table.setEvictionCallback(
        [&](const pf::MarkovTable::Entry &e) {
            EXPECT_TRUE(e.valid);
            ++offered;
        });

    for (int i = 0; i < 20000; ++i) {
        double op = rng.uniform();
        Addr key = rng.below(3000);
        if (op < 0.55) {
            table.insert(key, rng.below(100000),
                         static_cast<std::uint8_t>(rng.below(4)));
        } else if (op < 0.9) {
            auto t = table.lookup(key);
            if (t) {
                auto p = table.peek(key);
                ASSERT_TRUE(p.has_value());
                EXPECT_EQ(*p, *t);
            }
        } else if (op < 0.95) {
            table.setAllocatedWays(
                static_cast<unsigned>(rng.range(0, 2)));
        } else {
            table.setAllocatedWays(2);
        }
        // Size never exceeds the current capacity.
        EXPECT_LE(table.size(), table.capacityEntries());
    }
    // Conservation: inserts = live + replacements + resize drops.
    const auto &s = table.stats();
    EXPECT_EQ(s.inserts,
              table.size() + s.replacements + s.resizeDrops);
    // The MVB callback fired for every replacement and update.
    EXPECT_EQ(offered, s.replacements + s.updates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarkovRandomOps,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

// ---------------------------------------------- hierarchy invariants

class HierarchyRandomAccesses
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(HierarchyRandomAccesses, TimingAndCountersConsistent)
{
    Rng rng(GetParam());
    mem::HierarchyConfig cfg;
    cfg.l1d = {"L1D", 4 * 1024, 4, 2, 8, "lru"};
    cfg.l2 = {"L2", 16 * 1024, 8, 9, 8, "lru"};
    cfg.llc = {"LLC", 64 * 1024, 16, 20, 8, "lru"};
    mem::Hierarchy h(cfg);

    Cycle cycle = 0;
    std::uint64_t l2_accesses = 0;
    for (int i = 0; i < 30000; ++i) {
        cycle += rng.range(1, 4);
        Addr addr = rng.below(4096) * kLineSize;
        double op = rng.uniform();
        if (op < 0.8) {
            auto out =
                h.access(rng.below(16), addr, rng.chance(0.2), cycle);
            // Data can never be ready before the access begins.
            EXPECT_GT(out.readyAt, cycle);
            if (out.l2Accessed)
                ++l2_accesses;
            // An L1 hit never touches the L2.
            if (out.level == mem::HitLevel::L1) {
                EXPECT_FALSE(out.l2Accessed);
            }
        } else if (op < 0.9) {
            h.prefetchL2(rng.below(16), lineAddr(addr), cycle);
        } else {
            h.prefetchL1(rng.below(16), lineAddr(addr), cycle);
        }
    }

    const auto &l2s = h.l2().stats();
    // Every demand L2 access was either a hit or a miss.
    EXPECT_EQ(l2s.demandHits + l2s.demandMisses, l2_accesses);
    // Prefetch hits are a subset of demand hits.
    EXPECT_LE(l2s.prefetchHits, l2s.demandHits);
    // DRAM reads cover at least the LLC demand misses.
    EXPECT_GE(h.dram().stats().reads,
              h.llc().stats().demandMisses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyRandomAccesses,
                         ::testing::Values(7u, 21u, 99u));

// ------------------------------------------ Prophet ablation lattice

/** Every feature combination must run cleanly and sanely. */
class ProphetFeatureLattice : public ::testing::TestWithParam<unsigned>
{};

TEST_P(ProphetFeatureLattice, AnyFeatureSubsetIsWellBehaved)
{
    unsigned mask = GetParam();
    core::ProphetConfig cfg;
    cfg.numSets = 64;
    cfg.maxWays = 4;
    cfg.mvbEntries = 256;
    cfg.features.replacement = mask & 1;
    cfg.features.insertion = mask & 2;
    cfg.features.mvb = mask & 4;
    cfg.features.resizing = mask & 8;

    core::OptimizedBinary bin;
    bin.hints.install(1, core::Hint{true, 3});
    bin.hints.install(2, core::Hint{false, 0});
    bin.csr.prophetEnabled = true;
    bin.csr.metadataWays = 2;

    core::ProphetPrefetcher pf(cfg, bin);
    Rng rng(mask + 1);
    std::vector<pf::PrefetchRequest> out;
    std::uint64_t issued = 0;
    for (int i = 0; i < 20000; ++i) {
        out.clear();
        PC pc = rng.below(4);
        Addr line = rng.below(500);
        pf.observe(pc, line, rng.chance(0.5), 0, out);
        issued += out.size();
        for (const auto &req : out) {
            EXPECT_EQ(req.creditPc, pc);
            pf.notifyIssued(req.creditPc);
            if (rng.chance(0.5))
                pf.notifyUseful(req.creditPc);
        }
    }
    // The table respects the (possibly resized) capacity.
    EXPECT_LE(pf.markovTable().size(),
              pf.markovTable().capacityEntries());
    if (cfg.features.resizing)
        EXPECT_EQ(pf.metadataWays(), 2u);
    else
        EXPECT_EQ(pf.metadataWays(), 4u);

    // Profiling counters are internally consistent.
    auto snap = pf.takeSnapshot();
    for (const auto &[pc, prof] : snap.perPc) {
        EXPECT_GE(prof.accuracy, 0.0);
        EXPECT_LE(prof.accuracy, 1.0);
    }
    (void)issued;
}

INSTANTIATE_TEST_SUITE_P(AllSixteen, ProphetFeatureLattice,
                         ::testing::Range(0u, 16u));

// ----------------------------------------- Triangel stability sweep

class TriangelChurn : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TriangelChurn, ConfidencesStayInRange)
{
    Rng rng(GetParam());
    pf::TriangelConfig cfg;
    cfg.numSets = 64;
    cfg.maxWays = 2;
    cfg.duellerResizing = true;
    cfg.duellerWindow = 4096;
    pf::TriangelPrefetcher tri(cfg);

    std::vector<pf::PrefetchRequest> out;
    for (int i = 0; i < 50000; ++i) {
        out.clear();
        PC pc = rng.below(8);
        Addr line = rng.chance(0.5) ? rng.below(64)
                                    : rng.below(100000);
        tri.observe(pc, line, false, 0, out);
        EXPECT_LE(tri.patternConf(pc), cfg.confMax);
        EXPECT_LE(tri.reuseConf(pc), cfg.confMax);
        EXPECT_LE(tri.metadataWays(), cfg.maxWays);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangelChurn,
                         ::testing::Values(11u, 13u, 17u));

} // anonymous namespace
} // namespace prophet
