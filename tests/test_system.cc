/**
 * @file
 * Integration tests for the assembled system: end-to-end simulation
 * over synthetic traces, temporal prefetching benefit on pointer
 * chases, partition synchronization, and statistics sanity.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "common/cancellation.hh"
#include "common/error.hh"
#include "sim/system.hh"
#include "workloads/pattern_lib.hh"

namespace prophet::sim
{
namespace
{

trace::Trace
chaseTrace(std::size_t nodes, std::size_t records)
{
    workloads::StreamParams p;
    p.pc = 0x400000;
    p.regionBase = 1ull << 33;
    p.instGap = 4;
    p.seed = 3;
    workloads::ChaseStream s(p, nodes, 0.0);
    trace::Trace t;
    for (std::size_t i = 0; i < records; ++i)
        s.emit(t);
    return t;
}

SystemConfig
baseCfg()
{
    SystemConfig cfg = SystemConfig::table1();
    cfg.warmupRecords = 20000;
    return cfg;
}

TEST(System, BaselineRunsAndReportsSaneStats)
{
    auto t = chaseTrace(30000, 200000);
    System sys(baseCfg());
    auto s = sys.run(t);
    EXPECT_GT(s.ipc, 0.0);
    EXPECT_GT(s.l2DemandMisses, 0u);
    EXPECT_GT(s.dramReads, 0u);
    EXPECT_EQ(s.l2PrefetchesIssued, 0u);
    EXPECT_EQ(s.records, 200000u);
}

TEST(System, TemporalPrefetcherAcceleratesChase)
{
    // The paper's headline mechanism: a pointer chase too big for
    // the LLC is dramatically faster with a temporal prefetcher.
    auto t = chaseTrace(60000, 300000);

    System base(baseCfg());
    auto sb = base.run(t);

    SystemConfig cfg = baseCfg();
    cfg.l2Pf = L2PfKind::Triage;
    System tri(cfg);
    auto st = tri.run(t);

    EXPECT_GT(st.ipc, sb.ipc * 1.2);
    EXPECT_LT(st.l2DemandMisses, sb.l2DemandMisses);
    EXPECT_GT(st.l2PrefetchesIssued, 0u);
    EXPECT_GT(st.prefetchAccuracy(), 0.8); // perfect repetition
}

TEST(System, SimplifiedModeProducesSnapshot)
{
    auto t = chaseTrace(20000, 150000);
    SystemConfig cfg = baseCfg();
    cfg.l2Pf = L2PfKind::Simplified;
    System sys(cfg);
    sys.run(t);
    ASSERT_NE(sys.prophet(), nullptr);
    auto snap = sys.prophet()->takeSnapshot();
    ASSERT_TRUE(snap.perPc.count(0x400000));
    // A perfectly repeating chase profiles at high accuracy.
    EXPECT_GT(snap.perPc.at(0x400000).accuracy, 0.8);
    EXPECT_GT(snap.allocatedEntries, 10000u);
}

TEST(System, PartitionSyncReservesLlcWays)
{
    auto t = chaseTrace(20000, 100000);
    SystemConfig cfg = baseCfg();
    cfg.l2Pf = L2PfKind::Triangel;
    System sys(cfg);
    sys.run(t);
    // The LLC partition mirrors the prefetcher's table size.
    EXPECT_EQ(sys.hierarchy().llc().reservedWays(),
              sys.prophet() ? 0u : sys.hierarchy().llc().reservedWays());
    EXPECT_LE(sys.hierarchy().llc().reservedWays(), 8u);
}

TEST(System, ProphetModeUsesBinary)
{
    auto t = chaseTrace(20000, 100000);
    SystemConfig cfg = baseCfg();
    cfg.l2Pf = L2PfKind::Prophet;
    cfg.binary.csr.prophetEnabled = true;
    cfg.binary.csr.metadataWays = 2;
    System sys(cfg);
    auto s = sys.run(t);
    EXPECT_EQ(s.finalMetadataWays, 2u);
    EXPECT_EQ(sys.hierarchy().llc().reservedWays(), 2u);
}

TEST(System, ProphetDisabledCsrMeansNoTemporalTraffic)
{
    auto t = chaseTrace(20000, 100000);
    SystemConfig cfg = baseCfg();
    cfg.l2Pf = L2PfKind::Prophet;
    cfg.binary.csr.prophetEnabled = true;
    cfg.binary.csr.temporalDisabled = true;
    cfg.binary.csr.metadataWays = 0;
    System sys(cfg);
    auto s = sys.run(t);
    EXPECT_EQ(s.l2PrefetchesIssued, 0u);
    EXPECT_EQ(s.finalMetadataWays, 0u);
}

TEST(System, PcMissesAttributedToPcs)
{
    auto t = chaseTrace(40000, 150000);
    System sys(baseCfg());
    auto s = sys.run(t);
    ASSERT_TRUE(s.pcMisses.count(0x400000));
    EXPECT_GT(s.pcMisses.at(0x400000), 1000u);
}

TEST(System, StridePrefetcherCoversSequentialTrace)
{
    // A dense stride trace should mostly hit in L1 thanks to the
    // degree-8 stride prefetcher of Table 1.
    workloads::StreamParams p;
    p.pc = 0x500000;
    p.regionBase = 1ull << 34;
    p.instGap = 4;
    p.seed = 4;
    workloads::StrideStream s(p, 100000);
    trace::Trace t;
    for (int i = 0; i < 200000; ++i)
        s.emit(t);

    SystemConfig with = baseCfg();
    System sys_with(with);
    auto sw = sys_with.run(t);

    SystemConfig without = baseCfg();
    without.l1Pf = L1PfKind::None;
    System sys_without(without);
    auto so = sys_without.run(t);

    // Independent stride misses are bandwidth-bound with or without
    // prefetching; the stride prefetcher's effect is the L1 miss
    // reduction (and it must never hurt).
    EXPECT_LT(sw.l1Misses, so.l1Misses / 4);
    EXPECT_GE(sw.ipc, so.ipc * 0.98);
}

TEST(System, WritebacksGenerateDramWrites)
{
    // Writes to a working set larger than the LLC must eventually
    // produce DRAM write traffic.
    workloads::StreamParams p;
    p.pc = 0x600000;
    p.regionBase = 1ull << 35;
    p.instGap = 4;
    p.seed = 5;
    workloads::StrideStream s(p, 100000);
    trace::Trace raw;
    for (int i = 0; i < 150000; ++i)
        s.emit(raw);
    trace::Trace t;
    for (const auto &r : raw)
        t.append(r.pc, r.addr, r.instGap, false, /*write=*/true);

    SystemConfig cfg = baseCfg();
    cfg.l1Pf = L1PfKind::None;
    System sys(cfg);
    auto st = sys.run(t);
    EXPECT_GT(st.dramWrites, 0u);
}

TEST(System, AttachedButUnfiredCancellationIsBitIdentical)
{
    // The poll reads the token every System::kPollRecords records —
    // no simulation state is touched, so attaching a token that
    // never fires must reproduce the plain run bit for bit. This is
    // what lets the driver attach one unconditionally.
    auto t = chaseTrace(30000, 200000);

    System plain(baseCfg());
    auto ref = plain.run(t);

    CancellationToken token;
    System sys(baseCfg());
    sys.setCancellation(&token);
    auto s = sys.run(t);
    EXPECT_EQ(s.ipc, ref.ipc);
    EXPECT_EQ(s.cycles, ref.cycles);
    EXPECT_EQ(s.instructions, ref.instructions);
    EXPECT_EQ(s.l1Misses, ref.l1Misses);
    EXPECT_EQ(s.l2DemandMisses, ref.l2DemandMisses);
    EXPECT_EQ(s.llcMisses, ref.llcMisses);
    EXPECT_EQ(s.dramReads, ref.dramReads);
    EXPECT_EQ(s.dramWrites, ref.dramWrites);
    EXPECT_EQ(s.records, ref.records);
    EXPECT_FALSE(token.cancelled());
}

TEST(System, CancelledTokenUnwindsWithStructuredError)
{
    auto t = chaseTrace(30000, 200000);
    CancellationToken token;
    token.cancel();
    System sys(baseCfg());
    sys.setCancellation(&token);
    try {
        sys.run(t);
        FAIL() << "run did not observe the cancelled token";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
        EXPECT_FALSE(e.transient());
        // The context pins down how far the run got.
        EXPECT_NE(e.context().offset, ErrorContext::kNoOffset);
    }
}

TEST(System, ChildTokenUnwindsWhenOnlyItsParentFires)
{
    // The driver's route: each job attempt polls a private token
    // chained to its run's token, and only the run's token fires on
    // shutdown or fail-fast.
    auto t = chaseTrace(30000, 200000);
    CancellationToken run;
    CancellationToken attempt(&run);
    EXPECT_FALSE(attempt.cancelled());
    run.cancel();
    EXPECT_TRUE(attempt.cancelled());
    System sys(baseCfg());
    sys.setCancellation(&attempt);
    try {
        sys.run(t);
        FAIL() << "run did not observe its parent token firing";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
    }
}

TEST(System, CancellingAChildLeavesItsParentAndSiblingsLive)
{
    // A deadline fires one attempt's token alone: the run and its
    // other attempts keep going, bit-identical to an unpolled run.
    auto t = chaseTrace(30000, 200000);
    CancellationToken run;
    CancellationToken timed_out(&run);
    CancellationToken sibling(&run);
    timed_out.cancel();
    EXPECT_TRUE(timed_out.cancelled());
    EXPECT_FALSE(run.cancelled());
    EXPECT_FALSE(sibling.cancelled());

    System plain(baseCfg());
    auto ref = plain.run(t);
    System sys(baseCfg());
    sys.setCancellation(&sibling);
    auto s = sys.run(t);
    EXPECT_EQ(s.cycles, ref.cycles);
    EXPECT_EQ(s.records, ref.records);
}

TEST(System, ExpiredChildTokenLeavesItsParentAndSiblingsLive)
{
    // A per-job deadline lives in the attempt's own token: once it
    // passes, that token reads cancelled, and nothing else does.
    CancellationToken run;
    CancellationToken timed(&run, CancellationToken::Clock::now());
    CancellationToken sibling(&run);
    EXPECT_TRUE(timed.expired());
    EXPECT_TRUE(timed.cancelled());
    EXPECT_FALSE(run.cancelled());
    EXPECT_FALSE(run.expired());
    EXPECT_FALSE(sibling.cancelled());
    EXPECT_FALSE(sibling.expired());

    // A deadline still ahead reads neither.
    CancellationToken later(&run, CancellationToken::Clock::now()
                                      + std::chrono::hours(1));
    EXPECT_FALSE(later.expired());
    EXPECT_FALSE(later.cancelled());
}

TEST(System, DeadlinePassingMidRunUnwindsWithItsOffset)
{
    auto t = chaseTrace(30000, 400000);
    System sys(baseCfg());
    const auto start = CancellationToken::Clock::now();
    CancellationToken token(nullptr,
                            start + std::chrono::milliseconds(5));
    sys.setCancellation(&token);
    try {
        sys.run(t);
        FAIL() << "run outlived its deadline";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled);
        EXPECT_TRUE(token.expired());
        // The poll that saw the deadline pins how far the run got.
        EXPECT_NE(e.context().offset, ErrorContext::kNoOffset);
        EXPECT_LT(e.context().offset, t.size());
        EXPECT_EQ(e.context().offset % System::kPollRecords, 0u);
    }
}

} // anonymous namespace
} // namespace prophet::sim
