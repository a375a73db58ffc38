/**
 * @file
 * Sampled fast-mode execution: determinism, the degenerate
 * full-coverage schedule's bit-identity with the exact run, window
 * scheduler edge cases (window > trace, zero interval, last partial
 * window, schedule past the trace), scaling sanity, and the phase
 * metrics each kind of run publishes.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/metrics.hh"
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
    // A temporal prefetcher exercises the warm path's training,
    // usefulness feedback, and partition sync.
    cfg.l2Pf = L2PfKind::Triangel;
    return cfg;
}

/** Field-by-field equality, pcMisses compared as a set of pairs. */
void
expectStatsEqual(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2DemandAccesses, b.l2DemandAccesses);
    EXPECT_EQ(a.l2DemandMisses, b.l2DemandMisses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.l2PrefetchesIssued, b.l2PrefetchesIssued);
    EXPECT_EQ(a.l2PrefetchesUseful, b.l2PrefetchesUseful);
    EXPECT_EQ(a.latePrefetches, b.latePrefetches);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramPrefetchReads, b.dramPrefetchReads);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.markov.lookups, b.markov.lookups);
    EXPECT_EQ(a.markov.hits, b.markov.hits);
    EXPECT_EQ(a.markov.inserts, b.markov.inserts);
    EXPECT_EQ(a.markov.replacements, b.markov.replacements);
    EXPECT_EQ(a.offchipMeta.metadataReads, b.offchipMeta.metadataReads);
    EXPECT_EQ(a.offchipMeta.metadataWrites,
              b.offchipMeta.metadataWrites);
    EXPECT_EQ(a.finalMetadataWays, b.finalMetadataWays);
    ASSERT_EQ(a.pcMisses.size(), b.pcMisses.size());
    for (const auto &[pc, count] : a.pcMisses) {
        auto it = b.pcMisses.find(pc);
        ASSERT_NE(it, b.pcMisses.end());
        EXPECT_EQ(count, it->second);
    }
}

TEST(Sampling, SameScheduleTwiceIsDeterministic)
{
    auto t = chaseTrace(30000, 200000);
    SystemConfig cfg = baseCfg();
    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 5000;
    cfg.sampling.windowRecords = 4000;
    cfg.sampling.intervalRecords = 40000;

    System a(cfg), b(cfg);
    auto sa = a.run(t);
    auto sb = b.run(t);
    EXPECT_TRUE(sa.sampled);
    EXPECT_EQ(sa.sampledRecords, sb.sampledRecords);
    EXPECT_EQ(sa.sampleScale, sb.sampleScale);
    expectStatsEqual(sa, sb);
}

TEST(Sampling, FullCoverageScheduleIsBitIdenticalToFullRun)
{
    // One window spanning everything past the full run's statistics
    // warmup boundary, warmed over the entire prefix: the sampled
    // run steps every record exactly like the full run and its scale
    // is exactly 1, so every statistic must match bit for bit.
    const std::size_t n = 200000;
    auto t = chaseTrace(30000, n);
    SystemConfig cfg = baseCfg();
    const std::size_t boundary = std::min(cfg.warmupRecords, n / 2);

    System full(cfg);
    auto sf = full.run(t);

    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = n;
    cfg.sampling.windowRecords = n - boundary;
    cfg.sampling.intervalRecords = n;
    cfg.sampling.offset = 0;
    System sampled(cfg);
    auto ss = sampled.run(t);

    EXPECT_TRUE(ss.sampled);
    EXPECT_FALSE(sf.sampled);
    EXPECT_EQ(ss.sampledRecords, n - boundary);
    EXPECT_EQ(ss.sampleScale, 1.0);
    expectStatsEqual(sf, ss);
}

TEST(Sampling, WindowLargerThanTraceCoversWholeTrace)
{
    // Schedule far wider than the trace: the single (clipped) window
    // starts at 0 and covers every record.
    const std::size_t n = 10000;
    auto t = chaseTrace(3000, n);
    SystemConfig cfg = baseCfg();
    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 0;
    cfg.sampling.windowRecords = 50000;
    cfg.sampling.intervalRecords = 50000;
    System sys(cfg);
    auto s = sys.run(t);
    EXPECT_TRUE(s.sampled);
    EXPECT_EQ(s.sampledRecords, n);
    EXPECT_EQ(s.records, n);
}

TEST(Sampling, ZeroIntervalClampsToBackToBackWindows)
{
    // A direct System user passing interval 0 (the spec parser
    // rejects it) gets interval = window: wall-to-wall windows, full
    // coverage, never a division by zero or an empty schedule.
    const std::size_t n = 20000;
    auto t = chaseTrace(3000, n);
    SystemConfig cfg = baseCfg();
    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 0;
    cfg.sampling.windowRecords = 1000;
    cfg.sampling.intervalRecords = 0;
    System sys(cfg);
    auto s = sys.run(t);
    EXPECT_TRUE(s.sampled);
    EXPECT_EQ(s.sampledRecords, n);
}

TEST(Sampling, LastPartialWindowIsClippedAtTraceEnd)
{
    // 48000 records, interval 25000, window 8000: window 0 is
    // [17000, 25000), window 1 is scheduled [42000, 50000) and clips
    // to [42000, 48000) — 8000 + 6000 detailed records.
    const std::size_t n = 48000;
    auto t = chaseTrace(3000, n);
    SystemConfig cfg = baseCfg();
    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 2000;
    cfg.sampling.windowRecords = 8000;
    cfg.sampling.intervalRecords = 25000;
    System sys(cfg);
    auto s = sys.run(t);
    EXPECT_TRUE(s.sampled);
    EXPECT_EQ(s.sampledRecords, 14000u);
    EXPECT_EQ(s.records, n);
}

TEST(Sampling, ScheduleBeyondTraceFallsBackToFullRun)
{
    // No window fits (offset past the trace): the run falls back to
    // the full run's one-window schedule and reports unsampled
    // statistics.
    const std::size_t n = 30000;
    auto t = chaseTrace(3000, n);
    SystemConfig cfg = baseCfg();

    System full(cfg);
    auto sf = full.run(t);

    cfg.sampling.enabled = true;
    cfg.sampling.offset = 1000000;
    System sampled(cfg);
    auto ss = sampled.run(t);

    EXPECT_FALSE(ss.sampled);
    expectStatsEqual(sf, ss);
}

TEST(Sampling, EmptyAndOneRecordTracesMatchTheStepApi)
{
    for (std::size_t n : {0, 1}) {
        SCOPED_TRACE(n);
        auto t = chaseTrace(3000, n);
        System via_run(baseCfg());
        auto sr = via_run.run(t);
        System via_step(baseCfg());
        via_step.beginRun(t.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            via_step.step(t[i]);
        auto ss = via_step.finish();
        EXPECT_EQ(sr.records, n);
        EXPECT_FALSE(sr.sampled);
        expectStatsEqual(sr, ss);
    }
}

/** The value of a registered counter, 0 when it is not registered. */
std::uint64_t
counterValue(const std::string &name)
{
    for (const auto &c : metrics::Registry::instance().snapshot().counters)
        if (c.name == name)
            return c.value;
    return 0;
}

/** What one run adds to each run-phase instrument. */
struct PhaseDelta
{
    std::uint64_t warmup = 0, warm = 0, simulate = 0, profile = 0;
    std::uint64_t sampledRecords = 0;
};

/** Run @p cfg over @p t and report what it published. */
PhaseDelta
publishedBy(const SystemConfig &cfg, const trace::Trace &t,
            RunStats *stats = nullptr)
{
    auto counts = [] {
        return PhaseDelta{
            metrics::histogram("phase.warmup_ns").count(),
            metrics::histogram("phase.warm_ns").count(),
            metrics::histogram("phase.simulate_ns").count(),
            metrics::histogram("phase.profile_ns").count(),
            counterValue("sim.sampled_records")};
    };
    const PhaseDelta before = counts();
    System sys(cfg);
    RunStats s = sys.run(t);
    const PhaseDelta after = counts();
    if (stats)
        *stats = std::move(s);
    return {after.warmup - before.warmup, after.warm - before.warm,
            after.simulate - before.simulate,
            after.profile - before.profile,
            after.sampledRecords - before.sampledRecords};
}

SystemConfig
sparseCfg()
{
    SystemConfig cfg = baseCfg();
    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 2000;
    cfg.sampling.windowRecords = 4000;
    cfg.sampling.intervalRecords = 20000;
    return cfg;
}

TEST(Sampling, EachRunKindPublishesItsOwnPhases)
{
    auto t = chaseTrace(3000, 60000);

    // A full run: its warm segment and its one window.
    PhaseDelta full = publishedBy(baseCfg(), t);
    EXPECT_EQ(full.warmup, 1u);
    EXPECT_EQ(full.simulate, 1u);
    EXPECT_EQ(full.warm, 0u);
    EXPECT_EQ(full.profile, 0u);
    EXPECT_EQ(full.sampledRecords, 0u);

    // A sampled run: its warm segments, its windows, and its
    // detailed record count.
    RunStats sampled_stats;
    PhaseDelta sampled = publishedBy(sparseCfg(), t, &sampled_stats);
    ASSERT_TRUE(sampled_stats.sampled);
    EXPECT_EQ(sampled.warm, 1u);
    EXPECT_EQ(sampled.simulate, 1u);
    EXPECT_EQ(sampled.warmup, 0u);
    EXPECT_EQ(sampled.profile, 0u);
    EXPECT_EQ(sampled.sampledRecords, sampled_stats.sampledRecords);

    // A schedule that fits no window falls back to the full run and
    // publishes like one.
    SystemConfig beyond = sparseCfg();
    beyond.sampling.offset = 1000000;
    RunStats fallback_stats;
    PhaseDelta fallback = publishedBy(beyond, t, &fallback_stats);
    ASSERT_FALSE(fallback_stats.sampled);
    EXPECT_EQ(fallback.warmup, 1u);
    EXPECT_EQ(fallback.simulate, 1u);
    EXPECT_EQ(fallback.warm, 0u);
    EXPECT_EQ(fallback.profile, 0u);
    EXPECT_EQ(fallback.sampledRecords, 0u);

    // Prophet's profiling pass: one bucket for the whole run.
    SystemConfig simplified = baseCfg();
    simplified.l2Pf = L2PfKind::Simplified;
    PhaseDelta profile = publishedBy(simplified, t);
    EXPECT_EQ(profile.profile, 1u);
    EXPECT_EQ(profile.warmup, 0u);
    EXPECT_EQ(profile.simulate, 0u);
    EXPECT_EQ(profile.warm, 0u);
    EXPECT_EQ(profile.sampledRecords, 0u);
}

TEST(SamplingDeathTest, UnsampledRunsRegisterNoSampledRecordsCounter)
{
    // Registration is process-wide and permanent, so check it in a
    // fresh process (the threadsafe style re-executes this binary):
    // a --metrics-out document lists every registered counter, and
    // an unsampled run's must not gain "sim.sampled_records".
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            auto t = chaseTrace(3000, 30000);
            SystemConfig beyond = sparseCfg();
            beyond.sampling.offset = 1000000;
            SystemConfig simplified = baseCfg();
            simplified.l2Pf = L2PfKind::Simplified;
            for (const SystemConfig &cfg :
                 {baseCfg(), beyond, simplified})
                System(cfg).run(t);
            bool registered = false;
            for (const auto &c :
                 metrics::Registry::instance().snapshot().counters)
                registered |= c.name == "sim.sampled_records";
            std::exit(registered ? 1 : 0);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(Sampling, SparseScheduleScalesToFullTraceEstimates)
{
    // A genuinely sparse schedule: detailed records are a small
    // fraction, the scale is > 1, and the scaled estimates land in
    // the same ballpark as the exact run (loose 25% bands — this is
    // a sanity check, tools/sampling_error.py measures real error).
    // Uniform-random accesses over a region far beyond the LLC:
    // the miss rate is a history-free steady state sampling can
    // estimate — not an LRU scan transient, which by design it
    // cannot.
    const std::size_t n = 400000;
    workloads::StreamParams p;
    p.pc = 0x400000;
    p.regionBase = 1ull << 33;
    p.instGap = 4;
    p.seed = 3;
    workloads::NoiseStream stream(p, 200000);
    trace::Trace t;
    for (std::size_t i = 0; i < n; ++i)
        stream.emit(t);
    SystemConfig cfg = SystemConfig::table1();
    cfg.warmupRecords = 20000;

    System full(cfg);
    auto sf = full.run(t);

    cfg.sampling.enabled = true;
    cfg.sampling.warmupRecords = 10000;
    cfg.sampling.windowRecords = 5000;
    cfg.sampling.intervalRecords = 50000;
    System sampled(cfg);
    auto ss = sampled.run(t);

    EXPECT_TRUE(ss.sampled);
    EXPECT_LT(ss.sampledRecords, n / 8);
    EXPECT_GT(ss.sampleScale, 1.0);
    EXPECT_EQ(ss.records, sf.records);
    EXPECT_NEAR(ss.ipc, sf.ipc, sf.ipc * 0.25);
    EXPECT_NEAR(static_cast<double>(ss.llcMisses),
                static_cast<double>(sf.llcMisses),
                static_cast<double>(sf.llcMisses) * 0.25);
    EXPECT_NEAR(static_cast<double>(ss.dramReads),
                static_cast<double>(sf.dramReads),
                static_cast<double>(sf.dramReads) * 0.25);
}

} // anonymous namespace
} // namespace prophet::sim
