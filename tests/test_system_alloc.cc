/**
 * @file
 * Allocation-freedom of the warmed-up per-record system step: once a
 * System has seen its working set, driving further records through the
 * L1-hit, L2-miss, and prefetch-issue paths must perform zero heap
 * allocations, for every pipeline the records/sec benches gate
 * (none/triage/triangel/prophet). Enforced with a counting global
 * operator new (the same technique as test_cache.cc) around
 * System::step().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/analyzer.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "workloads/pattern_lib.hh"

namespace
{
std::atomic<std::uint64_t> g_heapAllocs{0};
} // anonymous namespace

// The replacements are not inlined: gcc would otherwise see an
// inlined malloc() or free() beside the other half of a std::vector's
// allocation and report a -Wmismatched-new-delete pairing that the
// replacements make valid.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void *
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

[[gnu::noinline]] void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void operator delete[](void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
[[gnu::noinline]] void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace prophet::sim
{
namespace
{

/**
 * A pointer chase over more lines than the L2 holds (8192): repeated
 * traversals keep generating L2 misses and give the temporal
 * prefetchers a pattern to issue on, while revisited lines produce
 * L1/L2 hits. The second trace half replays the same ring, so by the
 * time the first half has been stepped, every structure the loop
 * touches has reached its steady-state footprint.
 */
trace::Trace
chaseTrace(std::size_t records)
{
    workloads::StreamParams p;
    p.pc = 0x400000;
    p.regionBase = 1ull << 33;
    p.seed = 7;
    workloads::ChaseStream stream(p, 20000, 0.0);
    trace::Trace t;
    for (std::size_t i = 0; i < records; ++i)
        stream.emit(t);
    return t;
}

class WarmSystemStep : public ::testing::TestWithParam<L2PfKind>
{
};

TEST_P(WarmSystemStep, WarmedInnerStepDoesNotAllocate)
{
    trace::Trace t = chaseTrace(150000);

    SystemConfig cfg = SystemConfig::table1();
    cfg.l2Pf = GetParam();
    cfg.warmupRecords = 0;

    System sys(cfg);
    sys.beginRun(t.size() * 2);

    // Warm: several full ring traversals. Every PC, line, metadata
    // set, sampler set, and scratch buffer the loop will ever touch
    // is touched here.
    std::size_t warm = 100000;
    for (std::size_t i = 0; i < warm; ++i)
        sys.step(t[i]);

    // The measured window replays the same ring — L2 misses (the
    // ring exceeds L2 capacity) and prefetch issues (repeating
    // successor pattern) — plus a block of back-to-back accesses to
    // one line, the L1-hit path. See the assertions on the final
    // stats below.
    std::uint64_t before = g_heapAllocs.load();
    for (std::size_t i = warm; i < t.size(); ++i)
        sys.step(t[i]);
    trace::TraceRecord same{0x400000, 1ull << 33, 4, false, false};
    for (int i = 0; i < 64; ++i)
        sys.step(same);
    std::uint64_t during = g_heapAllocs.load() - before;

    RunStats s = sys.finish();
    EXPECT_EQ(during, 0u)
        << "warmed per-record step allocated on the "
        << (cfg.l2Pf == L2PfKind::None ? "baseline" : "prefetcher")
        << " path";

    // Prove the window exercised the paths the satellite names.
    EXPECT_GT(s.l1Accesses, s.l1Misses); // L1 hits happened
    EXPECT_GT(s.l2DemandMisses, 0u);     // L2 misses happened
    if (cfg.l2Pf != L2PfKind::None) {
        EXPECT_GT(s.l2PrefetchesIssued, 0u); // prefetch-issue path
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, WarmSystemStep,
    ::testing::Values(L2PfKind::None, L2PfKind::Triage,
                      L2PfKind::Triangel, L2PfKind::Prophet),
    [](const ::testing::TestParamInfo<L2PfKind> &info) {
        switch (info.param) {
          case L2PfKind::None:
            return "none";
          case L2PfKind::Triage:
            return "triage";
          case L2PfKind::Triangel:
            return "triangel";
          case L2PfKind::Prophet:
            return "prophet";
          default:
            return "other";
        }
    });

TEST(WarmProphetStep, AnalyzedBinaryStepDoesNotAllocate)
{
    // The hint-free default binary above gives every victim priority
    // 0, which the Multi-path Victim Buffer rejects — so its chase
    // never returns an extra path. mcf's analyzed binary carries
    // hints: victims enter the MVB and its lookups return targets,
    // the configuration the Prophet figures actually run.
    Runner runner(SystemConfig::table1(), 400000);
    const trace::Trace &t = runner.traceFor("mcf");
    SystemConfig cfg = runner.baseConfig();
    cfg.l2Pf = L2PfKind::Prophet;
    cfg.binary =
        core::Analyzer().analyze(runner.profileWorkload("mcf"));
    cfg.warmupRecords = 0;
    ASSERT_GT(cfg.binary.hints.size(), 0u);

    System sys(cfg);
    sys.beginRun(t.size());
    const std::size_t warm = t.size() / 2;
    for (std::size_t i = 0; i < warm; ++i)
        sys.step(t[i]);
    const std::uint64_t mvb_before =
        sys.prophet()->victimBuffer().stats().extraTargets;

    std::uint64_t before = g_heapAllocs.load();
    for (std::size_t i = warm; i < t.size(); ++i)
        sys.step(t[i]);
    std::uint64_t during = g_heapAllocs.load() - before;

    const std::uint64_t mvb_paths =
        sys.prophet()->victimBuffer().stats().extraTargets - mvb_before;
    RunStats s = sys.finish();
    EXPECT_EQ(during, 0u) << "warmed Prophet step allocated with an "
                          << "analyzed binary";
    EXPECT_GT(mvb_paths, 0u); // the MVB returned extra paths
    EXPECT_GT(s.l2PrefetchesIssued, 0u);
}

} // anonymous namespace
} // namespace prophet::sim
