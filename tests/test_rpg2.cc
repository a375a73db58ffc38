/**
 * @file
 * Unit tests for the RPG2 baseline: kernel identification (stride
 * kernels with resolvers only), distance tuning, and the software-
 * prefetch plan.
 */

#include <gtest/gtest.h>

#include "rpg2/distance_tuner.hh"
#include "rpg2/kernel_id.hh"
#include "rpg2/rpg2.hh"
#include "workloads/pattern_lib.hh"

namespace prophet::rpg2
{
namespace
{

using workloads::IndirectStream;
using workloads::PcResolver;
using workloads::StreamParams;

StreamParams
params()
{
    StreamParams p;
    p.pc = 0x1000;
    p.regionBase = 1ull << 32;
    p.seed = 5;
    return p;
}

/** Build a trace + resolver from an indirect stream. */
struct KernelFixture
{
    IndirectStream stream;
    trace::Trace t;
    PcResolver resolver;
    FlatMap<PC, std::uint64_t> misses;

    explicit KernelFixture(bool stride)
        : stream(params(), 512, 4096, stride)
    {
        for (int i = 0; i < 2000; ++i)
            stream.emit(t);
        resolver.registerKernel(
            stream.kernelPc(),
            [this](Addr a, std::int64_t d) {
                return stream.resolve(a, d);
            });
        // The indirect consumer causes most misses.
        misses[stream.targetPc()] = 9000;
        misses[stream.kernelPc()] = 500;
    }
};

TEST(KernelId, FindsStrideKernelWithResolver)
{
    KernelFixture f(true);
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0].pc, f.stream.kernelPc());
    EXPECT_EQ(kernels[0].stride, 4); // 4-byte index elements
    EXPECT_GT(kernels[0].strideCoverage, 0.9);
    EXPECT_GT(kernels[0].missShare, 0.9);
}

TEST(KernelId, RejectsShuffledKernel)
{
    // Computed kernels (mcf-style) have no stride: nothing
    // qualifies even though the resolver map is populated.
    KernelFixture f(false);
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, RejectsWithoutResolver)
{
    KernelFixture f(true);
    auto kernels = identifyKernels(f.t, f.misses, nullptr);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, MissShareThresholdEnforced)
{
    KernelFixture f(true);
    // The kernel + consumer cause only 5% of all misses.
    f.misses[0xdead] = 200000;
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    EXPECT_TRUE(kernels.empty());
}

TEST(KernelId, MinAccessThreshold)
{
    KernelFixture f(true);
    KernelIdConfig cfg;
    cfg.minAccesses = 1'000'000; // more than the trace has
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver, cfg);
    EXPECT_TRUE(kernels.empty());
}

/** A resolver that resolves every address of the registered PCs. */
PcResolver
resolverFor(std::initializer_list<PC> pcs)
{
    PcResolver r;
    for (PC pc : pcs)
        r.registerKernel(pc, [](Addr a, std::int64_t d) {
            return std::optional<Addr>(a + 64 * static_cast<Addr>(d));
        });
    return r;
}

TEST(KernelId, TiedDeltasSelectTheSmallerDelta)
{
    // 600 deltas alternate +8, +4, 300 of each; +8 comes first, so
    // only the tie rule, not first-seen order, picks +4.
    trace::Trace t;
    Addr a = 1ull << 32;
    for (int i = 0; i < 601; ++i) {
        t.append(0x1000, a);
        a += i % 2 == 0 ? 8 : 4;
    }
    PcResolver resolver = resolverFor({0x1000});
    FlatMap<PC, std::uint64_t> misses;
    misses[0x1000] = 100;
    KernelIdConfig cfg;
    cfg.minStrideCoverage = 0.5;
    auto kernels = identifyKernels(t, misses, &resolver, cfg);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0].stride, 4);
    EXPECT_DOUBLE_EQ(kernels[0].strideCoverage, 0.5);
}

TEST(KernelId, KernelsTiedOnMissShareComeOutInPcOrder)
{
    // Two stride kernels with equal misses; the higher PC appears
    // first in the trace.
    trace::Trace t;
    for (Addr i = 0; i < 400; ++i) {
        t.append(0x2000, (2ull << 32) + 8 * i);
        t.append(0x1000, (1ull << 32) + 4 * i);
    }
    PcResolver resolver = resolverFor({0x1000, 0x2000});
    FlatMap<PC, std::uint64_t> misses;
    misses[0x2000] = 50;
    misses[0x1000] = 50;
    auto kernels = identifyKernels(t, misses, &resolver);
    ASSERT_EQ(kernels.size(), 2u);
    EXPECT_EQ(kernels[0].pc, 0x1000u);
    EXPECT_EQ(kernels[0].stride, 4);
    EXPECT_EQ(kernels[1].pc, 0x2000u);
    EXPECT_EQ(kernels[1].stride, 8);
    EXPECT_DOUBLE_EQ(kernels[0].missShare, 0.5);
    EXPECT_DOUBLE_EQ(kernels[1].missShare, 0.5);
}

TEST(KernelId, ResolvabilityIsProbedAtThePcsFirstAddress)
{
    // The resolver answers only for the kernel PC's first access, as
    // RPG2's inserted code would be checked against a real address.
    trace::Trace t;
    const Addr first = 1ull << 32;
    t.append(0x3000, 0x500); // another PC's access comes first
    for (Addr i = 0; i < 400; ++i)
        t.append(0x1000, first + 4 * i);
    PcResolver resolver;
    resolver.registerKernel(0x1000, [first](Addr a, std::int64_t d) {
        return a == first ? std::optional<Addr>(a + 4 * d)
                          : std::nullopt;
    });
    FlatMap<PC, std::uint64_t> misses;
    misses[0x1000] = 100;
    auto kernels = identifyKernels(t, misses, &resolver);
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0].pc, 0x1000u);
}

TEST(Plan, PrefetchAddrsComputeKernelAndIndirect)
{
    KernelFixture f(true);
    auto kernels = identifyKernels(f.t, f.misses, &f.resolver);
    ASSERT_FALSE(kernels.empty());
    auto plan = buildPlan(kernels, 8);
    EXPECT_EQ(plan.size(), 1u);

    // The kernel access at trace position 0.
    Addr kaddr = f.t[0].addr;
    auto addrs =
        plan.prefetchAddrs(f.stream.kernelPc(), kaddr, &f.resolver);
    ASSERT_EQ(addrs.size(), 2u);
    EXPECT_EQ(addrs[0], kaddr + 8 * 4); // b[i + 8]
    EXPECT_EQ(addrs[1], *f.stream.resolve(kaddr, 8)); // a[b[i + 8]]
}

TEST(Plan, NonKernelPcIssuesNothing)
{
    Rpg2Plan plan;
    plan.arm(1, 4, 8);
    EXPECT_TRUE(plan.prefetchAddrs(2, 100, nullptr).empty());
}

TEST(Plan, SetDistanceUpdatesAllKernels)
{
    Rpg2Plan plan;
    plan.arm(1, 4, 8);
    plan.arm(2, 8, 8);
    plan.setDistance(16);
    auto a1 = plan.prefetchAddrs(1, 1000, nullptr);
    ASSERT_EQ(a1.size(), 1u);
    EXPECT_EQ(a1[0], 1000u + 16 * 4);
}

TEST(Plan, EmptyPlanReportsEmpty)
{
    Rpg2Plan plan;
    EXPECT_TRUE(plan.empty());
    plan.arm(1, 4, 8);
    EXPECT_FALSE(plan.empty());
}

TEST(Tuner, FindsPeakOfUnimodalCurve)
{
    // IPC peaks at distance 20.
    auto eval = [](std::int64_t d) {
        double x = static_cast<double>(d) - 20.0;
        return 2.0 - x * x / 400.0;
    };
    auto r = tuneDistance(eval, {1, 64});
    EXPECT_NEAR(static_cast<double>(r.bestDistance), 20.0, 8.0);
    EXPECT_GT(r.bestIpc, 1.8);
}

TEST(Tuner, LogarithmicEvaluationCount)
{
    int calls = 0;
    auto eval = [&](std::int64_t d) {
        ++calls;
        return static_cast<double>(d); // monotone: best at max
    };
    auto r = tuneDistance(eval, {1, 64});
    EXPECT_EQ(r.bestDistance, 64);
    EXPECT_LE(calls, 10); // binary search, not a full sweep
}

TEST(Tuner, MonotoneDecreasingPicksMin)
{
    auto eval = [](std::int64_t d) {
        return 100.0 - static_cast<double>(d);
    };
    auto r = tuneDistance(eval, {1, 64});
    EXPECT_EQ(r.bestDistance, 1);
}

} // anonymous namespace
} // namespace prophet::rpg2
