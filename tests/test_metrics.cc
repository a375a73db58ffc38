/**
 * @file
 * Tests for the metrics registry: concurrent counter increments sum
 * exactly, histogram bucket edges follow the log2 rule, references
 * survive resetValues() (the driver resets between runs while
 * subsystems keep cached references), and snapshots are
 * deterministic name order.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/metrics.hh"

namespace prophet
{
namespace
{

TEST(Metrics, ConcurrentIncrementsSumExactly)
{
    metrics::Counter &c =
        metrics::counter("test.concurrent_increments");
    c.reset();
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 100000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, CounterIncByDelta)
{
    metrics::Counter &c = metrics::counter("test.counter_delta");
    c.reset();
    c.inc(41);
    c.inc();
    EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, HistogramBucketEdges)
{
    // Bucket 0 holds exact zeros; bucket i >= 1 holds [2^(i-1), 2^i).
    EXPECT_EQ(metrics::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(metrics::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(metrics::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(metrics::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(metrics::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(metrics::Histogram::bucketOf(7), 3u);
    EXPECT_EQ(metrics::Histogram::bucketOf(8), 4u);
    EXPECT_EQ(metrics::Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(metrics::Histogram::bucketOf(1024), 11u);
    // The top bucket absorbs everything past 2^62.
    EXPECT_EQ(metrics::Histogram::bucketOf(~std::uint64_t{0}),
              metrics::Histogram::kBuckets - 1);

    EXPECT_EQ(metrics::Histogram::bucketLowerBound(0), 0u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(1), 1u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(2), 2u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(3), 4u);
    EXPECT_EQ(metrics::Histogram::bucketLowerBound(11), 1024u);

    // Round-trip: every sample lands in a bucket whose bound is <=
    // the sample.
    for (std::uint64_t s : {0ull, 1ull, 5ull, 100ull, 1ull << 20,
                            ~0ull >> 1}) {
        std::size_t b = metrics::Histogram::bucketOf(s);
        EXPECT_LE(metrics::Histogram::bucketLowerBound(b), s);
    }
}

TEST(Metrics, HistogramCountSumMinMax)
{
    metrics::Histogram &h = metrics::histogram("test.hist_stats");
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u); // empty histogram reports 0, not 2^64-1
    EXPECT_EQ(h.max(), 0u);

    h.record(5);
    h.record(100);
    h.record(3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 108u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.bucket(metrics::Histogram::bucketOf(5)), 1u);

    auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 3u);
    EXPECT_EQ(snap.sum, 108u);
    EXPECT_EQ(snap.min, 3u);
    EXPECT_EQ(snap.max, 100u);
    ASSERT_EQ(snap.buckets.size(), metrics::Histogram::kBuckets);
}

TEST(Metrics, ResetValuesKeepsRegistrationsAndAddresses)
{
    // The driver calls resetValues() at the start of every run while
    // subsystems hold cached references from earlier runs — the
    // whole design hinges on those references staying valid.
    metrics::Counter &before = metrics::counter("test.reset_keep");
    before.inc(7);
    metrics::Registry::instance().resetValues();
    EXPECT_EQ(before.value(), 0u);
    metrics::Counter &after = metrics::counter("test.reset_keep");
    EXPECT_EQ(&before, &after);
    after.inc();
    EXPECT_EQ(before.value(), 1u);
}

TEST(Metrics, SnapshotIsNameOrdered)
{
    metrics::counter("test.zzz_order").inc();
    metrics::counter("test.aaa_order").inc();
    auto snap = metrics::Registry::instance().snapshot();
    ASSERT_GE(snap.counters.size(), 2u);
    for (std::size_t i = 1; i < snap.counters.size(); ++i)
        EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST(Metrics, KindCollisionDies)
{
    metrics::counter("test.kind_collision");
    EXPECT_DEATH(metrics::histogram("test.kind_collision"), "");
}

TEST(Metrics, ScopedTimerRecordsIntoHistogram)
{
    metrics::Histogram &h = metrics::histogram("test.scoped_timer");
    h.reset();
    {
        metrics::ScopedTimer t(h);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(h.count(), 1u);
    EXPECT_GE(h.sum(), 1000000u); // slept >= 1 ms

    // stop() records once and detaches; destruction adds nothing.
    {
        metrics::ScopedTimer t(h);
        EXPECT_GT(t.stop(), 0u);
    }
    EXPECT_EQ(h.count(), 2u);
}

} // anonymous namespace
} // namespace prophet
