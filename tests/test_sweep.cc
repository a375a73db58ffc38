/**
 * @file
 * Tests for the parallel sweep engine: thread counts, which threads
 * run the jobs, fan-out coverage, busy-time accounting, failure
 * capture and propagation, and fail-fast cancellation. That sweeps
 * are bit-identical across thread counts is checked end to end
 * through the driver (test_driver.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "sim/sweep.hh"

namespace prophet::sim
{
namespace
{

TEST(Sweep, ZeroThreadsMeansHardwareConcurrency)
{
    EXPECT_GE(SweepEngine(0).threads(), 1u);
    EXPECT_EQ(SweepEngine(3).threads(), 3u);
}

TEST(Sweep, OneThreadRunsEveryIndexInOrderOnTheCaller)
{
    SweepEngine engine(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool on_caller = true;
    engine.forEach(5, [&](std::size_t i) {
        order.push_back(i);
        on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(on_caller);
}

TEST(Sweep, WorkersAreCappedAtTheIndexCountAndExcludeTheCaller)
{
    // Four threads over two indices: at most two workers start, and
    // the calling thread runs no job.
    SweepEngine engine(4);
    const auto caller = std::this_thread::get_id();
    std::mutex mu;
    std::set<std::thread::id> ran_on;
    engine.forEach(2, [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ran_on.insert(std::this_thread::get_id());
    });
    EXPECT_GE(ran_on.size(), 1u);
    EXPECT_LE(ran_on.size(), 2u);
    EXPECT_EQ(ran_on.count(caller), 0u);
}

TEST(Sweep, BusyTimeCountsOnOneThreadToo)
{
    metrics::Counter &busy = metrics::counter("threadpool.busy_ns");
    for (unsigned threads : {1u, 2u}) {
        SCOPED_TRACE(threads);
        const std::uint64_t before = busy.value();
        SweepEngine(threads).forEach(2, [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        EXPECT_GE(busy.value() - before, 2'000'000u);
    }
}

TEST(Sweep, ForEachCoversAllIndicesOnce)
{
    SweepEngine engine(4);
    std::vector<std::atomic<int>> hits(64);
    engine.forEach(64, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Sweep, ForEachRethrowsTheLowestIndexFailure)
{
    // Every index runs; of several failures, the lowest index's
    // exception is the one rethrown, whatever the completion order.
    SweepEngine engine(4);
    std::atomic<int> ran{0};
    try {
        engine.forEach(8, [&](std::size_t i) {
            ++ran;
            if (i == 2 || i == 5)
                throw std::runtime_error("boom " + std::to_string(i));
        });
        FAIL() << "forEach swallowed the job exceptions";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 2");
    }
    EXPECT_EQ(ran.load(), 8);
}

TEST(SweepEngine, TryForEachKeepGoingIsolatesTheFailingJob)
{
    SweepEngine engine(4);
    std::atomic<int> ran{0};
    auto failures = engine.tryForEach(
        8,
        [&](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("job 3 boom");
            ++ran;
        },
        SweepEngine::FailurePolicy::KeepGoing);
    // Every sibling of the failing job still ran.
    EXPECT_EQ(ran.load(), 7);
    ASSERT_EQ(failures.size(), 8u);
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_TRUE(failures[i].ok()) << "job " << i;
    }
    ASSERT_TRUE(failures[3].error);
    EXPECT_FALSE(failures[3].skipped);
    try {
        std::rethrow_exception(failures[3].error);
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 3 boom");
    }
}

TEST(SweepEngine, TryForEachFailFastSkipsTheRestAndFiresTheToken)
{
    // Serial engine: job order is deterministic, so the failure at
    // index 1 must leave 0 complete and 2..3 skipped-not-run.
    SweepEngine engine(1);
    CancellationToken token;
    std::atomic<int> ran{0};
    auto failures = engine.tryForEach(
        4,
        [&](std::size_t i) {
            if (i == 1)
                throw std::runtime_error("first failure");
            ++ran;
        },
        SweepEngine::FailurePolicy::FailFast, &token);
    EXPECT_EQ(ran.load(), 1);
    ASSERT_EQ(failures.size(), 4u);
    EXPECT_TRUE(failures[0].ok());
    EXPECT_TRUE(failures[1].error);
    EXPECT_TRUE(failures[2].skipped);
    EXPECT_TRUE(failures[3].skipped);
    EXPECT_FALSE(failures[2].error);
    EXPECT_TRUE(token.cancelled());
}

} // anonymous namespace
} // namespace prophet::sim
