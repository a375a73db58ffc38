/**
 * @file
 * Integration tests for the experiment runner: the Prophet pipeline
 * (profile -> analyze -> run), the RPG2 pipeline, learning across
 * gcc inputs, and the normalization helpers every figure uses.
 *
 * These are the repository's end-to-end checks that the paper's
 * headline orderings emerge from the mechanisms. The last group pins
 * the Runner's compute-once caches under concurrency: shared work
 * runs once, and cancellation of either the computing or a waiting
 * caller behaves.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/metrics.hh"
#include "sim/runner.hh"

namespace prophet::sim
{
namespace
{

/**
 * Full-length traces: mcf's chase ring needs multiple traversals to
 * train, so shortening below the workload default changes behaviour.
 */
constexpr std::size_t kRecords = 0; // workload default


TEST(Runner, BaselineIsCachedAndStable)
{
    Runner r(SystemConfig::table1(), kRecords);
    const auto &a = r.baseline("sphinx3");
    const auto &b = r.baseline("sphinx3");
    EXPECT_EQ(&a, &b);
    EXPECT_GT(a.ipc, 0.0);
}

TEST(Runner, SpeedupOfBaselineIsOne)
{
    Runner r(SystemConfig::table1(), kRecords);
    const auto &b = r.baseline("sphinx3");
    EXPECT_DOUBLE_EQ(r.speedup("sphinx3", b), 1.0);
    EXPECT_DOUBLE_EQ(r.trafficNorm("sphinx3", b), 1.0);
    EXPECT_DOUBLE_EQ(r.coverage("sphinx3", b), 0.0);
}

TEST(Runner, TriangelBeatsBaselineOnTemporalWorkload)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto tri = r.run("triangel", "mcf");
    EXPECT_GT(r.speedup("mcf", tri), 1.05);
    EXPECT_GT(r.coverage("mcf", tri), 0.05);
}

TEST(Runner, ProphetPipelineProducesHintsAndWins)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runProphet("mcf");
    EXPECT_GT(out.binary.hints.size(), 0u);
    EXPECT_TRUE(out.binary.csr.prophetEnabled);
    EXPECT_GT(r.speedup("mcf", out.stats), 1.1);

    auto tri = r.run("triangel", "mcf");
    // The paper's headline: Prophet outperforms Triangel.
    EXPECT_GT(out.stats.ipc, tri.ipc);
}

TEST(Runner, ProphetResizesSmallFootprintWorkload)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runProphet("sphinx3");
    // sphinx3's temporal working set is far below 1 MB: profile-
    // guided resizing allocates fewer than the maximum ways.
    EXPECT_LT(out.binary.csr.metadataWays, 8u);
    EXPECT_GT(r.speedup("sphinx3", out.stats), 1.0);
}

TEST(Runner, Rpg2FindsNoKernelsOnPointerChasing)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runRpg2("mcf");
    // mcf's kernels are computed, not strides (Section 5.2): RPG2
    // inserts nothing and performance equals the baseline.
    EXPECT_TRUE(out.kernels.empty());
    EXPECT_DOUBLE_EQ(out.stats.ipc, r.baseline("mcf").ipc);
}

TEST(Runner, Rpg2WorksOnGraphWorkloads)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto out = r.runRpg2("sssp_100000_5");
    ASSERT_FALSE(out.kernels.empty());
    EXPECT_GT(out.tunedDistance, 0);
    // CRONO-like kernels are RPG2's strength (Section 5.5).
    EXPECT_GT(r.speedup("sssp_100000_5", out.stats), 1.02);
}

TEST(Runner, LearningImprovesUnseenInput)
{
    // Figure 13's mechanism in miniature: hints learned from
    // gcc_166 alone are sub-optimal for gcc_typeck; after learning
    // typeck's counters, performance improves.
    Runner r(SystemConfig::table1(), kRecords);

    core::Learner learner;
    learner.learn(r.profileWorkload("gcc_166"));
    core::Analyzer analyzer;
    auto bin_166 = analyzer.analyze(learner.merged());
    auto on_typeck_before =
        r.runProphetWithBinary("gcc_typeck", bin_166);

    learner.learn(r.profileWorkload("gcc_typeck"));
    auto bin_both = analyzer.analyze(learner.merged());
    auto on_typeck_after =
        r.runProphetWithBinary("gcc_typeck", bin_both);

    EXPECT_GE(on_typeck_after.ipc, on_typeck_before.ipc * 0.98);

    // And the "Direct" target: profiling typeck alone.
    auto direct = r.runProphet("gcc_typeck");
    EXPECT_GE(on_typeck_after.ipc, direct.stats.ipc * 0.9);
}

TEST(Runner, AblationFeatureOrderingOnMcf)
{
    // Figure 19's skeleton: the full feature set beats the bare
    // Triage4+metadata baseline.
    Runner r(SystemConfig::table1(), kRecords);

    core::ProphetConfig bare;
    bare.features = core::ProphetFeatures{false, false, false, false};
    auto baseline = r.runProphetWithBinary(
        "mcf", core::OptimizedBinary{}, bare);

    auto full = r.runProphet("mcf");
    EXPECT_GT(full.stats.ipc, baseline.ipc * 0.98);
}

TEST(Runner, TrafficNormAboveOneWithPrefetching)
{
    Runner r(SystemConfig::table1(), kRecords);
    auto tri = r.run("triangel", "omnetpp");
    // Prefetching trades DRAM traffic for latency (Figure 11).
    EXPECT_GE(r.trafficNorm("omnetpp", tri), 0.99);
}

// ---------------------------------------------------------------
// Compute-once caches under concurrency.
// ---------------------------------------------------------------

/** Long enough that a baseline outlasts the tests' handshakes. */
constexpr std::size_t kSharedRecords = 1'000'000;

std::uint64_t
counterValue(const char *name)
{
    return metrics::counter(name).value();
}

/**
 * Run @p call on four threads released together (each spins until
 * all four have started), and join them.
 */
template <typename Call>
void
onFourThreadsAtOnce(Call call)
{
    std::atomic<unsigned> started{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            started.fetch_add(1);
            while (started.load() < 4)
                std::this_thread::yield();
            call(t);
        });
    for (auto &th : threads)
        th.join();
}

/**
 * Start @p r's baseline of mcf on its own thread under @p token and
 * return once that thread is simulating: its trace has been generated,
 * so it claimed the baseline before any later caller can.
 */
std::thread
startComputingBaseline(Runner &r, const CancellationToken *token,
                       std::atomic<bool> &done,
                       std::exception_ptr &error)
{
    const std::uint64_t generated = counterValue("runner.trace_generated");
    std::thread computer([&r, token, &done, &error] {
        Runner::setThreadJobCancellation(token);
        try {
            r.baseline("mcf");
        } catch (...) {
            error = std::current_exception();
        }
        Runner::setThreadJobCancellation(nullptr);
        done.store(true);
    });
    while (counterValue("runner.trace_generated") == generated
           && !done.load())
        std::this_thread::yield();
    return computer;
}

void
expectCancelled(const std::exception_ptr &error)
{
    ASSERT_TRUE(error);
    try {
        std::rethrow_exception(error);
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::Cancelled) << e.what();
    }
}

TEST(RunnerSharing, ConcurrentCallersComputeEachValueOnce)
{
    Runner r(SystemConfig::table1(), 60'000);

    const std::uint64_t generated =
        counterValue("runner.trace_generated");
    std::vector<const trace::Trace *> traces(4);
    onFourThreadsAtOnce(
        [&](unsigned t) { traces[t] = &r.traceFor("omnetpp"); });
    EXPECT_EQ(counterValue("runner.trace_generated"), generated + 1);
    for (const auto *t : traces)
        EXPECT_EQ(t, traces[0]);

    const std::uint64_t runs = counterValue("sim.runs");
    std::vector<const RunStats *> baselines(4);
    onFourThreadsAtOnce(
        [&](unsigned t) { baselines[t] = &r.baseline("omnetpp"); });
    EXPECT_EQ(counterValue("sim.runs"), runs + 1);
    for (const auto *b : baselines)
        EXPECT_EQ(b, baselines[0]);

    metrics::Histogram &profile_ns =
        metrics::histogram("phase.profile_ns");
    const std::uint64_t profiles = profile_ns.count();
    std::vector<std::size_t> profiled_pcs(4);
    onFourThreadsAtOnce([&](unsigned t) {
        profiled_pcs[t] = r.profileWorkload("omnetpp").perPc.size();
    });
    EXPECT_EQ(profile_ns.count(), profiles + 1);
    EXPECT_EQ(counterValue("sim.runs"), runs + 2);
    for (std::size_t n : profiled_pcs)
        EXPECT_EQ(n, profiled_pcs[0]);

    // Nothing above loaded the trace a second time.
    EXPECT_EQ(counterValue("runner.trace_generated"), generated + 1);
}

TEST(RunnerSharing, WaiterComputesWhenTheComputerIsCancelled)
{
    Runner r(SystemConfig::table1(), kSharedRecords);
    CancellationToken computer_token;
    std::atomic<bool> computer_done{false};
    std::exception_ptr computer_error;
    std::thread computer = startComputingBaseline(
        r, &computer_token, computer_done, computer_error);

    // The waiter finds the baseline claimed and waits for it; then
    // the computing job is cancelled mid-simulation.
    RunStats waited;
    std::thread waiter([&] {
        CancellationToken own; // never fires
        Runner::setThreadJobCancellation(&own);
        waited = r.baseline("mcf");
        Runner::setThreadJobCancellation(nullptr);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    computer_token.cancel();
    computer.join();
    waiter.join();
    expectCancelled(computer_error);

    // The abandoned computation cached nothing: the waiter simulated
    // the baseline under its own token, bit for bit a fresh one.
    Runner fresh(SystemConfig::table1(), kSharedRecords);
    const RunStats &want = fresh.baseline("mcf");
    EXPECT_EQ(waited.ipc, want.ipc);
    EXPECT_EQ(waited.cycles, want.cycles);
    EXPECT_EQ(waited.l2DemandMisses, want.l2DemandMisses);
    EXPECT_EQ(waited.dramReads, want.dramReads);
    EXPECT_EQ(waited.pcMisses, want.pcMisses);
    EXPECT_EQ(&r.baseline("mcf"), &r.baseline("mcf"));
}

TEST(RunnerSharing, CancelledWaiterStopsBeforeTheComputerFinishes)
{
    Runner r(SystemConfig::table1(), kSharedRecords);
    std::atomic<bool> computer_done{false};
    std::exception_ptr computer_error;
    std::thread computer = startComputingBaseline(
        r, nullptr, computer_done, computer_error);

    CancellationToken waiter_token;
    std::exception_ptr waiter_error;
    bool computer_done_at_cancel = true;
    std::thread waiter([&] {
        Runner::setThreadJobCancellation(&waiter_token);
        try {
            r.baseline("mcf");
        } catch (...) {
            waiter_error = std::current_exception();
            computer_done_at_cancel = computer_done.load();
        }
        Runner::setThreadJobCancellation(nullptr);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    waiter_token.cancel();
    waiter.join();
    expectCancelled(waiter_error);
    EXPECT_FALSE(computer_done_at_cancel);

    // The computing caller is unaffected and fills the cache.
    computer.join();
    EXPECT_FALSE(computer_error);
    EXPECT_GT(r.baseline("mcf").ipc, 0.0);
}

TEST(RunnerSharing, ExpiredWaiterStopsBeforeTheComputerFinishes)
{
    // As above, with the waiter's deadline passing in place of a
    // cancel(): the wait polls the token, so it sees the deadline.
    Runner r(SystemConfig::table1(), kSharedRecords);
    std::atomic<bool> computer_done{false};
    std::exception_ptr computer_error;
    std::thread computer = startComputingBaseline(
        r, nullptr, computer_done, computer_error);

    CancellationToken run;
    CancellationToken waiter_token(
        &run, CancellationToken::Clock::now()
                  + std::chrono::milliseconds(10));
    std::exception_ptr waiter_error;
    bool computer_done_at_expiry = true;
    std::thread waiter([&] {
        Runner::setThreadJobCancellation(&waiter_token);
        try {
            r.baseline("mcf");
        } catch (...) {
            waiter_error = std::current_exception();
            computer_done_at_expiry = computer_done.load();
        }
        Runner::setThreadJobCancellation(nullptr);
    });
    waiter.join();
    expectCancelled(waiter_error);
    EXPECT_TRUE(waiter_token.expired());
    EXPECT_FALSE(run.cancelled());
    EXPECT_FALSE(computer_done_at_expiry);

    computer.join();
    EXPECT_FALSE(computer_error);
    EXPECT_GT(r.baseline("mcf").ipc, 0.0);
}

} // anonymous namespace
} // namespace prophet::sim
