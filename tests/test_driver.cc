/**
 * @file
 * End-to-end tests for the experiment driver: a spec run's JSON-sink
 * output must match the equivalent direct Runner calls bit-for-bit
 * (same doubles, same counters), results must be independent of the
 * thread count, and the run must carry its metadata.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault_injection.hh"
#include "driver/driver.hh"
#include "driver/json.hh"
#include "sim/runner.hh"

namespace fs = std::filesystem;

namespace prophet::driver
{
namespace
{

/** Short traces keep the end-to-end runs fast. */
constexpr std::size_t kRecords = 20'000;

ExperimentSpec
smokeSpec(const std::string &json_path)
{
    json::Value doc;
    std::string text =
        "{\"name\": \"e2e\","
        " \"workloads\": [\"mcf\", \"omnetpp\"],"
        " \"pipelines\": [\"baseline\", \"triangel\", \"triage4\"],"
        " \"metrics\": [\"ipc\", \"speedup\", \"traffic\"],"
        " \"records\": " + std::to_string(kRecords) + ","
        " \"trace_cache\": false,"
        " \"sinks\": [{\"type\": \"json\","
        "              \"path\": \"" + json_path + "\"}]}";
    EXPECT_TRUE(json::parse(text, doc, nullptr));
    return ExperimentSpec::fromJson(doc);
}

json::Value
readJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::parse(buf.str(), doc, &err)) << err;
    return doc;
}

class DriverTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path()
               / ("prophet_driver_test_"
                  + std::to_string(::getpid())))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

TEST_F(DriverTest, JsonSinkMatchesDirectRunnerBitForBit)
{
    std::string out_path = dir + "/results.json";
    ExperimentDriver drv(smokeSpec(out_path));
    auto report = drv.run();
    ASSERT_EQ(report.results.size(), 6u);

    auto doc = readJson(out_path);
    const json::Value *results = doc.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->asArray().size(), 6u);

    // The ground truth: the same experiment spelled out directly
    // against the Runner, no driver involved.
    sim::Runner runner(sim::SystemConfig::table1(), kRecords);
    const std::vector<std::string> workloads{"mcf", "omnetpp"};
    const std::vector<std::string> pipelines{"baseline", "triangel",
                                             "triage4"};
    std::size_t idx = 0;
    for (const auto &w : workloads) {
        for (const auto &p : pipelines) {
            sim::RunStats direct = runner.run(p, w);
            const json::Value &row = results->asArray()[idx++];
            EXPECT_EQ(row.find("workload")->asString(), w);
            EXPECT_EQ(row.find("pipeline")->asString(), p);

            const json::Value *stats = row.find("stats");
            ASSERT_NE(stats, nullptr);
            // Bit-for-bit: the JSON writer's %.17g round-trips the
            // exact double, and counters are exact integers.
            EXPECT_EQ(stats->find("ipc")->asNumber(), direct.ipc)
                << w << "/" << p;
            EXPECT_EQ(stats->find("cycles")->asNumber(),
                      static_cast<double>(direct.cycles));
            EXPECT_EQ(stats->find("instructions")->asNumber(),
                      static_cast<double>(direct.instructions));
            EXPECT_EQ(stats->find("l2_demand_misses")->asNumber(),
                      static_cast<double>(direct.l2DemandMisses));
            EXPECT_EQ(stats->find("dram_reads")->asNumber(),
                      static_cast<double>(direct.dramReads));
            EXPECT_EQ(stats->find("dram_writes")->asNumber(),
                      static_cast<double>(direct.dramWrites));
            EXPECT_EQ(
                stats->find("l2_prefetches_issued")->asNumber(),
                static_cast<double>(direct.l2PrefetchesIssued));

            const json::Value *metrics = row.find("metrics");
            ASSERT_NE(metrics, nullptr);
            EXPECT_EQ(metrics->find("ipc")->asNumber(), direct.ipc);
            EXPECT_EQ(metrics->find("speedup")->asNumber(),
                      runner.speedup(w, direct));
            EXPECT_EQ(metrics->find("traffic")->asNumber(),
                      runner.trafficNorm(w, direct));
        }
    }

    // Run metadata rides along.
    EXPECT_EQ(doc.find("experiment")->asString(), "e2e");
    EXPECT_EQ(doc.find("records")->asNumber(),
              static_cast<double>(kRecords));
    EXPECT_EQ(doc.find("threads")->asNumber(), 1.0);
    EXPECT_FALSE(doc.find("timestamp")->asString().empty());
    EXPECT_GE(doc.find("wall_seconds")->asNumber(), 0.0);
    // The archived hash identifies the results: the effective record
    // count is included, result-irrelevant fields (threads, sinks,
    // trace-cache switch, name) are not.
    char expect_hash[24];
    std::snprintf(expect_hash, sizeof(expect_hash), "%016llx",
                  static_cast<unsigned long long>(
                      smokeSpec(out_path).resultHash(kRecords)));
    EXPECT_EQ(doc.find("spec_hash")->asString(), expect_hash);
    auto variant = smokeSpec(out_path);
    variant.threads = 7;
    variant.name = "renamed";
    variant.sinks.clear();
    EXPECT_EQ(variant.resultHash(kRecords),
              smokeSpec(out_path).resultHash(kRecords));
    EXPECT_NE(smokeSpec(out_path).resultHash(kRecords + 1),
              smokeSpec(out_path).resultHash(kRecords));
}

/** Every RunStats field, bit for bit (doubles included). */
void
expectStatsEq(const sim::RunStats &a, const sim::RunStats &b)
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
    EXPECT_EQ(a.markov.lookups, b.markov.lookups);
    EXPECT_EQ(a.markov.hits, b.markov.hits);
    EXPECT_EQ(a.markov.inserts, b.markov.inserts);
    EXPECT_EQ(a.markov.updates, b.markov.updates);
    EXPECT_EQ(a.markov.replacements, b.markov.replacements);
    EXPECT_EQ(a.markov.resizeDrops, b.markov.resizeDrops);
    EXPECT_EQ(a.finalMetadataWays, b.finalMetadataWays);
    EXPECT_EQ(a.offchipMeta.metadataReads, b.offchipMeta.metadataReads);
    EXPECT_EQ(a.offchipMeta.metadataWrites,
              b.offchipMeta.metadataWrites);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.pcMisses, b.pcMisses);
}

/** Run @p spec on 1 and on 4 threads: every result must agree. */
void
expectThreadCountIndependent(const ExperimentSpec &spec)
{
    DriverOptions o1, o4;
    o1.threads = 1;
    o4.threads = 4;
    o1.suppressSpecSinks = o4.suppressSpecSinks = true;
    auto r1 = ExperimentDriver(spec, o1).run();
    auto r4 = ExperimentDriver(spec, o4).run();
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    ASSERT_EQ(r1.results.size(), r4.results.size());
    for (std::size_t i = 0; i < r1.results.size(); ++i) {
        SCOPED_TRACE(r1.results[i].workload + "/"
                     + r1.results[i].pipeline);
        EXPECT_EQ(r1.results[i].workload, r4.results[i].workload);
        EXPECT_EQ(r1.results[i].pipeline, r4.results[i].pipeline);
        expectStatsEq(r1.results[i].stats, r4.results[i].stats);
        EXPECT_EQ(r1.results[i].metrics, r4.results[i].metrics);
    }
}

TEST_F(DriverTest, ResultsIndependentOfThreadCount)
{
    expectThreadCountIndependent(smokeSpec(dir + "/t.json"));

    // RPG2 (identify, then a binary search of tuning runs) and
    // Prophet (profile, analyze, run) are multi-run pipelines whose
    // workers share the runner's baseline and profile caches.
    json::Value doc;
    ASSERT_TRUE(json::parse(
        "{\"name\": \"multi-run\","
        " \"workloads\": [\"sphinx3\", \"sssp_100000_5\"],"
        " \"pipelines\": [\"rpg2\", \"prophet\"],"
        " \"metrics\": [\"speedup\", \"coverage\"],"
        " \"records\": 60000, \"trace_cache\": false}",
        doc, nullptr));
    expectThreadCountIndependent(ExperimentSpec::fromJson(doc));
}

TEST_F(DriverTest, TraceCacheDoesNotChangeResults)
{
    std::string pa = dir + "/a.json", pb = dir + "/b.json";
    auto spec_a = smokeSpec(pa);
    auto spec_b = smokeSpec(pb);
    spec_b.traceCache = true;

    DriverOptions opts;
    opts.traceCacheDir = dir + "/cache";
    ExperimentDriver plain(spec_a);
    ExperimentDriver cold(spec_b, opts);
    auto r_plain = plain.run();
    auto r_cold = cold.run();
    EXPECT_GT(r_cold.meta.traceCacheMisses, 0u);

    // Second cached run: all hits, same numbers.
    auto spec_warm = smokeSpec(pb);
    spec_warm.traceCache = true;
    ExperimentDriver warm(std::move(spec_warm), opts);
    auto r_warm = warm.run();
    EXPECT_EQ(r_warm.meta.traceCacheHits, 2u);
    EXPECT_EQ(r_warm.meta.traceCacheMisses, 0u);

    ASSERT_EQ(r_plain.results.size(), r_warm.results.size());
    for (std::size_t i = 0; i < r_plain.results.size(); ++i) {
        EXPECT_EQ(r_plain.results[i].stats.ipc,
                  r_warm.results[i].stats.ipc);
        EXPECT_EQ(r_plain.results[i].stats.cycles,
                  r_warm.results[i].stats.cycles);
        EXPECT_EQ(r_cold.results[i].stats.cycles,
                  r_warm.results[i].stats.cycles);
    }
}

TEST_F(DriverTest, UnwritableSinkIsReportedNotSilent)
{
    auto spec = smokeSpec(dir + "/no/such/directory/out.json");
    ExperimentDriver drv(std::move(spec));
    auto report = drv.run();
    EXPECT_FALSE(report.sinksOk);
    EXPECT_EQ(report.results.size(), 6u); // results still computed
}

TEST_F(DriverTest, CsvSinkWritesOneRowPerJob)
{
    std::string csv_path = dir + "/out.csv";
    auto spec = smokeSpec(dir + "/unused.json");
    spec.sinks.clear();
    SinkSpec csv;
    csv.kind = SinkSpec::Kind::CsvFile;
    csv.path = csv_path;
    spec.sinks.push_back(csv);

    ExperimentDriver drv(std::move(spec));
    drv.run();

    std::ifstream in(csv_path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 7u); // header + 6 jobs
    EXPECT_EQ(lines[0].rfind("workload,pipeline,ipc,speedup,traffic,"
                             "stats_ipc",
                             0),
              0u);
    EXPECT_EQ(lines[1].rfind("mcf,baseline,", 0), 0u);
    EXPECT_EQ(lines[6].rfind("omnetpp,triage4,", 0), 0u);
}

TEST_F(DriverTest, KeepGoingIsolatesAnInjectedJobFailure)
{
    std::string out_path = dir + "/partial.json";
    auto spec = smokeSpec(out_path);
    spec.keepGoing = true;

    fault::reset();
    fault::arm("job.mcf/triangel", 1); // every attempt, one job
    ExperimentDriver drv(std::move(spec));
    EXPECT_TRUE(drv.keepGoingEnabled());
    auto report = drv.run();
    fault::reset();

    // The sibling jobs all completed with full metrics; only the
    // injected one carries an error instead of stats.
    ASSERT_EQ(report.results.size(), 6u);
    EXPECT_EQ(report.failedJobs, 1u);
    EXPECT_FALSE(report.ok());
    for (const auto &r : report.results) {
        if (r.workload == "mcf" && r.pipeline == "triangel") {
            EXPECT_FALSE(r.ok);
            EXPECT_EQ(r.errorCode, ErrorCode::FaultInjected);
            EXPECT_NE(r.errorMessage.find("injected job failure"),
                      std::string::npos);
            EXPECT_TRUE(r.metrics.empty());
            // FaultInjected is permanent: no retry burned.
            EXPECT_EQ(r.attempts, 1u);
        } else {
            EXPECT_TRUE(r.ok) << r.workload << "/" << r.pipeline;
            EXPECT_EQ(r.metrics.size(), 3u);
            EXPECT_GT(r.stats.ipc, 0.0);
        }
    }

    // The JSON sink renders the partial run: a failed_jobs count at
    // the root and an error object on exactly the failed row.
    auto doc = readJson(out_path);
    EXPECT_EQ(doc.find("failed_jobs")->asNumber(), 1.0);
    const auto &rows = doc.find("results")->asArray();
    ASSERT_EQ(rows.size(), 6u);
    std::size_t errored = 0;
    for (const auto &row : rows) {
        const json::Value *err = row.find("error");
        if (!err)
            continue;
        ++errored;
        EXPECT_EQ(row.find("workload")->asString(), "mcf");
        EXPECT_EQ(row.find("pipeline")->asString(), "triangel");
        EXPECT_EQ(err->find("code")->asString(), "fault-injected");
        EXPECT_EQ(err->find("attempts")->asNumber(), 1.0);
    }
    EXPECT_EQ(errored, 1u);
}

TEST_F(DriverTest, TransientFailureIsRetriedToSuccess)
{
    std::string out_path = dir + "/retry.json";
    auto spec = smokeSpec(out_path);
    spec.keepGoing = true;
    DriverOptions opts;
    opts.retryBackoffMs = 0; // keep the test fast

    // Reference run, no faults.
    auto ref_spec = smokeSpec(dir + "/ref.json");
    ExperimentDriver ref_drv(std::move(ref_spec));
    auto ref = ref_drv.run();

    fault::reset();
    // Fires exactly once: the first attempt fails with a transient
    // class, the driver's bounded retry clears it.
    fault::arm("job-transient.mcf/baseline", 1, 1);
    ExperimentDriver drv(std::move(spec), opts);
    auto report = drv.run();
    fault::reset();

    EXPECT_EQ(report.failedJobs, 0u);
    ASSERT_EQ(report.results.size(), ref.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        const JobResult &r = report.results[i];
        EXPECT_TRUE(r.ok);
        // The retried job reports its attempt count; the result is
        // bit-identical to the unfaulted run.
        bool retried =
            r.workload == "mcf" && r.pipeline == "baseline";
        EXPECT_EQ(r.attempts, retried ? 2u : 1u)
            << r.workload << "/" << r.pipeline;
        EXPECT_EQ(r.stats.ipc, ref.results[i].stats.ipc);
        EXPECT_EQ(r.stats.cycles, ref.results[i].stats.cycles);
    }
}

TEST_F(DriverTest, FailFastSkipsTheRemainingJobs)
{
    std::string out_path = dir + "/failfast.json";
    auto spec = smokeSpec(out_path); // keepGoing defaults to false

    fault::reset();
    fault::arm("job.mcf/baseline", 1); // the very first job
    ExperimentDriver drv(std::move(spec));
    EXPECT_FALSE(drv.keepGoingEnabled());
    auto report = drv.run();
    fault::reset();

    // Single-threaded fail-fast: the first job fails, everything
    // after it is skipped with a Cancelled marker, and every slot
    // still carries its (workload, pipeline) identity for the table.
    ASSERT_EQ(report.results.size(), 6u);
    EXPECT_EQ(report.failedJobs, 6u);
    EXPECT_EQ(report.results[0].errorCode, ErrorCode::FaultInjected);
    for (std::size_t i = 1; i < report.results.size(); ++i) {
        const JobResult &r = report.results[i];
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorCode, ErrorCode::Cancelled);
        EXPECT_FALSE(r.workload.empty());
        EXPECT_FALSE(r.pipeline.empty());
    }
}

TEST_F(DriverTest, MetricsOutWritesReportAndResetsBetweenRuns)
{
    std::string out_path = dir + "/results.json";
    std::string metrics_path = dir + "/metrics.json";

    DriverOptions opts;
    opts.metricsOut = metrics_path;
    {
        ExperimentDriver drv(smokeSpec(out_path), opts);
        auto report = drv.run();
        EXPECT_TRUE(report.ok());
    }
    auto first = readJson(metrics_path);

    // Required report sections.
    for (const char *key :
         {"phases", "counters", "histograms", "jobs",
          "peak_rss_bytes", "thread_pool", "wall_seconds"})
        EXPECT_NE(first.find(key), nullptr) << key;

    // Six jobs, each with its timing fields.
    const json::Value *jobs = first.find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->asArray().size(), 6u);
    for (const auto &j : jobs->asArray()) {
        EXPECT_TRUE(j.find("ok")->asBool());
        EXPECT_GT(j.find("seconds")->asNumber(), 0.0);
        EXPECT_GT(j.find("records")->asNumber(), 0.0);
    }

    // The phase split covers trace loading and simulation.
    const json::Value *phases = first.find("phases");
    ASSERT_NE(phases, nullptr);
    for (const char *p : {"trace_load", "warmup", "simulate"}) {
        const json::Value *ph = phases->find(p);
        ASSERT_NE(ph, nullptr) << p;
        EXPECT_GT(ph->find("seconds")->asNumber(), 0.0) << p;
        EXPECT_GT(ph->find("count")->asNumber(), 0.0) << p;
    }

    double first_records =
        first.find("counters")->find("sim.records")->asNumber();
    EXPECT_GT(first_records, 0.0);

    // A second driver run resets the registry: its report counts
    // only its own work, not the accumulated total of both runs.
    {
        ExperimentDriver drv(smokeSpec(out_path), opts);
        auto report = drv.run();
        EXPECT_TRUE(report.ok());
    }
    auto second = readJson(metrics_path);
    EXPECT_EQ(
        second.find("counters")->find("sim.records")->asNumber(),
        first_records);
}

} // anonymous namespace
} // namespace prophet::driver
