/**
 * @file
 * End-to-end tests for the experiment driver: a spec run's rendered
 * JSON sink must match the equivalent direct Runner calls bit-for-bit
 * (same doubles, same counters), results must be independent of the
 * thread count — with the work jobs share computed once at any thread
 * count, and each trace dropped after its workload's last job — and
 * the run must carry its metadata.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/error.hh"
#include "common/fault_injection.hh"
#include "common/metrics.hh"
#include "common/span_trace.hh"
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
parseJson(const std::string &text)
{
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::parse(text, doc, &err)) << err;
    return doc;
}

json::Value
readJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseJson(buf.str());
}

/** The rendered JSON sink of a smokeSpec() run. */
json::Value
jsonOutput(const ExperimentReport &report)
{
    EXPECT_EQ(report.outputs.size(), 1u);
    if (report.outputs.empty())
        return json::Value();
    EXPECT_EQ(report.outputs[0].sink.kind, SinkSpec::Kind::JsonFile);
    return parseJson(report.outputs[0].bytes);
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
    // run() renders the sink but writes no file itself.
    EXPECT_FALSE(fs::exists(out_path));

    auto doc = jsonOutput(report);
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

/**
 * Run @p spec on 1 and on 4 threads: every result, and a report's
 * text, must agree.
 */
void
expectThreadCountIndependent(const ExperimentSpec &spec)
{
    DriverOptions o1, o4;
    o1.threads = 1;
    o4.threads = 4;
    auto r1 = ExperimentDriver(spec, o1).run();
    auto r4 = ExperimentDriver(spec, o4).run();
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    if (spec.report) {
        ASSERT_EQ(r1.outputs.size(), 1u);
        ASSERT_EQ(r4.outputs.size(), 1u);
        EXPECT_FALSE(r1.outputs[0].bytes.empty());
        EXPECT_EQ(r1.outputs[0].bytes, r4.outputs[0].bytes);
    }
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

    // A trace report fans out over its workloads on the same engine
    // and merges by workload index.
    ASSERT_TRUE(json::parse(
        "{\"name\": \"fig8\", \"report\": \"markov-targets\","
        " \"workloads\": [\"mcf\", \"omnetpp\", \"sphinx3\"],"
        " \"records\": 60000, \"trace_cache\": false}",
        doc, nullptr));
    expectThreadCountIndependent(ExperimentSpec::fromJson(doc));
}

TEST_F(DriverTest, ConcurrentJobsShareTracesBaselinesAndProfiles)
{
    // Every job needs its workload's trace, profile and baseline (for
    // "speedup"). At any thread count each of those runs once per
    // workload, beside the six Prophet runs: 2 trace loads, 2
    // profiles and 10 Systems (2 profiles + 2 baselines + 6 jobs).
    json::Value doc;
    ASSERT_TRUE(json::parse(
        "{\"name\": \"shared\","
        " \"workloads\": [\"mcf\", \"omnetpp\"],"
        " \"pipelines\": [\"prophet\","
        "   {\"name\": \"prophet\", \"label\": \"acc05\","
        "    \"el_acc\": 0.05},"
        "   {\"name\": \"prophet\", \"label\": \"deg2\","
        "    \"degree\": 2}],"
        " \"metrics\": [\"speedup\"],"
        " \"records\": " + std::to_string(kRecords) + ","
        " \"trace_cache\": false}",
        doc, nullptr));
    expectThreadCountIndependent(ExperimentSpec::fromJson(doc));

    // Each run resets the registry, so it holds the 4-thread run's.
    EXPECT_EQ(metrics::histogram("phase.trace_load_ns").count(), 2u);
    EXPECT_EQ(metrics::histogram("phase.profile_ns").count(), 2u);
    EXPECT_EQ(metrics::counter("sim.runs").value(), 10u);
}

/** Three workloads x two pipelines, no trace cache. */
ExperimentSpec
threeWorkloadSpec()
{
    json::Value doc;
    EXPECT_TRUE(json::parse(
        "{\"name\": \"release\","
        " \"workloads\": [\"mcf\", \"omnetpp\", \"sphinx3\"],"
        " \"pipelines\": [\"baseline\", \"triangel\"],"
        " \"metrics\": [\"speedup\"],"
        " \"records\": " + std::to_string(kRecords) + ","
        " \"trace_cache\": false}",
        doc, nullptr));
    return ExperimentSpec::fromJson(doc);
}

TEST_F(DriverTest, RunDropsEachTraceAfterItsWorkloadsLastJob)
{
    // At any thread count each workload's trace loads once and is
    // released once, after its last job; the results are unchanged.
    std::vector<ExperimentReport> reports;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        DriverOptions opts;
        opts.threads = threads;
        reports.push_back(
            ExperimentDriver(threeWorkloadSpec(), opts).run());
        ASSERT_TRUE(reports.back().ok());
        EXPECT_EQ(metrics::counter("runner.trace_releases").value(), 3u);
        EXPECT_EQ(metrics::histogram("phase.trace_load_ns").count(), 3u);
    }
    ASSERT_EQ(reports[0].results.size(), reports[1].results.size());
    for (std::size_t i = 0; i < reports[0].results.size(); ++i) {
        SCOPED_TRACE(reports[0].results[i].workload + "/"
                     + reports[0].results[i].pipeline);
        expectStatsEq(reports[0].results[i].stats,
                      reports[1].results[i].stats);
        EXPECT_EQ(reports[0].results[i].metrics,
                  reports[1].results[i].metrics);
    }
}

TEST_F(DriverTest, ResidentRunnerKeepsItsTraces)
{
    // The serve daemon's Runner outlives the run to warm the next
    // request, so the driver releases nothing from it.
    const ExperimentSpec spec = threeWorkloadSpec();
    sim::Runner resident(spec.baseConfig(), kRecords);
    DriverOptions opts;
    opts.threads = 4;
    opts.runner = &resident;
    auto report = ExperimentDriver(spec, opts).run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(metrics::counter("runner.trace_releases").value(), 0u);
    EXPECT_EQ(resident.residentTraces().size(), 3u);
}

TEST_F(DriverTest, FailedJobStillReleasesItsWorkload)
{
    // mcf/triangel is mcf's last job; it fails on its only attempt,
    // and that failure is what finishes mcf.
    auto spec = threeWorkloadSpec();
    spec.keepGoing = true;
    DriverOptions opts;
    opts.threads = 1;
    fault::reset();
    fault::arm("job.mcf/triangel", 1);
    auto report = ExperimentDriver(std::move(spec), opts).run();
    fault::reset();
    EXPECT_EQ(report.failedJobs, 1u);
    EXPECT_EQ(metrics::counter("runner.trace_releases").value(), 3u);
    EXPECT_EQ(metrics::histogram("phase.trace_load_ns").count(), 3u);
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
    EXPECT_EQ(report.results.size(), 6u); // results still computed
    ASSERT_EQ(report.outputs.size(), 1u);
    EXPECT_FALSE(report.outputs[0].bytes.empty());
    EXPECT_FALSE(writeSinkOutput(report.outputs[0]));
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
    auto report = drv.run();
    ASSERT_EQ(report.outputs.size(), 1u);
    ASSERT_TRUE(writeSinkOutput(report.outputs[0]));

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
    auto doc = jsonOutput(report);
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

    // Reference run, no faults.
    auto ref_spec = smokeSpec(dir + "/ref.json");
    ExperimentDriver ref_drv(std::move(ref_spec));
    auto ref = ref_drv.run();

    fault::reset();
    // Fires exactly once: the first attempt fails with a transient
    // class, the driver's bounded retry clears it.
    fault::arm("job-transient.mcf/baseline", 1, 1);
    ExperimentDriver drv(std::move(spec));
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

/** A markov-targets (Figure 8) spec over @p workloads. */
ExperimentSpec
markovTargetsSpec(const std::string &workloads, std::size_t records)
{
    return ExperimentSpec::fromJson(parseJson(
        "{\"name\": \"fig8\", \"report\": \"markov-targets\","
        " \"workloads\": " + workloads + ", \"records\": "
        + std::to_string(records) + ", \"trace_cache\": false}"));
}

TEST_F(DriverTest, ReportPassesHonourAFiredShutdownToken)
{
    // A report's passes run under the run's token like jobs: a
    // signal, a daemon client's disconnect or a drain stops them,
    // and the run reads as interrupted (exit 6), with the skipped
    // passes listed in place of the text.
    CancellationToken shutdown;
    shutdown.cancel();
    DriverOptions opts;
    opts.shutdown = &shutdown;
    opts.threads = 2;
    auto report =
        ExperimentDriver(ExperimentSpec::fromJson(parseJson(
                             "{\"report\": \"pc-accuracy\","
                             " \"workloads\": [\"mcf\", \"omnetpp\"],"
                             " \"records\": 20000,"
                             " \"trace_cache\": false}")),
                         opts)
            .run();
    EXPECT_TRUE(report.interrupted);
    EXPECT_EQ(exitCodeForReport(report, false), 6);
    ASSERT_EQ(report.results.size(), 2u);
    EXPECT_EQ(report.failedJobs, 2u);
    for (const auto &r : report.results) {
        EXPECT_EQ(r.pipeline, "pc-accuracy");
        EXPECT_EQ(r.errorCode, ErrorCode::Cancelled);
        // A report keeps no journal: nothing to resume.
        EXPECT_EQ(r.errorMessage.find("resume"), std::string::npos)
            << r.errorMessage;
    }
    ASSERT_EQ(report.outputs.size(), 1u);
    EXPECT_EQ(report.outputs[0].bytes.rfind("failures: 2 of 2 jobs", 0),
              0u)
        << report.outputs[0].bytes;
}

TEST_F(DriverTest, ReportPassDeadlineCancelsAsJobTimeout)
{
    // The Figure 8 pass builds no System: it polls the attempt's
    // token itself, so the per-job deadline (--job-timeout, a daemon
    // request's deadline) stops it mid-trace. Each attempt times out,
    // the retry too, and the report fails instead of finishing late.
    DriverOptions opts;
    opts.jobTimeoutS = 0.001;
    auto report =
        ExperimentDriver(markovTargetsSpec("[\"mcf\"]", 1'000'000), opts)
            .run();
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(exitCodeForReport(report, false), 4);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].errorCode, ErrorCode::JobTimeout);
    EXPECT_EQ(report.results[0].attempts, 2u);
    ASSERT_EQ(report.outputs.size(), 1u);
    EXPECT_EQ(report.outputs[0].bytes.rfind("failures: 1 of 1 job", 0),
              0u)
        << report.outputs[0].bytes;
}

TEST_F(DriverTest, ReportPassesRetryTransientFailuresAndFailFast)
{
    const std::string workloads = "[\"mcf\", \"omnetpp\"]";
    auto ref = ExperimentDriver(markovTargetsSpec(workloads, kRecords)).run();
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref.outputs.size(), 1u);

    // A transient failure of a pass retries, and the text is the
    // same as an unfaulted run's.
    fault::reset();
    fault::arm("job-transient.mcf/markov-targets", 1, 1);
    auto retried =
        ExperimentDriver(markovTargetsSpec(workloads, kRecords)).run();
    fault::reset();
    EXPECT_TRUE(retried.ok());
    ASSERT_EQ(retried.results.size(), 2u);
    EXPECT_EQ(retried.results[0].attempts, 2u);
    EXPECT_EQ(retried.results[1].attempts, 1u);
    ASSERT_EQ(retried.outputs.size(), 1u);
    EXPECT_EQ(retried.outputs[0].bytes, ref.outputs[0].bytes);

    // A permanent failure fails the report fast, even under
    // --keep-going: the text needs every pass.
    fault::arm("job.mcf/markov-targets", 1);
    DriverOptions keep;
    keep.keepGoing = 1;
    keep.threads = 1;
    ExperimentDriver drv(markovTargetsSpec(workloads, kRecords), keep);
    EXPECT_FALSE(drv.keepGoingEnabled());
    auto failed = drv.run();
    fault::reset();
    EXPECT_FALSE(failed.interrupted);
    EXPECT_EQ(exitCodeForReport(failed, drv.keepGoingEnabled()), 4);
    EXPECT_EQ(failed.failedJobs, 2u);
    EXPECT_EQ(failed.results[0].errorCode, ErrorCode::FaultInjected);
    EXPECT_EQ(failed.results[1].errorCode, ErrorCode::Cancelled);
    ASSERT_EQ(failed.outputs.size(), 1u);
    const std::string &text = failed.outputs[0].bytes;
    EXPECT_EQ(text.rfind("failures: 2 of 2 jobs", 0), 0u) << text;
    EXPECT_NE(text.find("mcf/markov-targets: fault-injected"),
              std::string::npos)
        << text;
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

    // A report ends in the same tail as a job matrix: it writes both
    // observability files, and span tracing is switched off again.
    const std::string trace_path = dir + "/trace.json";
    for (const char *text :
         {"{\"report\": \"storage\"}",
          "{\"report\": \"markov-targets\", \"workloads\": [\"mcf\"],"
          " \"records\": 20000, \"trace_cache\": false}"}) {
        SCOPED_TRACE(text);
        fs::remove(metrics_path);
        fs::remove(trace_path);
        DriverOptions ropts;
        ropts.metricsOut = metrics_path;
        ropts.traceOut = trace_path;
        auto report =
            ExperimentDriver(ExperimentSpec::fromJson(parseJson(text)),
                             ropts)
                .run();
        EXPECT_TRUE(report.ok());
        EXPECT_FALSE(span::enabled());
        ASSERT_TRUE(fs::exists(metrics_path));
        ASSERT_TRUE(fs::exists(trace_path));
        auto m = readJson(metrics_path);
        for (const char *key : {"phases", "counters", "jobs"})
            EXPECT_NE(m.find(key), nullptr) << key;
        auto t = readJson(trace_path);
        const json::Value *events = t.find("traceEvents");
        ASSERT_NE(events, nullptr);
        EXPECT_FALSE(events->asArray().empty());
    }
}

TEST(DriverDeathTest, UnsampledRunListsNoPhaseThatNeverRan)
{
    // Registration is process-wide and permanent, so check it in a
    // fresh process (the threadsafe style re-executes this binary).
    // An unsampled run without Prophet has no functional-warming
    // and no profiling phase, and --metrics-out lists every
    // registered phase: "warm" and "profile" must stay absent.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            const fs::path d =
                fs::temp_directory_path()
                / ("prophet_driver_phases_" + std::to_string(::getpid()));
            fs::create_directories(d);
            DriverOptions opts;
            opts.metricsOut = (d / "metrics.json").string();
            ExperimentDriver drv(smokeSpec((d / "results.json").string()),
                                 opts);
            const bool ok = drv.run().ok();
            const json::Value m = readJson(opts.metricsOut);
            const json::Value *phases = m.find("phases");
            const bool listed_only_ran = phases
                && phases->find("simulate") && phases->find("warmup")
                && !phases->find("warm") && !phases->find("profile");
            fs::remove_all(d);
            std::exit(ok && listed_only_ran ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

} // anonymous namespace
} // namespace prophet::driver
