/**
 * @file
 * The crash-safe result journal, unit and end-to-end:
 *
 *  - entries round-trip bit-for-bit (every RunStats field, including
 *    the per-PC miss map, and every metric's double);
 *  - a torn tail (writer killed mid-append) is truncated on load and
 *    everything before it replays;
 *  - a bit-flipped mid-file entry is skipped — later intact entries
 *    still replay;
 *  - a journal written by a different spec is refused (SpecError);
 *  - the "journal.load" / "journal.append" fault sites degrade
 *    gracefully (skipped entry / lost checkpoint, never a crash);
 *  - a resumed driver run merges journaled and fresh jobs into
 *    output byte-identical to a from-scratch run, simulating only
 *    what the journal lacks;
 *  - the watchdog cancels an overrunning job as a transient
 *    JobTimeout, and a pre-fired shutdown token drains the run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "common/cancellation.hh"
#include "common/error.hh"
#include "common/fault_injection.hh"
#include "common/metrics.hh"
#include "driver/driver.hh"
#include "driver/journal.hh"
#include "driver/json.hh"

namespace fs = std::filesystem;

namespace prophet::driver
{
namespace
{

constexpr std::uint64_t kHash = 0x1234'5678'9abc'def0ull;

/** A RunStats with every serialized field distinct and non-zero. */
sim::RunStats
fabricatedStats(unsigned seed)
{
    sim::RunStats s;
    std::uint64_t v = 1000ull * seed + 1;
    s.ipc = 0.5 + 0.01 * seed;
    s.cycles = v++;
    s.instructions = v++;
    s.records = v++;
    s.l1Misses = v++;
    s.l2DemandAccesses = v++;
    s.l2DemandMisses = v++;
    s.llcMisses = v++;
    s.l2PrefetchesIssued = v++;
    s.l2PrefetchesUseful = v++;
    s.latePrefetches = v++;
    s.dramReads = v++;
    s.dramWrites = v++;
    s.dramPrefetchReads = v++;
    s.markov.lookups = v++;
    s.markov.hits = v++;
    s.markov.inserts = v++;
    s.markov.updates = v++;
    s.markov.replacements = v++;
    s.markov.resizeDrops = v++;
    s.finalMetadataWays = 3 + seed;
    s.sampled = (seed % 2) != 0;
    s.sampledRecords = v++;
    s.sampleScale = 1.0 + 0.25 * seed;
    s.offchipMeta.metadataReads = v++;
    s.offchipMeta.metadataWrites = v++;
    s.l1Accesses = v++;
    s.l2Accesses = v++;
    s.llcAccesses = v++;
    for (unsigned i = 0; i < 4; ++i)
        s.pcMisses.emplace(0x4000'0000ull + seed * 16 + i,
                           v + i * 7);
    return s;
}

JournalEntry
fabricatedEntry(unsigned seed)
{
    JournalEntry e;
    e.jobIndex = seed;
    e.workload = "wl" + std::to_string(seed);
    e.pipeline = "pipe" + std::to_string(seed);
    e.attempts = 1 + seed % 3;
    e.stats = fabricatedStats(seed);
    // Doubles whose bits a decimal round trip or a == compare would
    // not pin: a repeating fraction, negative zero, a subnormal.
    e.metrics = {{"speedup", 1.0 / 3.0 + seed},
                 {"traffic", -0.0},
                 {"coverage", 4.9e-324 * (seed + 1)}};
    if (seed % 2)
        e.metrics.clear(); // a spec may request no metrics
    return e;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

void
expectStatsEqual(const sim::RunStats &a, const sim::RunStats &b)
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
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampledRecords, b.sampledRecords);
    EXPECT_EQ(a.sampleScale, b.sampleScale);
    EXPECT_EQ(a.offchipMeta.metadataReads, b.offchipMeta.metadataReads);
    EXPECT_EQ(a.offchipMeta.metadataWrites,
              b.offchipMeta.metadataWrites);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    ASSERT_EQ(a.pcMisses.size(), b.pcMisses.size());
    auto ia = a.pcMisses.begin();
    auto ib = b.pcMisses.begin();
    for (; ia != a.pcMisses.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first);
        EXPECT_EQ(ia->second, ib->second);
    }
}

std::vector<unsigned char>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path,
               const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path,
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/**
 * Frame boundaries of the on-disk entries: byte offset where each
 * entry's frame starts (after the 16-byte header). Mirrors the
 * format so corruption tests can hit exact bytes.
 */
std::vector<std::size_t>
frameOffsets(const std::vector<unsigned char> &bytes)
{
    std::vector<std::size_t> offsets;
    std::size_t pos = 16;
    while (pos + 8 <= bytes.size()) {
        offsets.push_back(pos);
        std::uint32_t len = 0;
        std::memcpy(&len, bytes.data() + pos + 4, 4);
        pos += 8 + len + 8;
    }
    return offsets;
}

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        dir = (fs::temp_directory_path()
               / ("prophet_journal_test_"
                  + std::to_string(::getpid())))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
        path = dir + "/run.journal";
    }

    void
    TearDown() override
    {
        fault::reset();
        fs::remove_all(dir);
    }

    std::string dir;
    std::string path;
};

TEST_F(JournalTest, EntriesRoundTripBitForBit)
{
    {
        ResultJournal j(path, kHash);
        EXPECT_TRUE(j.entries().empty());
        for (unsigned i = 0; i < 5; ++i)
            EXPECT_TRUE(j.append(fabricatedEntry(i)));
    }
    ResultJournal j(path, kHash);
    EXPECT_EQ(j.corruptSkipped(), 0u);
    EXPECT_EQ(j.truncatedBytes(), 0u);
    ASSERT_EQ(j.entries().size(), 5u);
    for (unsigned i = 0; i < 5; ++i) {
        const JournalEntry &e = j.entries()[i];
        JournalEntry want = fabricatedEntry(i);
        EXPECT_EQ(e.jobIndex, want.jobIndex);
        EXPECT_EQ(e.workload, want.workload);
        EXPECT_EQ(e.pipeline, want.pipeline);
        EXPECT_EQ(e.attempts, want.attempts);
        expectStatsEqual(e.stats, want.stats);
        ASSERT_EQ(e.metrics.size(), want.metrics.size());
        for (std::size_t m = 0; m < want.metrics.size(); ++m) {
            EXPECT_EQ(e.metrics[m].first, want.metrics[m].first);
            EXPECT_EQ(bitsOf(e.metrics[m].second),
                      bitsOf(want.metrics[m].second))
                << e.metrics[m].first;
        }
    }
}

TEST_F(JournalTest, TornTailIsTruncatedAndPrefixReplays)
{
    {
        ResultJournal j(path, kHash);
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_TRUE(j.append(fabricatedEntry(i)));
    }
    auto bytes = readFileBytes(path);
    auto offsets = frameOffsets(bytes);
    ASSERT_EQ(offsets.size(), 3u);
    // Kill the writer mid-append: chop the file partway into the
    // third frame (several split points, including inside the
    // magic, the payload, and the trailing checksum).
    for (std::size_t cut : {offsets[2] + 2, offsets[2] + 9,
                            bytes.size() - 3}) {
        std::vector<unsigned char> torn(bytes.begin(),
                                        bytes.begin()
                                            + static_cast<long>(cut));
        writeFileBytes(path, torn);
        ResultJournal j(path, kHash);
        EXPECT_EQ(j.entries().size(), 2u) << "cut at " << cut;
        EXPECT_GT(j.truncatedBytes(), 0u);
        EXPECT_EQ(fs::file_size(path), offsets[2]);
    }
}

TEST_F(JournalTest, AppendAfterTruncatedTailKeepsJournalValid)
{
    {
        ResultJournal j(path, kHash);
        for (unsigned i = 0; i < 2; ++i)
            EXPECT_TRUE(j.append(fabricatedEntry(i)));
    }
    auto bytes = readFileBytes(path);
    bytes.resize(bytes.size() - 5); // torn tail on entry 1
    writeFileBytes(path, bytes);
    {
        ResultJournal j(path, kHash);
        ASSERT_EQ(j.entries().size(), 1u);
        EXPECT_TRUE(j.append(fabricatedEntry(7)));
    }
    ResultJournal j(path, kHash);
    ASSERT_EQ(j.entries().size(), 2u);
    EXPECT_EQ(j.entries()[1].workload, "wl7");
    EXPECT_EQ(j.corruptSkipped(), 0u);
}

TEST_F(JournalTest, BitFlippedEntryIsSkippedLaterEntriesSurvive)
{
    {
        ResultJournal j(path, kHash);
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_TRUE(j.append(fabricatedEntry(i)));
    }
    auto bytes = readFileBytes(path);
    auto offsets = frameOffsets(bytes);
    ASSERT_EQ(offsets.size(), 3u);
    // Flip one payload byte of the middle entry (past the frame
    // header, so the frame structure stays intact).
    bytes[offsets[1] + 8 + 20] ^= 0x40;
    writeFileBytes(path, bytes);

    ResultJournal j(path, kHash);
    EXPECT_EQ(j.corruptSkipped(), 1u);
    ASSERT_EQ(j.entries().size(), 2u);
    EXPECT_EQ(j.entries()[0].workload, "wl0");
    EXPECT_EQ(j.entries()[1].workload, "wl2");
}

TEST_F(JournalTest, SpecHashMismatchIsRefused)
{
    {
        ResultJournal j(path, kHash);
        EXPECT_TRUE(j.append(fabricatedEntry(0)));
    }
    try {
        ResultJournal j(path, kHash + 1);
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("different experiment"),
                  std::string::npos)
            << e.what();
    }
    // The original spec can still open and extend it.
    ResultJournal j(path, kHash);
    EXPECT_EQ(j.entries().size(), 1u);
}

TEST_F(JournalTest, UnrelatedFileIsRestartedNotReplayed)
{
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a journal";
    }
    ResultJournal j(path, kHash);
    EXPECT_TRUE(j.entries().empty());
    EXPECT_TRUE(j.append(fabricatedEntry(0)));
    ResultJournal again(path, kHash);
    EXPECT_EQ(again.entries().size(), 1u);
}

TEST_F(JournalTest, LoadFaultSiteDropsExactlyThatEntry)
{
    {
        ResultJournal j(path, kHash);
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_TRUE(j.append(fabricatedEntry(i)));
    }
    fault::arm("journal.load", 2, 1); // second entry only
    ResultJournal j(path, kHash);
    EXPECT_EQ(j.corruptSkipped(), 1u);
    ASSERT_EQ(j.entries().size(), 2u);
    EXPECT_EQ(j.entries()[0].workload, "wl0");
    EXPECT_EQ(j.entries()[1].workload, "wl2");
}

TEST_F(JournalTest, AppendFaultSiteLosesOnlyThatCheckpoint)
{
    {
        ResultJournal j(path, kHash);
        EXPECT_TRUE(j.append(fabricatedEntry(0)));
        fault::arm("journal.append", 1, 1);
        EXPECT_FALSE(j.append(fabricatedEntry(1))); // injected loss
        EXPECT_TRUE(j.append(fabricatedEntry(2)));  // recovers
    }
    ResultJournal j(path, kHash);
    EXPECT_EQ(j.corruptSkipped(), 0u);
    ASSERT_EQ(j.entries().size(), 2u);
    EXPECT_EQ(j.entries()[0].workload, "wl0");
    EXPECT_EQ(j.entries()[1].workload, "wl2");
}

// ---------------------------------------------------------------
// End-to-end: the driver resuming, timing out, and draining.
// ---------------------------------------------------------------

constexpr std::size_t kRecords = 20'000;

/** mcf+omnetpp x baseline+triangel with a CSV sink: 4 jobs, and
 *  "speedup" makes every job need its workload's baseline. */
ExperimentSpec
resumableSpec(const std::string &csv_path)
{
    json::Value doc;
    std::string text =
        "{\"name\": \"resumable\","
        " \"workloads\": [\"mcf\", \"omnetpp\"],"
        " \"pipelines\": [\"baseline\", \"triangel\"],"
        " \"metrics\": [\"ipc\", \"speedup\"],"
        " \"records\": " + std::to_string(kRecords) + ","
        " \"trace_cache\": false,"
        " \"sinks\": [{\"type\": \"csv\","
        "              \"path\": \"" + csv_path + "\"}]}";
    EXPECT_TRUE(json::parse(text, doc, nullptr));
    return ExperimentSpec::fromJson(doc);
}

std::uint64_t
counterValue(const std::string &name)
{
    return metrics::counter(name).value();
}

/** The rendered CSV sink of a resumableSpec() run. */
std::string
csvOutput(const ExperimentReport &report)
{
    EXPECT_EQ(report.outputs.size(), 1u);
    return report.outputs.empty() ? "" : report.outputs[0].bytes;
}

TEST_F(JournalTest, ResumedRunMergesByteIdenticalWithScratchRun)
{
    const std::string csv = dir + "/out.csv";
    const std::string journal = dir + "/spec.journal";

    // Ground truth: one uninterrupted run, no journal.
    std::string ref_csv;
    {
        ExperimentDriver drv(resumableSpec(csv));
        auto report = drv.run();
        EXPECT_TRUE(report.ok());
        ref_csv = csvOutput(report);
    }

    // First attempt: journaled, one job fails permanently — the
    // other three complete and checkpoint.
    DriverOptions opts;
    opts.journalPath = journal;
    opts.keepGoing = 1;
    fault::arm("job.omnetpp/triangel", 1);
    {
        ExperimentDriver drv(resumableSpec(csv), opts);
        auto report = drv.run();
        EXPECT_EQ(report.failedJobs, 1u);
        EXPECT_EQ(report.resumedJobs, 0u);
    }
    fault::reset();

    // Resume: the three journaled jobs replay (counted) with their
    // metrics, only the failed one re-simulates — plus omnetpp's
    // baseline, which its speedup needs and no journal entry holds —
    // and the merged CSV is byte-identical to the scratch run's.
    ExperimentDriver drv(resumableSpec(csv), opts);
    auto report = drv.run();
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.resumedJobs, 3u);
    EXPECT_EQ(counterValue("journal.hits"), 3u);
    EXPECT_EQ(counterValue("sim.runs"), 2u);
    std::size_t resumed = 0;
    for (const auto &r : report.results)
        resumed += r.resumed ? 1 : 0;
    EXPECT_EQ(resumed, 3u);
    EXPECT_EQ(csvOutput(report), ref_csv);
}

TEST_F(JournalTest, ResumeAfterCompletionReplaysEverything)
{
    const std::string csv = dir + "/out.csv";
    DriverOptions opts;
    opts.journalPath = dir + "/spec.journal";
    std::string first;
    {
        ExperimentDriver drv(resumableSpec(csv), opts);
        auto report = drv.run();
        EXPECT_TRUE(report.ok());
        first = csvOutput(report);
        EXPECT_EQ(counterValue("runner.trace_releases"), 2u);
    }
    ExperimentDriver drv(resumableSpec(csv), opts);
    auto report = drv.run();
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.resumedJobs, 4u);
    // Replayed jobs carry their metrics: nothing simulates, not even
    // the baselines "speedup" divides by, and no trace is loaded, so
    // none is released.
    EXPECT_EQ(counterValue("sim.runs"), 0u);
    EXPECT_EQ(metrics::histogram("phase.trace_load_ns").count(), 0u);
    EXPECT_EQ(counterValue("runner.trace_releases"), 0u);
    EXPECT_EQ(csvOutput(report), first);
}

TEST_F(JournalTest, JournalFromDifferentSpecRefusesToResume)
{
    DriverOptions opts;
    opts.journalPath = dir + "/spec.journal";
    {
        ExperimentDriver drv(resumableSpec(dir + "/a.csv"), opts);
        EXPECT_TRUE(drv.run().ok());
    }
    // Same journal, different experiment (records changed).
    auto spec = resumableSpec(dir + "/b.csv");
    spec.records = kRecords / 2;
    ExperimentDriver drv(std::move(spec), opts);
    EXPECT_THROW(drv.run(), SpecError);
}

TEST_F(JournalTest, WatchdogTimesOutAnOverrunningJob)
{
    json::Value doc;
    std::string text =
        "{\"name\": \"slow\","
        " \"workloads\": [\"mcf\"],"
        " \"pipelines\": [\"triangel\"],"
        " \"metrics\": [\"ipc\"],"
        " \"records\": 2000000,"
        " \"trace_cache\": false,"
        " \"sinks\": [{\"type\": \"csv\","
        "              \"path\": \"" + dir + "/slow.csv\"}]}";
    ASSERT_TRUE(json::parse(text, doc, nullptr));
    DriverOptions opts;
    opts.jobTimeoutS = 0.001; // 2M records cannot finish in 1 ms
    opts.keepGoing = 1;
    ExperimentDriver drv(ExperimentSpec::fromJson(doc), opts);
    auto report = drv.run();
    ASSERT_EQ(report.results.size(), 1u);
    const JobResult &r = report.results[0];
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, ErrorCode::JobTimeout);
    EXPECT_EQ(r.attempts, 2u); // transient: retried, timed out again
    EXPECT_NE(r.errorMessage.find("deadline"), std::string::npos);
    EXPECT_GE(counterValue("watchdog.fires"), 2u);
    EXPECT_FALSE(report.interrupted);
}

TEST_F(JournalTest, SpecDeadlineDrivesTheWatchdogToo)
{
    json::Value doc;
    std::string text =
        "{\"name\": \"slow\","
        " \"workloads\": [\"mcf\"],"
        " \"pipelines\": [\"triangel\"],"
        " \"metrics\": [\"ipc\"],"
        " \"records\": 2000000,"
        " \"deadline_s\": 0.001,"
        " \"trace_cache\": false,"
        " \"sinks\": [{\"type\": \"csv\","
        "              \"path\": \"" + dir + "/slow.csv\"}]}";
    ASSERT_TRUE(json::parse(text, doc, nullptr));
    DriverOptions opts;
    opts.keepGoing = 1;
    ExperimentDriver drv(ExperimentSpec::fromJson(doc), opts);
    auto report = drv.run();
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].errorCode, ErrorCode::JobTimeout);
    EXPECT_EQ(report.results[0].attempts, 2u);

    // And --job-timeout 0 overrides the spec deadline off.
    DriverOptions off = opts;
    off.jobTimeoutS = 0.0;
    ExperimentDriver drv2(ExperimentSpec::fromJson(doc), off);
    EXPECT_TRUE(drv2.run().ok());
}

TEST_F(JournalTest, PreFiredShutdownTokenDrainsTheRun)
{
    const std::string csv = dir + "/out.csv";
    CancellationToken shutdown;
    shutdown.cancel();
    DriverOptions opts;
    opts.shutdown = &shutdown;
    opts.keepGoing = 1;
    opts.journalPath = dir + "/spec.journal";
    ExperimentDriver drv(resumableSpec(csv), opts);
    auto report = drv.run();
    EXPECT_TRUE(report.interrupted);
    EXPECT_EQ(report.failedJobs, report.results.size());
    for (const auto &r : report.results) {
        EXPECT_EQ(r.errorCode, ErrorCode::Cancelled);
        EXPECT_NE(r.errorMessage.find("resume"), std::string::npos)
            << r.errorMessage;
    }
    // Nothing completed, so a resume from this journal starts
    // cleanly and finishes the whole sweep.
    CancellationToken fresh;
    opts.shutdown = &fresh;
    ExperimentDriver again(resumableSpec(csv), opts);
    auto done = again.run();
    EXPECT_TRUE(done.ok());
    EXPECT_FALSE(done.interrupted);
}

} // anonymous namespace
} // namespace prophet::driver
