/**
 * @file
 * Tests for the on-disk trace cache: a hit must reproduce the fresh
 * generation record-for-record, corrupt or truncated entries must
 * fall back to regeneration (and be repaired), and the Runner
 * integration must leave simulation results bit-identical with the
 * cache on, off, cold, or poisoned.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "common/fault_injection.hh"
#include "sim/runner.hh"
#include "trace/trace_cache.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace fs = std::filesystem;

namespace prophet::trace
{
namespace
{

/** Short traces keep these tests fast. */
constexpr std::size_t kRecords = 20'000;

class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path()
               / ("prophet_cache_test_"
                  + std::to_string(::getpid())))
                  .string();
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

void
expectTraceEq(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].addr, b[i].addr) << "record " << i;
        ASSERT_EQ(a[i].instGap, b[i].instGap) << "record " << i;
        ASSERT_EQ(a[i].dependsOnPrev, b[i].dependsOnPrev);
        ASSERT_EQ(a[i].isWrite, b[i].isWrite);
    }
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
}

TEST_F(TraceCacheTest, HitReproducesFreshGenerationExactly)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();

    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    Trace loaded;
    ASSERT_TRUE(cache.load("mcf", kRecords, loaded));
    expectTraceEq(fresh, loaded);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
}

TEST_F(TraceCacheTest, MissOnEmptyAndDistinctKeys)
{
    TraceCache cache(dir);
    Trace out;
    EXPECT_FALSE(cache.load("mcf", kRecords, out));
    EXPECT_EQ(cache.stats().misses, 1u);

    // Same workload, different record override: a different key.
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    EXPECT_FALSE(cache.load("mcf", kRecords + 1, out));
    EXPECT_NE(cache.path("mcf", kRecords),
              cache.path("mcf", kRecords + 1));
}

TEST_F(TraceCacheTest, CorruptFileFallsBackToRegeneration)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));

    // Stomp the file with garbage: load must fail cleanly.
    {
        std::ofstream f(cache.path("mcf", kRecords),
                        std::ios::binary | std::ios::trunc);
        f << "this is not a trace";
    }
    Trace out;
    EXPECT_FALSE(cache.load("mcf", kRecords, out));
    EXPECT_TRUE(out.empty());

    // Re-store repairs the entry.
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    ASSERT_TRUE(cache.load("mcf", kRecords, out));
    expectTraceEq(fresh, out);
}

TEST_F(TraceCacheTest, CorruptCountFieldFallsBackCleanly)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));

    // Valid magic/version but an absurd record count: the loader
    // must reject it against the payload size, not reserve() it.
    auto path = cache.path("mcf", kRecords);
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in
                           | std::ios::out);
        f.seekp(8); // past 4-byte magic + 4-byte version
        std::uint64_t absurd = ~std::uint64_t{0} >> 3;
        f.write(reinterpret_cast<const char *>(&absurd),
                sizeof(absurd));
    }
    Trace out;
    EXPECT_FALSE(cache.load("mcf", kRecords, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceCacheTest, TruncatedFileFallsBackToRegeneration)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));

    auto path = cache.path("mcf", kRecords);
    auto full = fs::file_size(path);
    fs::resize_file(path, full / 2);

    Trace out;
    EXPECT_FALSE(cache.load("mcf", kRecords, out));
    EXPECT_TRUE(out.empty());
}

TEST_F(TraceCacheTest, StoresWriteTheV3ChecksummedFormat)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));

    Trace loaded;
    ASSERT_TRUE(loadBinary(loaded, cache.path("mcf", kRecords)));
    expectTraceEq(fresh, loaded);
    std::ifstream in(cache.path("mcf", kRecords), std::ios::binary);
    char magic[4] = {};
    std::uint32_t version = 0;
    in.read(magic, sizeof(magic));
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    EXPECT_EQ(std::string(magic, sizeof(magic)), "PTRC");
    EXPECT_EQ(version, kTraceFormatV3);
}

TEST_F(TraceCacheTest, OtherVersionEntryIsAMissAndIsRegenerated)
{
    // Only v3 is read. An entry whose header names another version —
    // here 2, a retired format — fails the header check like any
    // damaged entry: it is quarantined, the load misses, and the
    // Runner regenerates the trace with unchanged results.
    sim::Runner plain(sim::SystemConfig::table1(), kRecords);
    const sim::RunStats ref = plain.run("triangel", "mcf");

    auto cache = std::make_shared<TraceCache>(dir);
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    ASSERT_TRUE(cache->store("mcf", kRecords, fresh));
    const std::string path = cache->path("mcf", kRecords);
    {
        std::fstream f(path, std::ios::binary | std::ios::in
                                 | std::ios::out);
        const std::uint32_t v2 = 2;
        f.seekp(4); // the version field, after the magic
        f.write(reinterpret_cast<const char *>(&v2), sizeof(v2));
    }

    sim::Runner r(sim::SystemConfig::table1(), kRecords);
    r.setTraceCache(cache);
    const sim::RunStats s = r.run("triangel", "mcf");
    EXPECT_EQ(s.ipc, ref.ipc);
    EXPECT_EQ(s.cycles, ref.cycles);
    EXPECT_EQ(s.l2DemandMisses, ref.l2DemandMisses);
    EXPECT_EQ(cache->stats().hits, 0u);
    EXPECT_EQ(cache->stats().misses, 1u);
    EXPECT_EQ(cache->stats().quarantines, 1u);
    EXPECT_EQ(cache->stats().checksumFailures, 0u);
    EXPECT_EQ(cache->stats().stores, 2u); // the seed + regeneration
    EXPECT_EQ(cache->quarantined().size(), 1u);

    // The regenerated entry is v3 again and serves hits.
    Trace again;
    ASSERT_TRUE(cache->load("mcf", kRecords, again));
    expectTraceEq(fresh, again);
}

TEST_F(TraceCacheTest, BitFlippedEntryIsQuarantinedThenRegenerated)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));

    // Flip one payload bit past the header + checksum block. Only
    // the per-array checksum can catch this: the header is intact
    // and the size is exactly right.
    auto path = cache.path("mcf", kRecords);
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in
                           | std::ios::out);
        f.seekg(16 + 24 + 100);
        char c = 0;
        f.get(c);
        f.seekp(16 + 24 + 100);
        f.put(static_cast<char>(c ^ 0x04));
    }

    // The damaged entry is a miss, counted and quarantined: the bad
    // bytes survive as "<entry>.corrupt" for inspection.
    Trace out;
    EXPECT_FALSE(cache.load("mcf", kRecords, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(cache.stats().checksumFailures, 1u);
    EXPECT_EQ(cache.stats().quarantines, 1u);
    EXPECT_FALSE(fs::exists(path));
    auto q = cache.quarantined();
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].file,
              fs::path(path).filename().string() + ".corrupt");
    EXPECT_TRUE(cache.entries().empty());

    // The persistent counters recorded the event durably.
    auto pc = cache.persistentCounters();
    EXPECT_EQ(pc.checksumFailures, 1u);
    EXPECT_EQ(pc.quarantines, 1u);

    // Regeneration stores a good entry under the original name and
    // serves it; the quarantined evidence is untouched.
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    ASSERT_TRUE(cache.load("mcf", kRecords, out));
    expectTraceEq(fresh, out);
    EXPECT_EQ(cache.quarantined().size(), 1u);
}

TEST_F(TraceCacheTest, FailedStoreLeavesNoPartialEntry)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);

    // Simulated ENOSPC mid-payload: the store fails, and neither the
    // final name nor any temp file survives in the directory.
    fault::reset();
    fault::arm("trace_io.fwrite", 1, 1);
    EXPECT_FALSE(cache.store("mcf", kRecords, fresh));
    fault::reset();
    EXPECT_EQ(cache.stats().storeFailures, 1u);
    EXPECT_EQ(cache.stats().stores, 0u);
    EXPECT_FALSE(fs::exists(cache.path("mcf", kRecords)));
    std::size_t files = 0;
    for ([[maybe_unused]] const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().find(".ptrc")
            != std::string::npos)
            ++files;
    EXPECT_EQ(files, 0u);
    EXPECT_EQ(cache.persistentCounters().storeFailures, 1u);

    // The whole-store fault point behaves the same way.
    fault::arm("cache.store", 1, 1);
    EXPECT_FALSE(cache.store("mcf", kRecords, fresh));
    fault::reset();
    EXPECT_EQ(cache.stats().storeFailures, 2u);
    EXPECT_FALSE(fs::exists(cache.path("mcf", kRecords)));

    // Once the fault clears, the store goes through.
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    Trace out;
    ASSERT_TRUE(cache.load("mcf", kRecords, out));
    expectTraceEq(fresh, out);
}

TEST_F(TraceCacheTest, PersistentCountersAccumulateAcrossInstances)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    {
        TraceCache cache(dir);
        fault::reset();
        fault::arm("cache.store", 1, 1);
        EXPECT_FALSE(cache.store("mcf", kRecords, fresh));
        fault::reset();
    }
    // A fresh instance on the same directory sees the durable count;
    // its in-memory counters start at zero.
    TraceCache cache(dir);
    EXPECT_EQ(cache.stats().storeFailures, 0u);
    EXPECT_EQ(cache.persistentCounters().storeFailures, 1u);
}

TEST_F(TraceCacheTest, TruncatedPayloadFallsBackAndRepairs)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));

    // Truncate inside the bulk arrays: the header still promises
    // kRecords, so the load must fail cleanly, not return a short
    // trace.
    auto path = cache.path("mcf", kRecords);
    fs::resize_file(path, fs::file_size(path) - 6);
    Trace out;
    EXPECT_FALSE(cache.load("mcf", kRecords, out));
    EXPECT_TRUE(out.empty());

    // The regenerate-and-store path repairs it.
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    ASSERT_TRUE(cache.load("mcf", kRecords, out));
    expectTraceEq(fresh, out);
}

TEST_F(TraceCacheTest, ClearAndEntries)
{
    Trace fresh =
        workloads::makeWorkload("mcf", kRecords)->generate();
    TraceCache cache(dir);
    ASSERT_TRUE(cache.store("mcf", kRecords, fresh));
    ASSERT_TRUE(cache.store("omnetpp", kRecords, fresh));

    auto entries = cache.entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].file,
              "mcf-r20000.g"
                  + std::to_string(kGeneratorSchemaVersion)
                  + ".ptrc");
    EXPECT_GT(entries[0].bytes, 0u);

    EXPECT_EQ(cache.clear(), 2u);
    EXPECT_TRUE(cache.entries().empty());
    EXPECT_EQ(cache.clear(), 0u);
}

TEST_F(TraceCacheTest, RunnerResultsIdenticalColdWarmAndPoisoned)
{
    // Reference: no cache at all.
    sim::Runner plain(sim::SystemConfig::table1(), kRecords);
    sim::RunStats ref = plain.run("triangel", "mcf");

    auto cache = std::make_shared<TraceCache>(dir);

    // Cold: generates and stores.
    {
        sim::Runner r(sim::SystemConfig::table1(), kRecords);
        r.setTraceCache(cache);
        sim::RunStats s = r.run("triangel", "mcf");
        EXPECT_EQ(s.ipc, ref.ipc);
        EXPECT_EQ(s.cycles, ref.cycles);
        EXPECT_EQ(s.l2DemandMisses, ref.l2DemandMisses);
    }
    EXPECT_EQ(cache->stats().stores, 1u);

    // Warm: loads from disk, bit-identical stats.
    {
        sim::Runner r(sim::SystemConfig::table1(), kRecords);
        r.setTraceCache(cache);
        sim::RunStats s = r.run("triangel", "mcf");
        EXPECT_EQ(s.ipc, ref.ipc);
        EXPECT_EQ(s.cycles, ref.cycles);
        EXPECT_EQ(s.l2DemandMisses, ref.l2DemandMisses);
    }
    EXPECT_EQ(cache->stats().hits, 1u);

    // Poisoned: truncate the entry; the Runner regenerates and the
    // repaired cache serves identical results again.
    auto path = cache->path("mcf", kRecords);
    fs::resize_file(path, fs::file_size(path) / 3);
    {
        sim::Runner r(sim::SystemConfig::table1(), kRecords);
        r.setTraceCache(cache);
        sim::RunStats s = r.run("triangel", "mcf");
        EXPECT_EQ(s.ipc, ref.ipc);
        EXPECT_EQ(s.cycles, ref.cycles);
    }
    EXPECT_EQ(cache->stats().stores, 2u);
    {
        Trace repaired;
        ASSERT_TRUE(cache->load("mcf", kRecords, repaired));
        Trace fresh =
            workloads::makeWorkload("mcf", kRecords)->generate();
        expectTraceEq(fresh, repaired);
    }

    // The RPG2 resolver still works on a cache hit (the generator is
    // constructed even when generate() is skipped).
    {
        sim::Runner r(sim::SystemConfig::table1(), kRecords);
        r.setTraceCache(cache);
        sim::RunStats rpg2 = r.runRpg2("mcf").stats;
        sim::RunStats rpg2_ref = plain.runRpg2("mcf").stats;
        EXPECT_EQ(rpg2.ipc, rpg2_ref.ipc);
        EXPECT_EQ(rpg2.cycles, rpg2_ref.cycles);
    }
}

} // anonymous namespace
} // namespace prophet::trace
