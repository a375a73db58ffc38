/**
 * @file
 * Unit tests for trace serialization and its XXH64 array checksums.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <unistd.h>

#include "common/checksum.hh"
#include "common/fault_injection.hh"
#include "trace/trace_io.hh"

namespace prophet
{
namespace
{

trace::Trace
sampleTrace()
{
    trace::Trace t;
    t.append(0x400100, 0x7000, 4, false, false);
    t.append(0x400104, 0x7040, 2, true, false);
    t.append(0x400108, 0x9000, 7, false, true);
    return t;
}

void
expectEqual(const trace::Trace &a, const trace::Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].instGap, b[i].instGap);
        EXPECT_EQ(a[i].dependsOnPrev, b[i].dependsOnPrev);
        EXPECT_EQ(a[i].isWrite, b[i].isWrite);
    }
    EXPECT_EQ(a.totalInstructions(), b.totalInstructions());
}

/** XOR @p mask into the byte at @p offset of the file at @p path. */
void
flipByte(const char *path, long offset, int mask)
{
    std::FILE *f = std::fopen(path, "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ mask, f);
    std::fclose(f);
}

TEST(TraceIo, BinaryRoundTrip)
{
    auto t = sampleTrace();
    const char *path = "/tmp/prophet_test_trace.bin";
    ASSERT_TRUE(trace::saveBinary(t, path));
    trace::Trace loaded;
    ASSERT_TRUE(trace::loadBinary(loaded, path));
    expectEqual(t, loaded);
    std::remove(path);
}

TEST(TraceIo, BitFlipCaughtByArrayChecksum)
{
    auto t = sampleTrace();
    const char *path = "/tmp/prophet_test_bitflip.bin";
    ASSERT_TRUE(trace::saveBinary(t, path));
    // Flip one payload bit past the header + checksum block. The
    // header stays plausible, so only the checksum can catch it.
    flipByte(path, 16 + 24 + 3, 0x10); // inside pc[]
    trace::Trace loaded;
    trace::LoadReport report;
    EXPECT_FALSE(trace::loadBinary(loaded, path, report));
    EXPECT_EQ(report.status, trace::LoadStatus::ChecksumMismatch);
    EXPECT_TRUE(report.corrupt());
    EXPECT_TRUE(loaded.empty());
    std::remove(path);
}

TEST(Checksum, Xxh64KnownAnswers)
{
    // Published XXH64 test vectors at seed 0. The 39- and 43-byte
    // inputs also take the four-lane path for their first 32 bytes,
    // then the 4-byte and the 8-byte tail step respectively.
    auto h = [](const char *s) { return xxh64(s, std::strlen(s)); };
    EXPECT_EQ(h(""), 0xef46db3751d8e999ull);
    EXPECT_EQ(h("a"), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(h("abc"), 0x44bc2cf5ad770999ull);
    EXPECT_EQ(h("Nobody inspects the spammish repetition"),
              0xfbcea83c8a378bf1ull);
    EXPECT_EQ(h("The quick brown fox jumps over the lazy dog"),
              0x0b242d361fda71bcull);
}

TEST(TraceIo, BitFlipInLastPartialStripeCaught)
{
    // 37 records: every array ends in a partial 32-byte stripe (8
    // bytes of pc[] and of addr[], 20 of meta[]), which XXH64 hashes
    // in its 8- and 4-byte tail steps, not in its four lanes.
    constexpr long kN = 37;
    trace::Trace t;
    for (long i = 0; i < kN; ++i)
        t.append(0x400100 + 4 * (i % 3), 0x7000 + 64 * i,
                 static_cast<std::uint16_t>(i % 5), i % 2 == 1,
                 i % 7 == 0);
    constexpr long kPcAt = 16 + 24;
    constexpr long kAddrAt = kPcAt + 8 * kN;
    constexpr long kMetaAt = kAddrAt + 8 * kN;
    struct Flip
    {
        long offset; ///< byte to flip
        long array;  ///< offset of the array it lies in
    };
    const Flip flips[] = {
        {kAddrAt - 1, kPcAt},             // pc[]'s last 8-byte word
        {kMetaAt - 8, kAddrAt},           // addr[]'s last 8-byte word
        {kMetaAt + 4 * kN - 20, kMetaAt}, // meta[]'s first 8-byte step
        {kMetaAt + 4 * kN - 4, kMetaAt},  // meta[]'s 4-byte step
    };
    const char *path = "/tmp/prophet_test_tailflip.bin";
    for (const Flip &flip : flips) {
        ASSERT_TRUE(trace::saveBinary(t, path));
        flipByte(path, flip.offset, 0x01);
        trace::Trace loaded;
        trace::LoadReport report;
        EXPECT_FALSE(trace::loadBinary(loaded, path, report))
            << "flip at " << flip.offset;
        EXPECT_EQ(report.status, trace::LoadStatus::ChecksumMismatch)
            << "flip at " << flip.offset;
        EXPECT_EQ(report.offset, static_cast<std::uint64_t>(flip.array))
            << "flip at " << flip.offset;
        EXPECT_TRUE(loaded.empty());
    }
    // The unflipped file loads: the flips, not the tail, failed.
    ASSERT_TRUE(trace::saveBinary(t, path));
    trace::Trace loaded;
    ASSERT_TRUE(trace::loadBinary(loaded, path));
    expectEqual(t, loaded);
    std::remove(path);
}

TEST(TraceIo, InjectedReadFaultReportsReadFailNotCorruption)
{
    auto t = sampleTrace();
    const char *path = "/tmp/prophet_test_readfault.bin";
    ASSERT_TRUE(trace::saveBinary(t, path));
    fault::reset();
    fault::arm("trace_io.fread", 1, 1);
    trace::Trace loaded;
    trace::LoadReport report;
    EXPECT_FALSE(trace::loadBinary(loaded, path, report));
    EXPECT_EQ(report.status, trace::LoadStatus::ReadFail);
    // An I/O error is not evidence of on-disk damage: the cache must
    // not quarantine on it.
    EXPECT_FALSE(report.corrupt());
    fault::reset();
    // The fault cleared; the same file now loads fine.
    ASSERT_TRUE(trace::loadBinary(loaded, path));
    expectEqual(t, loaded);
    std::remove(path);
}

TEST(TraceIo, InjectedWriteFaultFailsTheSave)
{
    auto t = sampleTrace();
    const char *path = "/tmp/prophet_test_writefault.bin";
    fault::reset();
    fault::arm("trace_io.fwrite", 1, 1);
    EXPECT_FALSE(trace::saveBinary(t, path));
    fault::reset();
    ASSERT_TRUE(trace::saveBinary(t, path));
    trace::Trace loaded;
    ASSERT_TRUE(trace::loadBinary(loaded, path));
    expectEqual(t, loaded);
    std::remove(path);
}

TEST(TraceIo, TruncatedPayloadRejected)
{
    auto t = sampleTrace();
    const char *path = "/tmp/prophet_test_trunc.bin";
    ASSERT_TRUE(trace::saveBinary(t, path));
    // Chop into the meta array: header count no longer fits.
    std::FILE *f = std::fopen(path, "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path, size - 2), 0);
    trace::Trace loaded;
    trace::LoadReport report;
    EXPECT_FALSE(trace::loadBinary(loaded, path, report));
    EXPECT_EQ(report.status, trace::LoadStatus::Truncated);
    // The payload starts after the 16-byte preamble and the three
    // array checksums.
    EXPECT_EQ(report.offset, 16u + 24u);
    EXPECT_TRUE(report.corrupt());
    EXPECT_TRUE(loaded.empty());
    std::remove(path);
}

TEST(TraceIo, LoadRejectsGarbage)
{
    const char *path = "/tmp/prophet_test_garbage.bin";
    std::FILE *f = std::fopen(path, "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    trace::Trace loaded;
    EXPECT_FALSE(trace::loadBinary(loaded, path));
    EXPECT_TRUE(loaded.empty());
    std::remove(path);
}

TEST(TraceIo, LoadMissingFileFails)
{
    trace::Trace loaded;
    EXPECT_FALSE(trace::loadBinary(loaded, "/nonexistent/x.bin"));
}

} // anonymous namespace
} // namespace prophet
