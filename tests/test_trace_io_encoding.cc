/**
 * @file
 * Unit tests for trace serialization and the Section 4.4 hint
 * encodings.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "common/fault_injection.hh"
#include "core/hint_encoding.hh"
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
    {
        std::FILE *f = std::fopen(path, "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 16 + 24 + 3, SEEK_SET); // inside pc[]
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ 0x10, f);
        std::fclose(f);
    }
    trace::Trace loaded;
    trace::LoadReport report;
    EXPECT_FALSE(trace::loadBinary(loaded, path, report));
    EXPECT_EQ(report.status, trace::LoadStatus::ChecksumMismatch);
    EXPECT_TRUE(report.corrupt());
    EXPECT_TRUE(loaded.empty());
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

TEST(TraceIo, TextRoundTrip)
{
    auto t = sampleTrace();
    const char *path = "/tmp/prophet_test_trace.txt";
    ASSERT_TRUE(trace::saveText(t, path));
    trace::Trace loaded;
    ASSERT_TRUE(trace::loadText(loaded, path));
    expectEqual(t, loaded);
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

TEST(HintEncoding, PackUnpackRoundTrip)
{
    using namespace core;
    for (unsigned allow = 0; allow <= 1; ++allow) {
        for (std::uint8_t prio = 0; prio < 4; ++prio) {
            Hint h{allow != 0, prio};
            Hint back = unpackHint(packHint(h));
            EXPECT_EQ(back.allowInsert, h.allowInsert);
            EXPECT_EQ(back.priority, h.priority);
        }
    }
}

TEST(HintEncoding, ThreeBitsSuffice)
{
    // Section 4.4: each memory instruction needs at most 3 bits.
    using namespace core;
    EXPECT_LE(packHint(Hint{true, 3}), 0x7);
}

TEST(HintEncoding, InstructionRoundTrip)
{
    using namespace core;
    HintBuffer hb(128);
    hb.install(0x400, Hint{true, 2});
    hb.install(0x404, Hint{false, 0});
    auto insts = encodeHintInstructions(hb);
    EXPECT_EQ(insts.size(), 2u);
    auto back = decodeHintInstructions(insts);
    auto h = back.lookup(0x400);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE(h->allowInsert);
    EXPECT_EQ(h->priority, 2);
    auto h2 = back.lookup(0x404);
    ASSERT_TRUE(h2.has_value());
    EXPECT_FALSE(h2->allowInsert);
}

TEST(HintEncoding, FootprintMatchesPaperClaims)
{
    using namespace core;
    // Hint instructions: 128 once-executed instructions, ~0.19 KB
    // buffer.
    auto fi = footprintOf(HintEncoding::HintInstructions, 128);
    EXPECT_EQ(fi.staticInstructions, 128u);
    EXPECT_EQ(fi.dynamicInstructions, 128u);
    EXPECT_NEAR(static_cast<double>(fi.bufferBits) / 8.0 / 1024.0,
                0.19, 0.15);

    // Prefix scheme: no instructions, 3*128/64 = 6 bytes of I-cache
    // footprint (Section 4.4), no buffer.
    auto fp = footprintOf(HintEncoding::InstructionPrefix, 128);
    EXPECT_EQ(fp.staticInstructions, 0u);
    EXPECT_EQ(fp.codeBytes, 6u);
    EXPECT_EQ(fp.bufferBits, 0u);
}

} // anonymous namespace
} // namespace prophet
