#include "trace/trace_io.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/checksum.hh"
#include "common/fault_injection.hh"

namespace prophet::trace
{

namespace
{

constexpr char kMagic[4] = {'P', 'T', 'R', 'C'};

/** Bytes of magic, version, and record count. */
constexpr long kPreambleBytes = 16;

/** The preamble plus the three u64 array checksums. */
constexpr long kHeaderBytes =
    kPreambleBytes + 3 * static_cast<long>(sizeof(std::uint64_t));

/** Per-record payload bytes of the SoA arrays. */
constexpr std::uint64_t kRecordBytes =
    sizeof(std::uint64_t) * 2 + sizeof(std::uint32_t);

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/**
 * The named fault points: injectedFread/injectedFwrite behave
 * exactly like a short read/write at the call site, so the recovery
 * paths under test are the real ones, not simulated copies.
 */
std::size_t
injectedFread(void *dst, std::size_t size, std::size_t n,
              std::FILE *f)
{
    if (fault::shouldFail("trace_io.fread"))
        return 0;
    return std::fread(dst, size, n, f);
}

std::size_t
injectedFwrite(const void *src, std::size_t size, std::size_t n,
               std::FILE *f)
{
    if (fault::shouldFail("trace_io.fwrite"))
        return 0; // simulated ENOSPC: nothing written
    return std::fwrite(src, size, n, f);
}

bool
writeHeader(std::FILE *f, std::uint64_t count)
{
    const std::uint32_t version = kTraceFormatV3;
    return injectedFwrite(kMagic, 1, 4, f) == 4
        && injectedFwrite(&version, sizeof(version), 1, f) == 1
        && injectedFwrite(&count, sizeof(count), 1, f) == 1;
}

/**
 * Payload record capacity of the file behind @p f, used to validate
 * the untrusted header count before any allocation: a corrupted
 * header fails cleanly instead of throwing std::length_error.
 * Leaves the file position at the start of the payload.
 */
bool
payloadRecords(std::FILE *f, std::uint64_t &max_records)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return false;
    long file_size = std::ftell(f);
    if (file_size < kHeaderBytes
        || std::fseek(f, kHeaderBytes, SEEK_SET) != 0)
        return false;
    max_records =
        static_cast<std::uint64_t>(file_size - kHeaderBytes)
        / kRecordBytes;
    return true;
}

/**
 * Read the three SoA payload arrays, verifying each against its
 * header checksum after the bulk read; a mismatch reports
 * ChecksumMismatch at the offending array's offset.
 */
void
loadPayload(Trace &out, std::FILE *f, std::uint64_t count,
            const std::uint64_t *checksums, LoadReport &report)
{
    std::uint64_t max_records = 0;
    if (!payloadRecords(f, max_records)) {
        report.status = LoadStatus::Truncated;
        return;
    }
    if (count > max_records) {
        report.status = LoadStatus::Truncated;
        report.offset = static_cast<std::uint64_t>(kHeaderBytes);
        return;
    }
    // BulkVector sizing leaves the elements uninitialized: fread is
    // the first touch of every page, not a value-init memset.
    Trace::BulkVector<PC> pcs(count);
    Trace::BulkVector<Addr> addrs(count);
    Trace::BulkVector<std::uint32_t> metas(count);
    struct ArrayDesc
    {
        void *data;
        std::size_t elemSize;
    };
    const ArrayDesc arrays[3] = {
        {pcs.data(), sizeof(PC)},
        {addrs.data(), sizeof(Addr)},
        {metas.data(), sizeof(std::uint32_t)},
    };
    std::uint64_t offset = static_cast<std::uint64_t>(kHeaderBytes);
    for (int a = 0; a < 3; ++a) {
        if (count > 0
            && injectedFread(arrays[a].data, arrays[a].elemSize,
                             count, f)
                != count) {
            report.status = LoadStatus::ReadFail;
            report.offset = offset;
            return;
        }
        const std::uint64_t sum =
            fnv1a64(arrays[a].data, arrays[a].elemSize * count);
        if (sum != checksums[a]) {
            report.status = LoadStatus::ChecksumMismatch;
            report.offset = offset;
            return;
        }
        offset += arrays[a].elemSize * count;
    }
    out.adopt(std::move(pcs), std::move(addrs), std::move(metas));
    report.status = LoadStatus::Ok;
}

} // anonymous namespace

const char *
loadStatusName(LoadStatus status)
{
    switch (status) {
      case LoadStatus::Ok:
        return "ok";
      case LoadStatus::OpenFail:
        return "open-fail";
      case LoadStatus::BadHeader:
        return "bad-header";
      case LoadStatus::Truncated:
        return "truncated";
      case LoadStatus::ReadFail:
        return "read-fail";
      case LoadStatus::ChecksumMismatch:
        return "checksum-mismatch";
    }
    return "unknown";
}

bool
saveBinary(const Trace &t, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    const std::uint64_t count = t.size();
    const std::uint64_t checksums[3] = {
        fnv1a64(t.pcData(), sizeof(PC) * count),
        fnv1a64(t.addrData(), sizeof(Addr) * count),
        fnv1a64(t.metaData(), sizeof(std::uint32_t) * count),
    };
    if (!writeHeader(f.get(), count)
        || injectedFwrite(checksums, sizeof(std::uint64_t), 3, f.get())
            != 3)
        return false;
    if (count == 0)
        return true;
    return injectedFwrite(t.pcData(), sizeof(PC), count, f.get())
            == count
        && injectedFwrite(t.addrData(), sizeof(Addr), count, f.get())
            == count
        && injectedFwrite(t.metaData(), sizeof(std::uint32_t), count,
                          f.get())
            == count;
}

bool
loadBinary(Trace &out, const std::string &path, LoadReport &report)
{
    out = Trace{};
    report = LoadReport{};
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) {
        report.status = LoadStatus::OpenFail;
        return false;
    }
    // Header reads stay on plain fread: the "trace_io.fread" fault
    // point covers *payload* reads (a short header is BadHeader
    // territory, and must not be conflated with a transient I/O
    // error the caller might retry).
    char magic[4];
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    if (std::fread(magic, 1, 4, f.get()) != 4
        || std::memcmp(magic, kMagic, 4) != 0
        || std::fread(&version, sizeof(version), 1, f.get()) != 1
        || std::fread(&count, sizeof(count), 1, f.get()) != 1) {
        report.status = LoadStatus::BadHeader;
        report.offset = 0;
        return false;
    }
    std::uint64_t checksums[3];
    if (version != kTraceFormatV3) {
        report.status = LoadStatus::BadHeader;
        report.offset = 4; // the version field
    } else if (std::fread(checksums, sizeof(std::uint64_t), 3, f.get())
               != 3) {
        report.status = LoadStatus::BadHeader;
        report.offset = static_cast<std::uint64_t>(kPreambleBytes);
    } else {
        loadPayload(out, f.get(), count, checksums, report);
    }
    if (!report.ok()) {
        out = Trace{};
        return false;
    }
    return true;
}

bool
loadBinary(Trace &out, const std::string &path)
{
    LoadReport report;
    return loadBinary(out, path, report);
}

bool
saveText(const Trace &t, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "w"));
    if (!f)
        return false;
    for (const auto &rec : t) {
        if (std::fprintf(f.get(),
                         "%" PRIx64 " %" PRIx64 " %u %u %u\n",
                         rec.pc, rec.addr, rec.instGap,
                         rec.dependsOnPrev ? 1 : 0,
                         rec.isWrite ? 1 : 0) < 0)
            return false;
    }
    return true;
}

bool
loadText(Trace &out, const std::string &path)
{
    out = Trace{};
    FilePtr f(std::fopen(path.c_str(), "r"));
    if (!f)
        return false;
    std::uint64_t pc, addr;
    unsigned gap, dep, wr;
    while (std::fscanf(f.get(),
                       "%" SCNx64 " %" SCNx64 " %u %u %u\n", &pc,
                       &addr, &gap, &dep, &wr) == 5) {
        out.append(pc, addr, static_cast<std::uint16_t>(gap), dep != 0,
                   wr != 0);
    }
    return true;
}

} // namespace prophet::trace
