/**
 * @file
 * Trace serialization: a compact binary format so traces can be
 * generated once, archived, and replayed (the SimPoint-checkpoint
 * workflow's moral equivalent), plus a human-readable text form for
 * debugging and interop with external tools.
 *
 * Binary format v3 mirrors the in-memory SoA layout and adds
 * per-array integrity: after the header, one FNV-1a 64 checksum per
 * array, then the pc, addr, and packed-meta arrays written whole —
 * three bulk fwrite calls instead of one per record. Loads read the
 * arrays back the same way and verify every checksum, so a
 * bit-flipped or torn entry is detected deterministically instead of
 * only when the header happens to be implausible. A file with any
 * other version fails the header check: traces are regenerable, so
 * older formats are simply not read.
 *
 * | v3 layout | bytes        | content                              |
 * |-----------|--------------|--------------------------------------|
 * | magic     | 4            | "PTRC"                               |
 * | version   | 4            | 3 (little-endian u32)                |
 * | count     | 8            | record count N (u64)                 |
 * | cksum[3]  | 8 x 3        | FNV-1a 64 of pc[], addr[], meta[]    |
 * | pc[]      | 8 x N        | PC per record                        |
 * | addr[]    | 8 x N        | byte address per record              |
 * | meta[]    | 4 x N        | instGap (bits 0-15), depends (16),   |
 * |           |              | write (17); other bits zero          |
 *
 * Fault points (common/fault_injection.hh): "trace_io.fread" fails a
 * payload read, "trace_io.fwrite" fails a payload write (the
 * simulated-ENOSPC path) — both exercised by the recovery tests.
 */

#ifndef PROPHET_TRACE_TRACE_IO_HH
#define PROPHET_TRACE_TRACE_IO_HH

#include <cstdint>
#include <string>

#include "trace/trace.hh"

namespace prophet::trace
{

/** The binary-format version saveBinary writes and loadBinary reads. */
constexpr std::uint32_t kTraceFormatV3 = 3;

/** Why a binary load failed (or that it didn't). */
enum class LoadStatus
{
    Ok = 0,
    OpenFail,         ///< file missing or unreadable — not corruption
    BadHeader,        ///< magic/version/count implausible or not v3
    Truncated,        ///< payload shorter than the header promises
    ReadFail,         ///< a read failed mid-payload (I/O error)
    ChecksumMismatch, ///< v3 array checksum did not verify
};

/** Human-readable name of a LoadStatus ("checksum-mismatch", ...). */
const char *loadStatusName(LoadStatus status);

/** Everything a binary load can report beyond success. */
struct LoadReport
{
    LoadStatus status = LoadStatus::OpenFail;
    /** Byte offset of the failing structure (kNoOffset = n/a). */
    std::uint64_t offset = ~std::uint64_t{0};

    bool ok() const { return status == LoadStatus::Ok; }

    /**
     * The file exists but its contents are damaged — the states the
     * trace cache quarantines rather than silently regenerates over.
     */
    bool
    corrupt() const
    {
        return status == LoadStatus::BadHeader
            || status == LoadStatus::Truncated
            || status == LoadStatus::ChecksumMismatch;
    }
};

/**
 * Write a trace in the v3 (checksummed) binary format. Returns false
 * on I/O failure.
 */
bool saveBinary(const Trace &t, const std::string &path);

/**
 * Read a binary trace written by saveBinary. Returns an empty trace
 * and false on failure or format mismatch.
 */
bool loadBinary(Trace &out, const std::string &path);

/**
 * As loadBinary, but reports *why* a load failed: the trace cache
 * uses the distinction between "file absent" (a plain miss) and
 * "file damaged" (quarantine the entry) to pick its recovery path.
 */
bool loadBinary(Trace &out, const std::string &path,
                LoadReport &report);

/**
 * Write a text form: one record per line,
 * "pc addr inst_gap depends is_write" in hex/dec.
 */
bool saveText(const Trace &t, const std::string &path);

/** Read the text form. */
bool loadText(Trace &out, const std::string &path);

} // namespace prophet::trace

#endif // PROPHET_TRACE_TRACE_IO_HH
