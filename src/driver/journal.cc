#include "driver/journal.hh"

#include <cstring>

#include <unistd.h>

#include "common/checksum.hh"
#include "common/fault_injection.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "driver/spec.hh"

namespace prophet::driver
{

namespace
{

constexpr std::uint32_t kFileMagic = 0x4C4E4A50; // "PJNL"
constexpr std::uint32_t kEntryMagic = 0x454A5250; // "PRJE"
constexpr std::uint32_t kFormatVersion = 2;

// header: magic, version, spec result hash
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

// Largest payload load() will accept. Generous: the dominant cost is
// the per-PC miss map at 16 bytes/PC, so this covers ~4M distinct
// miss PCs — far beyond any workload here — while still bounding a
// corrupt length field.
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/** Append-only byte buffer with fixed-width little helpers. */
struct ByteWriter
{
    std::string buf;

    void
    raw(const void *p, std::size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }

    void put8(std::uint8_t v) { raw(&v, 1); }
    void put32(std::uint32_t v) { raw(&v, 4); }
    void put64(std::uint64_t v) { raw(&v, 8); }

    /** Doubles as raw bit patterns: bit-exact round-trip. */
    void
    putDouble(double v)
    {
        static_assert(sizeof(double) == 8, "64-bit doubles required");
        raw(&v, 8);
    }

    void
    putString(const std::string &s)
    {
        put32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }
};

/** Bounds-checked reader over one entry payload. */
struct ByteReader
{
    const char *p;
    std::size_t left;

    void
    raw(void *out, std::size_t n)
    {
        if (n > left)
            throw Error(ErrorCode::JournalCorrupt,
                        "entry payload truncated");
        std::memcpy(out, p, n);
        p += n;
        left -= n;
    }

    std::uint8_t
    get8()
    {
        std::uint8_t v;
        raw(&v, 1);
        return v;
    }

    std::uint32_t
    get32()
    {
        std::uint32_t v;
        raw(&v, 4);
        return v;
    }

    std::uint64_t
    get64()
    {
        std::uint64_t v;
        raw(&v, 8);
        return v;
    }

    double
    getDouble()
    {
        double v;
        raw(&v, 8);
        return v;
    }

    std::string
    getString()
    {
        std::uint32_t n = get32();
        if (n > left)
            throw Error(ErrorCode::JournalCorrupt,
                        "entry string truncated");
        std::string s(p, n);
        p += n;
        left -= n;
        return s;
    }
};

/**
 * The full RunStats, field by field. Every statistic a sink can
 * consume must round-trip bit-exactly — the per-PC miss map included
 * — or a resumed run would diverge from a from-scratch run.
 */
void
putStats(ByteWriter &w, const sim::RunStats &s)
{
    w.putDouble(s.ipc);
    w.put64(s.cycles);
    w.put64(s.instructions);
    w.put64(s.records);
    w.put64(s.l1Misses);
    w.put64(s.l2DemandAccesses);
    w.put64(s.l2DemandMisses);
    w.put64(s.llcMisses);
    w.put64(s.l2PrefetchesIssued);
    w.put64(s.l2PrefetchesUseful);
    w.put64(s.latePrefetches);
    w.put64(s.dramReads);
    w.put64(s.dramWrites);
    w.put64(s.dramPrefetchReads);
    w.put64(s.markov.lookups);
    w.put64(s.markov.hits);
    w.put64(s.markov.inserts);
    w.put64(s.markov.updates);
    w.put64(s.markov.replacements);
    w.put64(s.markov.resizeDrops);
    w.put32(s.finalMetadataWays);
    w.put8(s.sampled ? 1 : 0);
    w.put64(s.sampledRecords);
    w.putDouble(s.sampleScale);
    w.put64(s.offchipMeta.metadataReads);
    w.put64(s.offchipMeta.metadataWrites);
    w.put64(s.l1Accesses);
    w.put64(s.l2Accesses);
    w.put64(s.llcAccesses);
    // Insertion order is FlatMap's iteration order, so the replayed
    // map iterates identically to the original.
    w.put64(s.pcMisses.size());
    for (const auto &[pc, count] : s.pcMisses) {
        w.put64(static_cast<std::uint64_t>(pc));
        w.put64(count);
    }
}

sim::RunStats
getStats(ByteReader &r)
{
    sim::RunStats s;
    s.ipc = r.getDouble();
    s.cycles = r.get64();
    s.instructions = r.get64();
    s.records = r.get64();
    s.l1Misses = r.get64();
    s.l2DemandAccesses = r.get64();
    s.l2DemandMisses = r.get64();
    s.llcMisses = r.get64();
    s.l2PrefetchesIssued = r.get64();
    s.l2PrefetchesUseful = r.get64();
    s.latePrefetches = r.get64();
    s.dramReads = r.get64();
    s.dramWrites = r.get64();
    s.dramPrefetchReads = r.get64();
    s.markov.lookups = r.get64();
    s.markov.hits = r.get64();
    s.markov.inserts = r.get64();
    s.markov.updates = r.get64();
    s.markov.replacements = r.get64();
    s.markov.resizeDrops = r.get64();
    s.finalMetadataWays = r.get32();
    s.sampled = r.get8() != 0;
    s.sampledRecords = r.get64();
    s.sampleScale = r.getDouble();
    s.offchipMeta.metadataReads = r.get64();
    s.offchipMeta.metadataWrites = r.get64();
    s.l1Accesses = r.get64();
    s.l2Accesses = r.get64();
    s.llcAccesses = r.get64();
    std::uint64_t n = r.get64();
    // 16 bytes per pair: a corrupt count cannot out-allocate the
    // payload it must fit inside.
    if (n > r.left / 16)
        throw Error(ErrorCode::JournalCorrupt,
                    "pc-miss map count exceeds payload");
    s.pcMisses.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t pc = r.get64();
        s.pcMisses.emplace(static_cast<PC>(pc), r.get64());
    }
    return s;
}

std::string
serializeEntry(const JournalEntry &e)
{
    ByteWriter payload;
    payload.put32(e.jobIndex);
    payload.putString(e.workload);
    payload.putString(e.pipeline);
    payload.put32(e.attempts);
    putStats(payload, e.stats);
    payload.put32(static_cast<std::uint32_t>(e.metrics.size()));
    for (const auto &[name, value] : e.metrics) {
        payload.putString(name);
        payload.putDouble(value);
    }

    ByteWriter frame;
    frame.put32(kEntryMagic);
    frame.put32(static_cast<std::uint32_t>(payload.buf.size()));
    frame.raw(payload.buf.data(), payload.buf.size());
    frame.put64(fnv1a64(payload.buf.data(), payload.buf.size()));
    return std::move(frame.buf);
}

JournalEntry
parsePayload(const char *data, std::size_t size)
{
    ByteReader r{data, size};
    JournalEntry e;
    e.jobIndex = r.get32();
    e.workload = r.getString();
    e.pipeline = r.getString();
    e.attempts = r.get32();
    e.stats = getStats(r);
    std::uint32_t n = r.get32();
    // At least 12 bytes per metric (name length + value): a corrupt
    // count cannot out-allocate the payload it must fit inside.
    if (n > r.left / 12)
        throw Error(ErrorCode::JournalCorrupt,
                    "metric count exceeds payload");
    e.metrics.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = r.getString();
        e.metrics.emplace_back(std::move(name), r.getDouble());
    }
    return e;
}

} // anonymous namespace

ResultJournal::ResultJournal(std::string path,
                             std::uint64_t spec_hash)
    : filePath(std::move(path)), specHash(spec_hash)
{
    load();
    file = std::fopen(filePath.c_str(), "ab");
    if (!file)
        prophet_warnf("journal: cannot open %s for append; "
                      "checkpointing disabled for this run",
                      filePath.c_str());
}

ResultJournal::~ResultJournal()
{
    if (file)
        std::fclose(file);
}

void
ResultJournal::load()
{
    std::FILE *in = std::fopen(filePath.c_str(), "rb");
    std::string bytes;
    if (in) {
        char chunk[1 << 16];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof(chunk), in)) > 0)
            bytes.append(chunk, n);
        std::fclose(in);
    }

    auto recreate = [&] {
        std::FILE *out = std::fopen(filePath.c_str(), "wb");
        if (!out) {
            prophet_warnf("journal: cannot create %s",
                          filePath.c_str());
            return;
        }
        ByteWriter header;
        header.put32(kFileMagic);
        header.put32(kFormatVersion);
        header.put64(specHash);
        std::fwrite(header.buf.data(), 1, header.buf.size(), out);
        std::fflush(out);
        ::fsync(fileno(out));
        std::fclose(out);
    };

    if (bytes.empty()) {
        recreate();
        return;
    }
    if (bytes.size() < kHeaderBytes) {
        prophet_warnf("journal: %s has a truncated header; "
                      "starting it over",
                      filePath.c_str());
        recreate();
        return;
    }

    std::uint32_t magic, version;
    std::uint64_t file_hash;
    std::memcpy(&magic, bytes.data(), 4);
    std::memcpy(&version, bytes.data() + 4, 4);
    std::memcpy(&file_hash, bytes.data() + 8, 8);
    if (magic != kFileMagic || version != kFormatVersion) {
        prophet_warnf("journal: %s is not a v%u prophet journal; "
                      "starting it over",
                      filePath.c_str(), kFormatVersion);
        recreate();
        return;
    }
    if (file_hash != specHash) {
        char want[17], have[17];
        std::snprintf(want, sizeof(want), "%016llx",
                      static_cast<unsigned long long>(specHash));
        std::snprintf(have, sizeof(have), "%016llx",
                      static_cast<unsigned long long>(file_hash));
        ErrorContext ctx;
        ctx.path = filePath;
        // Refusal, not recovery: silently replaying another
        // experiment's numbers is the one failure mode a resume
        // journal must never have.
        throw SpecError(
            "journal " + filePath
                + " was written by a different experiment (spec "
                  "result hash "
                + have + ", this run is " + want
                + "); delete it or run without --resume",
            std::move(ctx));
    }

    // Entry scan. validEnd trails the last fully intact frame so a
    // torn tail — a crash mid-append — is truncated away and the
    // next append starts on a clean frame boundary.
    std::size_t off = kHeaderBytes;
    std::size_t valid_end = kHeaderBytes;
    while (off + 8 <= bytes.size()) {
        std::uint32_t entry_magic, len;
        std::memcpy(&entry_magic, bytes.data() + off, 4);
        std::memcpy(&len, bytes.data() + off + 4, 4);
        if (entry_magic != kEntryMagic || len > kMaxPayloadBytes
            || off + 8 + len + 8 > bytes.size())
            break; // torn tail: frame never finished
        const char *payload = bytes.data() + off + 8;
        std::uint64_t stored_sum;
        std::memcpy(&stored_sum, payload + len, 8);
        std::size_t next = off + 8 + len + 8;
        bool corrupt = fnv1a64(payload, len) != stored_sum
            || fault::shouldFail("journal.load");
        if (!corrupt) {
            try {
                loaded.push_back(parsePayload(payload, len));
            } catch (const Error &) {
                corrupt = true;
            }
        }
        if (corrupt) {
            // The frame is intact (magic + length landed), only the
            // contents are bad — bit rot, not a torn write. Skip it
            // and keep replaying; this one job re-simulates.
            ++skippedEntries;
            metrics::counter("journal.corrupt_skipped").inc();
            prophet_warnf("journal: %s: entry at offset %zu failed "
                          "its checksum; skipped (the job will "
                          "re-simulate)",
                          filePath.c_str(), off);
        }
        valid_end = next;
        off = next;
    }

    if (valid_end < bytes.size()) {
        tornBytes = bytes.size() - valid_end;
        prophet_warnf("journal: %s: truncating %llu torn byte(s) "
                      "after offset %zu (crashed mid-append)",
                      filePath.c_str(),
                      static_cast<unsigned long long>(tornBytes),
                      valid_end);
        if (::truncate(filePath.c_str(),
                       static_cast<off_t>(valid_end))
            != 0)
            prophet_warnf("journal: truncate(%s) failed",
                          filePath.c_str());
    }
}

bool
ResultJournal::append(const JournalEntry &entry)
{
    std::string frame = serializeEntry(entry);
    std::lock_guard<std::mutex> lock(appendMu);
    if (!file)
        return false;
    if (fault::shouldFail("journal.append")) {
        // Simulated I/O failure: nothing reaches the file, so the
        // journal stays well-formed and later appends still land.
        metrics::counter("journal.append_failures").inc();
        if (!appendFailedOnce)
            prophet_warnf("journal: append to %s failed (injected); "
                          "this job will re-simulate on resume",
                          filePath.c_str());
        appendFailedOnce = true;
        return false;
    }
    std::size_t wrote =
        std::fwrite(frame.data(), 1, frame.size(), file);
    if (wrote != frame.size() || std::fflush(file) != 0) {
        // A partial frame is on disk: the next load truncates it as
        // a torn tail, but appending after it would be garbage, so
        // journaling stops for this run.
        metrics::counter("journal.append_failures").inc();
        if (!appendFailedOnce)
            prophet_warnf("journal: write to %s failed (disk full?); "
                          "checkpointing disabled for the rest of "
                          "this run",
                          filePath.c_str());
        appendFailedOnce = true;
        std::fclose(file);
        file = nullptr;
        return false;
    }
    ::fsync(fileno(file));
    metrics::counter("journal.appends").inc();
    return true;
}

} // namespace prophet::driver
