/**
 * @file
 * The crash-safe result journal: an append-only binary file the
 * experiment driver writes one entry to per completed job — its stats
 * and its derived metrics — so a sweep killed mid-run — SIGTERM, OOM,
 * power — resumes from its last completed job instead of starting
 * over. A replayed job re-derives nothing, so a workload's baseline
 * is simulated again on resume only when one of the jobs that need it
 * had not completed.
 *
 * Durability model, in the spirit of the trace cache's frame format:
 *
 *  - the header carries the spec's *result hash*, so a journal can
 *    never replay into a different experiment (a mismatch refuses
 *    loudly rather than merging foreign numbers);
 *  - every entry is framed (magic, length, payload, FNV-1a-64
 *    checksum) and written with a single fwrite + flush + fsync, so
 *    an entry survives power loss, not just process death, and a
 *    torn tail from a crashed writer is detected and truncated on
 *    the next load — everything before it replays;
 *  - a mid-file entry whose checksum fails (bit rot) is skipped and
 *    logged; intact entries after it still replay, and the skipped
 *    job simply re-simulates.
 *
 * Entries serialize the full RunStats — including the per-PC miss
 * map — and every metric's double bit for bit, so a resumed run's
 * merged output is bit-identical to a from-scratch run
 * (regression-gated in tests/test_journal.cc). The format is
 * host-endian: a journal is a same-machine resume artifact, not an
 * interchange format.
 */

#ifndef PROPHET_DRIVER_JOURNAL_HH
#define PROPHET_DRIVER_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"

namespace prophet::driver
{

/** One replayable journal record: a completed job. */
struct JournalEntry
{
    std::uint32_t jobIndex = 0; ///< job-matrix slot index

    std::string workload;
    std::string pipeline; ///< result name
    unsigned attempts = 1;
    sim::RunStats stats;

    /** The spec's metrics, in spec order: name and value. */
    std::vector<std::pair<std::string, double>> metrics;
};

/**
 * The journal file. Constructing it loads and validates any existing
 * entries (replayable via entries()), truncates a torn tail, then
 * holds the file open for appends. One instance per driver run;
 * append() is thread-safe (sweep workers call it concurrently).
 */
class ResultJournal
{
  public:
    /**
     * Open @p path (creating it if absent) for an experiment whose
     * spec resultHash is @p spec_hash.
     *
     * Throws SpecError when the file holds a valid header for a
     * *different* spec hash — replaying it would merge numbers from
     * another experiment. Every other defect recovers: a torn tail
     * is truncated (logged), a checksum-failed entry is skipped
     * (logged), an unreadable header restarts the journal from
     * scratch. The fault site "journal.load" injects a per-entry
     * corruption; "journal.append" injects an append I/O failure.
     */
    ResultJournal(std::string path, std::uint64_t spec_hash);

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    ~ResultJournal();

    /** Valid entries found at construction, in file order. */
    const std::vector<JournalEntry> &entries() const
    {
        return loaded;
    }

    /**
     * Append one entry: a single buffered write, flushed and
     * fsynced before returning, so a completed job is
     * durable before the next one starts. Returns false on an I/O
     * failure — journaling degrades (the run continues, this job
     * just re-simulates on resume) and the failure is logged once.
     */
    bool append(const JournalEntry &entry);

    /** Entries dropped at load time for failing their checksum. */
    std::size_t corruptSkipped() const { return skippedEntries; }

    /** Bytes of torn tail truncated at load time. */
    std::uint64_t truncatedBytes() const { return tornBytes; }

    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
    std::uint64_t specHash;

    std::vector<JournalEntry> loaded;
    std::size_t skippedEntries = 0;
    std::uint64_t tornBytes = 0;

    std::mutex appendMu;
    std::FILE *file = nullptr; ///< open for append after load
    bool appendFailedOnce = false;

    void load();
};

} // namespace prophet::driver

#endif // PROPHET_DRIVER_JOURNAL_HH
