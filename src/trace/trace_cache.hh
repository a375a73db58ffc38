/**
 * @file
 * On-disk trace cache: workload traces are deterministic per
 * (workload, record-override), so once generated they can be stored
 * in the trace_io binary format and reloaded by later invocations,
 * skipping regeneration entirely. The Runner consults a cache when
 * one is attached; the `prophet trace-cache` CLI subcommands manage
 * the directory.
 *
 * Robustness:
 *  - stores write to a temp file and rename into place, so a crashed
 *    writer never leaves a half-written entry under the final name;
 *  - an flock(2)-based lock file (".lock") serializes writers across
 *    processes sharing the directory (advisory, auto-released on
 *    process death — no stale-lock recovery needed);
 *  - entries are stored in the checksummed v4 format (XXH64 per
 *    array, see trace_io.hh) and verified on load; a damaged entry
 *    (bad header, truncation, checksum mismatch) or one in another
 *    format version is *quarantined* — renamed to "<entry>.corrupt" — so
 *    the evidence survives for inspection while the caller
 *    regenerates a good entry under the original name;
 *  - checksum-failure, quarantine, lock-contention, and
 *    store-failure counters persist in "cache-counters.txt", so
 *    `prophet trace-cache stats` reports them across processes.
 */

#ifndef PROPHET_TRACE_TRACE_CACHE_HH
#define PROPHET_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace prophet::trace
{

/**
 * Generation schema version, part of every cache key. BUMP THIS
 * whenever any workload generator's output changes (new streams,
 * parameter tweaks, seed changes, record-layout semantics): stale
 * entries under the old version then miss instead of silently
 * serving pre-change traces as if they were current.
 */
constexpr unsigned kGeneratorSchemaVersion = 1;

/** A file-backed cache of generated traces, one .ptrc per key. */
class TraceCache
{
  public:
    /** Hit/miss/store counters (per TraceCache instance). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;

        /** Entries whose array checksum failed verification. */
        std::uint64_t checksumFailures = 0;

        /** Damaged entries renamed to "<entry>.corrupt". */
        std::uint64_t quarantines = 0;

        /** Times the writer lock was held by someone else. */
        std::uint64_t lockContention = 0;

        /** Failed stores (I/O error, ENOSPC, injected faults). */
        std::uint64_t storeFailures = 0;
    };

    /**
     * The durable counter subset, accumulated across processes in
     * "cache-counters.txt" (best-effort: a read-only directory
     * simply stops accumulating).
     */
    struct PersistentCounters
    {
        std::uint64_t checksumFailures = 0;
        std::uint64_t quarantines = 0;
        std::uint64_t lockContention = 0;
        std::uint64_t storeFailures = 0;
    };

    /** One cached file, for `trace-cache stats`. */
    struct Entry
    {
        std::string file;       ///< file name within the cache dir
        std::uint64_t bytes = 0;
    };

    /**
     * @param dir Cache directory; created on first store. Empty
     *        selects defaultDir().
     */
    explicit TraceCache(std::string dir = "");

    /** $PROPHET_TRACE_CACHE when set, else ".prophet-trace-cache". */
    static std::string defaultDir();

    /** The cache directory. */
    const std::string &dir() const { return dirPath; }

    /**
     * Cache file for a (workload, records-override,
     * kGeneratorSchemaVersion) key. The override is part of the key
     * verbatim: 0 means "workload default length" and is itself a
     * distinct, deterministic key.
     */
    std::string path(const std::string &workload,
                     std::size_t records) const;

    /**
     * Load a cached trace. Returns false (and leaves @p out empty)
     * on miss or on a damaged file; never throws. A damaged entry is
     * quarantined (renamed to "<entry>.corrupt") so the next run
     * regenerates it while the bad bytes stay inspectable. A hit is
     * logged to stderr so cache effectiveness is observable without
     * changing stdout. An entry in any format other than v4 fails
     * the header check and is quarantined like any damaged entry, so
     * a v3 entry left by an older build is quarantined once and
     * regenerated.
     */
    bool load(const std::string &workload, std::size_t records,
              Trace &out);

    /**
     * Store a trace atomically (temp file + rename) while holding
     * the cross-process writer lock. Fault point "cache.store"
     * simulates an out-of-space store; a failed store never leaves a
     * partial entry under the final name.
     */
    bool store(const std::string &workload, std::size_t records,
               const Trace &t);

    /** Delete every cached trace; returns the number removed. */
    std::size_t clear();

    /** The cached files, sorted by name. */
    std::vector<Entry> entries() const;

    /** Quarantined "<entry>.corrupt" files, sorted by name. */
    std::vector<Entry> quarantined() const;

    /** Counter snapshot (this instance). */
    Stats stats() const;

    /** The durable counters accumulated in the cache directory. */
    PersistentCounters persistentCounters() const;

  private:
    std::string dirPath;
    mutable std::mutex mu;
    Stats counters;

    void quarantineEntry(const std::string &file, bool checksum);
    void bumpPersistent(std::uint64_t PersistentCounters::*field,
                        std::uint64_t delta = 1);
};

} // namespace prophet::trace

#endif // PROPHET_TRACE_TRACE_CACHE_HH
