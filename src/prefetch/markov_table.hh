/**
 * @file
 * The on-chip metadata (Markov) table shared with the LLC, the
 * structure at the heart of on-chip temporal prefetching (Triage,
 * Triangel, Prophet). Maps a line address to the line address that
 * followed it in the training stream.
 *
 * Geometry mirrors the LLC partition: the table borrows whole LLC
 * ways; each borrowed way contributes one 64 B line = 12 compressed
 * entries per set (metadata_format.hh). With 2048 LLC sets and 8 ways
 * the table holds 196,608 entries = 1 MB, the paper's maximum.
 *
 * Replacement is pluggable (SRRIP for Triangel, Hawkeye for original
 * Triage, LRU for the simplified profiling configuration). Prophet's
 * profile-guided replacement layers on top: entries carry a priority
 * level (Eq. 2); when priority-aware mode is on, victim candidates
 * are restricted to the lowest-priority valid entries and the runtime
 * policy chooses the final victim among them (Figure 4).
 */

#ifndef PROPHET_PREFETCH_MARKOV_TABLE_HH
#define PROPHET_PREFETCH_MARKOV_TABLE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/replacement.hh"
#include "prefetch/metadata_format.hh"

namespace prophet::mem
{
class HawkeyePolicy;
} // namespace prophet::mem

namespace prophet::pf
{

/** Aggregate metadata-table statistics. */
struct MarkovStats
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;       ///< new-entry allocations
    std::uint64_t updates = 0;       ///< target overwrites on hits
    std::uint64_t replacements = 0;  ///< valid entries displaced
    std::uint64_t resizeDrops = 0;   ///< entries lost to shrinking

    /**
     * The paper's application-level profiling metric (Section 4.1):
     * Allocated Entries = Insertions - Replacements.
     */
    std::uint64_t
    allocatedEntries() const
    {
        return inserts >= replacements ? inserts - replacements : 0;
    }
};

/**
 * The metadata table.
 */
class MarkovTable
{
  public:
    /** One stored correlation. */
    struct Entry
    {
        Addr key = kInvalidAddr;
        Addr target = kInvalidAddr;
        std::uint8_t priority = 0; ///< Prophet replacement state
        bool valid = false;
    };

    /**
     * Called with an entry whose target is being displaced — either
     * the victim of a replacement or the old target of an overwrite.
     * The Multi-path Victim Buffer (Section 4.5) subscribes here.
     */
    using EvictionCallback = std::function<void(const Entry &)>;

    /**
     * @param num_sets Sets (= LLC sets), power of 2.
     * @param max_ways Maximum borrowed LLC ways (8 for 1 MB).
     * @param policy Runtime replacement policy (takes ownership).
     */
    MarkovTable(unsigned num_sets, unsigned max_ways,
                std::unique_ptr<mem::ReplacementPolicy> policy);

    /**
     * Adjust the number of borrowed LLC ways. Shrinking drops entries
     * stored beyond the new capacity.
     */
    void setAllocatedWays(unsigned ways);

    /** Currently borrowed LLC ways. */
    unsigned allocatedWays() const { return curWays; }

    /** Maximum borrowed ways. */
    unsigned maxAllocatedWays() const { return maxWays; }

    /** Entry capacity at the current size. */
    std::uint64_t capacityEntries() const;

    /** Currently valid entries. */
    std::uint64_t size() const { return validCount; }

    /**
     * Look up the successor of @p key; touches replacement state on a
     * hit. Returns std::nullopt when the table holds no entry (or has
     * zero allocated ways).
     */
    std::optional<Addr> lookup(Addr key);

    /** Non-destructive probe (no replacement-state update). */
    std::optional<Addr> peek(Addr key) const;

    /**
     * Record the correlation key -> target with the given Prophet
     * priority (0 when Prophet replacement is off). No-op when zero
     * ways are allocated.
     */
    void insert(Addr key, Addr target, std::uint8_t priority);

    /** Enable/disable priority-filtered victim selection. */
    void setPriorityAware(bool aware) { priorityAware = aware; }

    /** Subscribe to displaced targets (Multi-path Victim Buffer). */
    void setEvictionCallback(EvictionCallback cb)
    {
        evictionCb = std::move(cb);
    }

    const MarkovStats &stats() const { return statsData; }
    void resetStats() { statsData = MarkovStats{}; }

    /** Invalidate everything (program switch). */
    void clear();

    /** Priority of the entry holding @p key, if present (tests). */
    std::optional<std::uint8_t> priorityOf(Addr key) const;

  private:
    unsigned numSets;
    unsigned maxWays;
    unsigned curWays;
    bool priorityAware = false;
    std::uint64_t validCount = 0;

    /**
     * Entry state, structure-of-arrays: the per-access findWay scan
     * reads a dense array of 32-bit key fingerprints (one 64 B line
     * covers 16 candidate ways); only a fingerprint hit is verified
     * against the full key array, so the common all-miss scan of a
     * 96-way set touches 6 lines instead of the 24 the old
     * array-of-structs layout dragged through the cache. Targets and
     * priorities sit in side arrays touched only after a verified
     * match. kInvalidAddr in the full-key array marks an invalid
     * slot (keys are line addresses, which never collide with the
     * all-ones sentinel); its fingerprint may collide with a real
     * key's, which the full-key verification rejects.
     */
    std::vector<std::uint32_t> fps;
    std::vector<Addr> keys;
    std::vector<Addr> targets;
    std::vector<std::uint8_t> priorities;

    /**
     * Valid entries per set. When a set is full (the steady state of
     * a trained table), the insert path skips its invalid-slot scan
     * outright instead of re-reading every key.
     */
    std::vector<std::uint16_t> setValid;

    /** 32-bit fold of a key for the scan array. */
    static std::uint32_t
    fingerprint(Addr key)
    {
        return static_cast<std::uint32_t>(key ^ (key >> 32));
    }

    /**
     * Scratch candidate buffer for victim selection, sized maxAssoc()
     * at construction so the insert/evict hot path never allocates.
     */
    std::vector<unsigned> candScratch;

    std::unique_ptr<mem::ReplacementPolicy> repl;

    /**
     * repl downcast to Hawkeye when it is one (resolved once at
     * construction; the old per-access dynamic_cast was a measurable
     * slice of every lookup and insert).
     */
    mem::HawkeyePolicy *hawkeye = nullptr;

    EvictionCallback evictionCb;
    MarkovStats statsData;

    unsigned maxAssoc() const { return maxWays * kEntriesPerLine; }
    unsigned curAssoc() const { return curA; }
    /** curWays * kEntriesPerLine, cached off the scan path. */
    unsigned curA;

    unsigned
    setIndex(Addr key) const
    {
        // Mix the key so that metadata for dense regions spreads
        // across sets (the LLC uses low bits directly; the table
        // hashes).
        std::uint64_t h = key;
        h ^= h >> 17;
        h *= 0xed5ad4bbULL;
        h ^= h >> 11;
        return static_cast<unsigned>(h & (numSets - 1));
    }
    std::size_t slotIndex(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * maxAssoc() + way;
    }
    int findWay(unsigned set, Addr key) const;
    void hawkeyeHints(Addr key);
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_MARKOV_TABLE_HH
