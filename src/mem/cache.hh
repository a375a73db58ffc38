/**
 * @file
 * Set-associative cache with prefetch-bit accounting, fill-time
 * tracking (so late prefetches earn only partial latency credit), and
 * way reservation for the LLC-resident metadata table. Replacement is
 * true LRU or tree pseudo-LRU (Table 1), kept as one word per set.
 */

#ifndef PROPHET_MEM_CACHE_HH
#define PROPHET_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/cache_config.hh"

namespace prophet::mem
{

/** Who issued the prefetch that installed a line. */
enum class PfClass : std::uint8_t { None, L1, L2 };

/** Outcome of a cache lookup. */
struct LookupResult
{
    /** The line is present (possibly still in flight). */
    bool hit = false;

    /**
     * Cycle at which the data is available; for a plain hit this is
     * access cycle + hit latency, for a hit on an in-flight prefetch
     * it also waits for the fill to land.
     */
    Cycle readyAt = 0;

    /** The hit consumed a prefetched line (first demand touch). */
    bool wasPrefetched = false;

    /** Which prefetcher installed the line when wasPrefetched. */
    PfClass prefetchClass = PfClass::None;

    /** PC credited with the prefetch when wasPrefetched. */
    PC prefetchPc = kInvalidPC;

    /** The fill had not yet landed (late prefetch). */
    bool wasLate = false;
};

/** Description of a line evicted by a fill. */
struct Eviction
{
    bool valid = false;
    Addr lineAddr = 0;
    bool dirty = false;
    /** Evicted line was prefetched and never used by a demand. */
    bool unusedPrefetch = false;
};

/** Aggregate per-cache statistics. */
struct CacheStats
{
    std::uint64_t demandHits = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t prefetchHits = 0;  ///< demand hits on prefetched lines
    std::uint64_t latePrefetchHits = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t fills = 0;
    std::uint64_t unusedPrefetchEvictions = 0;
};

/**
 * One cache level. Lines are identified by line address; fills install
 * immediately with a readiness time, which subsumes MSHR-style
 * in-flight tracking for the trace-driven timing model.
 */
class Cache
{
  public:
    /**
     * Build an empty cache. config.replacement is "lru" or "plru"
     * (tree pseudo-LRU, power-of-two associativity), at most 16 ways;
     * anything else is a fatal configuration error.
     */
    explicit Cache(const CacheConfig &config);

    /**
     * Demand lookup. On a hit the replacement state is updated and
     * prefetch-bit bookkeeping performed.
     *
     * @param line_addr Line address accessed.
     * @param cycle Access cycle.
     * @param is_write A store: a hit also marks the line dirty, in
     *        the same set scan.
     */
    LookupResult lookupDemand(Addr line_addr, Cycle cycle,
                              bool is_write = false);

    /**
     * Presence probe that does not update replacement state or clear
     * prefetch bits (used by prefetchers to squash redundant issues).
     */
    bool contains(Addr line_addr) const;

    /**
     * Lookup on behalf of a prefetch from an upper level: touches
     * replacement state on a hit but does not perturb demand
     * statistics or prefetch-bit bookkeeping.
     */
    LookupResult lookupPrefetch(Addr line_addr, Cycle cycle);

    /**
     * Install a line.
     *
     * @param line_addr Line address to fill.
     * @param ready_at Cycle the data arrives.
     * @param pf_class Prefetcher class that triggered the fill
     *        (PfClass::None for demand fills).
     * @param pf_pc PC credited when pf_class != None.
     * @param dirty Install in dirty state (writeback from above).
     * @return The eviction this fill caused, if any.
     */
    Eviction fill(Addr line_addr, Cycle ready_at, PfClass pf_class,
                  PC pf_pc, bool dirty);

    /**
     * Mark a line dirty if present (a write-back merging into this
     * level; a store hit sets the bit in lookupDemand).
     *
     * @return Whether the line was present.
     */
    bool markDirty(Addr line_addr);

    /** Invalidate a line if present; returns its eviction record. */
    Eviction invalidate(Addr line_addr);

    /**
     * Reserve the first @p ways ways of every set (metadata-table
     * partition). Growing the reservation invalidates the affected
     * demand lines; their evictions are dropped (metadata handover).
     * LRU caches only: tree-PLRU's victim walk covers the whole set.
     */
    void setReservedWays(unsigned ways);

    /** Currently reserved ways. */
    unsigned reservedWays() const { return reserved; }

    /** Geometry and latency access. */
    unsigned numSets() const { return sets; }
    unsigned assoc() const { return waysTotal; }
    Cycle hitLatency() const { return latency; }
    const std::string &name() const { return label; }

    /** Statistics. */
    const CacheStats &stats() const { return statsData; }
    void resetStats() { statsData = CacheStats{}; }

    /** Demand-visible capacity in bytes under the current partition. */
    std::uint64_t effectiveBytes() const;

  private:
    /**
     * Line state is split structure-of-arrays style so the tag probe
     * — the operation every lookup, fill, and invalidate performs —
     * streams through nothing but tags:
     *
     *  - `tags`: one Addr per line, contiguous per set, so a set
     *    scan reads at most assoc adjacent words (an 8-way set is a
     *    single 64 B cache line of tags). Invalid lines hold
     *    kInvalidTag, which doubles as the invalid-way marker: no
     *    flags byte is consulted until after a tag matches.
     *  - `tagLo`: the low 32 bits of each tag, kept in lockstep with
     *    `tags`. This is the scan array: on x86-64 scanSet compares
     *    four ways per SSE2 instruction against it and verifies the
     *    rare low-word match against the full tag, so a whole 16-way
     *    set scans in four vector compares and half the memory
     *    traffic of the 64-bit array. A fill's scan also compares
     *    against the sentinel's low word, so the same pass that
     *    looks for the line finds the lowest invalid way.
     *  - `flags`: packed dirty/prefetched/demandTouched bits plus
     *    the 2-bit PfClass, one byte per line (validity has a single
     *    source of truth: the tag sentinel).
     *  - `cold`: readyAt + prefetchPc, touched only on the hit/fill
     *    paths that need timing or credit information.
     */
    enum LineFlag : std::uint8_t
    {
        kFlagDirty = 1u << 0,
        kFlagPrefetched = 1u << 1,
        kFlagDemandTouched = 1u << 2,
        // bits 4-5: PfClass
    };

    /**
     * Tag sentinel for an invalid way. Callers index lines by *line*
     * address (byte address >> 6), so no reachable line can collide
     * with an all-ones tag.
     */
    static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);

    static constexpr unsigned kPfClassShift = 4;

    /** Low-32 image of kInvalidTag in the scan array. */
    static constexpr std::uint32_t kInvalidTagLo = 0xffffffffu;

    /** Timing/credit state off the tag-probe path. */
    struct ColdLine
    {
        Cycle readyAt = 0;
        PC prefetchPc = kInvalidPC;
    };

    std::string label;
    unsigned sets;
    unsigned waysTotal;
    Cycle latency;
    unsigned reserved = 0;
    std::vector<Addr> tags;
    std::vector<std::uint32_t> tagLo;
    std::vector<std::uint8_t> flags;
    std::vector<ColdLine> cold;

    /**
     * Replacement state, one word per set, read and written inline by
     * the lookups and fill:
     *
     *  - LRU: the set's recency order, a 4-bit way id per nibble, the
     *    most recent in nibble 0 and the least recent in nibble
     *    assoc - 1. A reset set lists way 0 as the least recent.
     *  - Tree-PLRU: the assoc - 1 node bits in heap order (node n's
     *    children are 2n + 1 and 2n + 2); a set bit steers the victim
     *    walk right.
     */
    std::vector<std::uint64_t> replWords;
    bool plru = false;

    /**
     * Tree-PLRU touch tables: for each way, the nodes on its root
     * path and the values a touch writes there (each pointing away
     * from the way). 16 ways have 15 nodes, so 16 bits suffice.
     */
    std::array<std::uint16_t, 16> pathMask{};
    std::array<std::uint16_t, 16> pathBits{};

    CacheStats statsData;

    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>(line_addr & (sets - 1));
    }

    std::size_t
    lineIndex(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * waysTotal + way;
    }

    /**
     * The way holding @p line_addr in @p set, or -1. With
     * kFindHole, the same pass stores the lowest invalid way of the
     * demand partition (or -1) in *hole.
     */
    template <bool kFindHole>
    int scanSet(unsigned set, Addr line_addr, int *hole) const;
    int findWay(unsigned set, Addr line_addr) const;

    /** Make @p way the most recently used way of @p set. */
    void touch(unsigned set, unsigned way);

    /**
     * The replacement victim of @p set among the demand ways; only
     * called when every demand way holds a line.
     */
    unsigned victim(unsigned set) const;

    /** Write a tag through to both the full and the scan array. */
    void
    setTag(std::size_t idx, Addr tag)
    {
        tags[idx] = tag;
        tagLo[idx] = static_cast<std::uint32_t>(tag);
    }

    static PfClass
    pfClassOf(std::uint8_t f)
    {
        return static_cast<PfClass>((f >> kPfClassShift) & 0x3u);
    }
};

} // namespace prophet::mem

#endif // PROPHET_MEM_CACHE_HH
