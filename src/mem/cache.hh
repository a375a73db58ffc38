/**
 * @file
 * Set-associative cache with prefetch-bit accounting, fill-time
 * tracking (so late prefetches earn only partial latency credit), and
 * way reservation for the LLC-resident metadata table.
 */

#ifndef PROPHET_MEM_CACHE_HH
#define PROPHET_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/cache_config.hh"
#include "mem/replacement.hh"

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
    explicit Cache(const CacheConfig &config);

    /**
     * Demand lookup. On a hit the replacement state is updated and
     * prefetch-bit bookkeeping performed.
     *
     * @param line_addr Line address accessed.
     * @param cycle Access cycle.
     */
    LookupResult lookupDemand(Addr line_addr, Cycle cycle);

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

    /** Mark an existing line dirty (store hit / writeback merge). */
    void markDirty(Addr line_addr);

    /** Invalidate a line if present; returns its eviction record. */
    Eviction invalidate(Addr line_addr);

    /**
     * Reserve the first @p ways ways of every set (metadata-table
     * partition). Growing the reservation invalidates the affected
     * demand lines; their evictions are dropped (metadata handover).
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
     *  - `tags`: one Addr per line, contiguous per set, so findWay
     *    scans at most assoc adjacent words (an 8-way set is a single
     *    64 B cache line of tags). Invalid lines hold kInvalidTag,
     *    which doubles as the invalid-way marker: no flags byte is
     *    consulted until after a tag matches.
     *  - `tagLo`: the low 32 bits of each tag, kept in lockstep with
     *    `tags`. This is the scan array: on x86-64 findWay compares
     *    four ways per SSE2 instruction against it and verifies the
     *    rare low-word match against the full tag, so a whole 16-way
     *    set scans in four vector compares and half the memory
     *    traffic of the 64-bit array.
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
     * The way indices 0..assoc-1, built once at construction. The
     * demand partition [reserved, assoc) is a contiguous suffix, so
     * eviction candidates are always the span
     * (wayIds.data() + reserved, assoc - reserved) — the steady-state
     * miss path never builds a candidate vector.
     */
    std::vector<unsigned> wayIds;

    std::unique_ptr<ReplacementPolicy> repl;
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

    int findWay(unsigned set, Addr line_addr) const;
    int findInvalidWay(unsigned set) const;

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
