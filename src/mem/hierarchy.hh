/**
 * @file
 * Three-level cache hierarchy plus DRAM. This is the observation and
 * actuation substrate for every prefetcher in the repository: demand
 * accesses flow L1D -> L2 -> LLC -> DRAM; temporal prefetchers watch
 * the L2 access stream (including L1-prefetcher requests, per the
 * paper's Section 5.1) and inject fills at L2.
 *
 * Simplification vs. the paper's gem5 configuration: the hierarchy is
 * weakly inclusive (fills propagate to all levels) rather than
 * mostly-inclusive L2 / mostly-exclusive LLC. Partitioning, prefetch
 * usefulness, timeliness, and DRAM traffic — the quantities the
 * evaluation depends on — are unaffected by this simplification.
 */

#ifndef PROPHET_MEM_HIERARCHY_HH
#define PROPHET_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

namespace prophet::mem
{

/** Where a demand access was satisfied. */
enum class HitLevel { L1, L2, LLC, Dram };

/** Full configuration of the memory subsystem. */
struct HierarchyConfig
{
    CacheConfig l1d{"L1D", 64 * 1024, 4, 2, 16, "plru"};
    CacheConfig l2{"L2", 512 * 1024, 8, 9, 32, "plru"};
    CacheConfig llc{"LLC", 2 * 1024 * 1024, 16, 20, 36, "lru"};
    DramConfig dram{};
};

/** Everything a caller learns from one demand access. */
struct AccessOutcome
{
    HitLevel level = HitLevel::L1;

    /** Cycle the data becomes available to the core. */
    Cycle readyAt = 0;

    /** Line address of the access. */
    Addr lineAddr = 0;

    /** The access reached the L2 (observation point for temporal
     *  prefetchers). */
    bool l2Accessed = false;

    /** It hit in the L2. */
    bool l2Hit = false;

    /** A prefetched line satisfied this demand (at any level). */
    bool prefetchUseful = false;

    /** Which prefetcher installed that line. */
    PfClass prefetchClass = PfClass::None;

    /** PC credited with that useful prefetch. */
    PC prefetchPc = kInvalidPC;

    /** The useful prefetch had not finished filling (late). */
    bool prefetchLate = false;
};

/** Outcome of an L1 prefetch probe (for temporal-prefetcher training). */
struct L1PrefetchOutcome
{
    bool issued = false;      ///< not redundant with L1 contents
    bool l2Accessed = false;  ///< probe reached L2
    bool l2Hit = false;
};

/**
 * The assembled memory subsystem.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /** One demand access (load or store, write-allocate). */
    AccessOutcome access(PC pc, Addr addr, bool is_write, Cycle cycle);

    /**
     * L1 prefetch (stride/IPCP). Fills L1 (and below on deeper
     * misses). Returns what the probe did at L2 so the temporal
     * prefetcher can observe it.
     */
    L1PrefetchOutcome prefetchL1(PC pc, Addr line_addr, Cycle cycle);

    /**
     * L2 prefetch (temporal prefetcher). @p pc is the PC credited
     * with the prefetch when a demand later consumes the line.
     * @return true if the prefetch was actually issued (line was not
     * already in L2).
     */
    bool prefetchL2(PC pc, Addr line_addr, Cycle cycle);

    Cache &l1() { return l1Cache; }
    Cache &l2() { return l2Cache; }
    Cache &llc() { return llcCache; }
    Dram &dram() { return dramModel; }
    const Cache &l1() const { return l1Cache; }
    const Cache &l2() const { return l2Cache; }
    const Cache &llc() const { return llcCache; }
    const Dram &dram() const { return dramModel; }

    /** L2 prefetches actually issued via prefetchL2(). */
    std::uint64_t l2PrefetchesIssued() const { return l2PfIssued; }

    /** Reset all statistics (warmup boundary). */
    void resetStats();

  private:
    Cache l1Cache;
    Cache l2Cache;
    Cache llcCache;
    Dram dramModel;
    std::uint64_t l2PfIssued = 0;

    /** Route a dirty eviction from the given level downward. */
    void writeback(const Eviction &ev, int from_level, Cycle cycle);
};

} // namespace prophet::mem

#endif // PROPHET_MEM_HIERARCHY_HH
