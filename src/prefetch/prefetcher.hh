/**
 * @file
 * Prefetcher interfaces. Two attachment points exist in the system,
 * matching the paper's Table 1 configuration:
 *
 *  - L1 prefetchers (stride, IPCP) observe every demand L1D access
 *    and issue prefetches into the L1D.
 *  - Temporal (L2) prefetchers observe the L2 access stream —
 *    demand L1 misses *and* L1-prefetcher requests that reach the L2
 *    (Section 5.1: "trained on the L2 cache access stream, including
 *    prefetch requests generated by L1 stride prefetchers").
 */

#ifndef PROPHET_PREFETCH_PREFETCHER_HH
#define PROPHET_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace prophet::pf
{

struct MarkovStats;

/** Metadata DRAM traffic generated by an off-chip prefetcher. */
struct OffchipMetadataStats
{
    std::uint64_t metadataReads = 0;  ///< DRAM lines read
    std::uint64_t metadataWrites = 0; ///< DRAM lines written

    std::uint64_t total() const { return metadataReads + metadataWrites; }
};

/** One prefetch request produced by a temporal prefetcher. */
struct PrefetchRequest
{
    /** Line address to prefetch. */
    Addr lineAddr = 0;

    /**
     * PC credited with the prefetch; per-PC accuracy accounting
     * (the profiler's PEBS stand-in) keys off this.
     */
    PC creditPc = kInvalidPC;
};

/**
 * L1 prefetcher interface.
 */
class L1Prefetcher
{
  public:
    virtual ~L1Prefetcher() = default;

    /**
     * Observe one demand L1D access and append prefetch candidates
     * (byte addresses are line-aligned by the caller's use of line
     * addresses throughout).
     */
    virtual void observe(PC pc, Addr line_addr, bool l1_hit,
                         std::vector<Addr> &out) = 0;

    virtual std::string name() const = 0;
};

/**
 * Temporal (L2) prefetcher interface.
 */
class TemporalPrefetcher
{
  public:
    virtual ~TemporalPrefetcher() = default;

    /**
     * Observe one L2 access and append prefetch requests.
     *
     * @param pc PC of the triggering instruction.
     * @param line_addr Accessed line address.
     * @param l2_hit The access hit in L2.
     * @param cycle Access cycle (epoch/resizing clocks).
     * @param out Receives prefetch requests.
     */
    virtual void observe(PC pc, Addr line_addr, bool l2_hit, Cycle cycle,
                         std::vector<PrefetchRequest> &out) = 0;

    /**
     * Feedback: a prefetch request credited to @p pc was actually
     * issued to the hierarchy (i.e. not squashed as redundant).
     * This is the PEBS L2_Prefetch_Issue event's trigger point.
     */
    virtual void notifyIssued(PC pc) { (void)pc; }

    /**
     * Feedback: a demand access consumed a prefetched line credited
     * to @p pc. Drives runtime accuracy estimation (Triangel) and
     * profiling counters (Prophet).
     */
    virtual void notifyUseful(PC pc) { (void)pc; }

    /**
     * Feedback: an unused prefetched line credited to @p pc was
     * evicted (the prefetch was useless).
     */
    virtual void notifyUseless(PC pc) { (void)pc; }

    /** LLC ways currently allocated to the metadata table. */
    virtual unsigned metadataWays() const = 0;

    /**
     * Report end-of-run statistics into the caller's RunStats fields:
     * on-chip schemes fill @p markov, off-chip schemes fill
     * @p offchip. Replaces a per-run dynamic_cast chain in
     * System::run with one virtual dispatch.
     */
    virtual void
    collectStats(MarkovStats &markov, OffchipMetadataStats &offchip) const
    {
        (void)markov;
        (void)offchip;
    }

    virtual std::string name() const = 0;
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_PREFETCHER_HH
