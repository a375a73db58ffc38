/**
 * @file
 * STMS-style off-chip temporal prefetcher (Wenisch et al., HPCA'09;
 * reference [55] of the paper). Metadata lives in DRAM: a global
 * history buffer of the miss stream plus an index table mapping each
 * address to its latest history position. Every prediction requires
 * metadata reads from DRAM and every training append a metadata
 * write — the bandwidth cost that motivated moving metadata on-chip
 * ("fetching metadata from DRAM consumes a substantial amount of
 * memory bandwidth that could otherwise be used for demand memory
 * accesses", Section 2.1).
 *
 * This implementation models both the prediction mechanics (history
 * replay from the indexed position) and the DRAM metadata traffic,
 * so specs/offchip.json can reproduce the on-chip-vs-off-chip
 * trade-off.
 */

#ifndef PROPHET_PREFETCH_STMS_HH
#define PROPHET_PREFETCH_STMS_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "prefetch/prefetcher.hh"

namespace prophet::pf
{

/** STMS configuration. */
struct StmsConfig
{
    /** Global history buffer length (entries, circular). */
    std::size_t historyEntries = 1 << 20;

    /** Addresses replayed per prediction (stream burst). */
    unsigned degree = 4;

    /**
     * History entries packed per 64 B DRAM line (traffic
     * accounting): 16 x 4-byte compressed pointers.
     */
    unsigned entriesPerLine = 16;

    /** Only misses train (classic STMS trains on the miss stream). */
    bool trainOnMissesOnly = true;
};

/**
 * The STMS prefetcher.
 */
class StmsPrefetcher : public TemporalPrefetcher
{
  public:
    explicit StmsPrefetcher(const StmsConfig &config = {});

    void observe(PC pc, Addr line_addr, bool l2_hit, Cycle cycle,
                 std::vector<PrefetchRequest> &out) override;

    /** Off-chip metadata occupies no LLC ways. */
    unsigned metadataWays() const override { return 0; }

    void
    collectStats(MarkovStats &, OffchipMetadataStats &offchip)
        const override
    {
        offchip = mdStats;
    }

    std::string name() const override { return "stms"; }

    /** DRAM traffic caused by metadata management. */
    const OffchipMetadataStats &metadataStats() const
    {
        return mdStats;
    }

    /** Current history occupancy (tests). */
    std::size_t historySize() const
    {
        return full ? cfg.historyEntries : head;
    }

  private:
    StmsConfig cfg;
    std::vector<Addr> history;
    FlatMap<Addr, std::size_t> indexTable;
    std::size_t head = 0;
    bool full = false;
    OffchipMetadataStats mdStats;

    void append(Addr line_addr);
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_STMS_HH
