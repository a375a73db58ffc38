/**
 * @file
 * Domino-style off-chip temporal prefetcher (Bakhshalipour et al.,
 * HPCA'18; reference [10] of the paper). Improves on single-address
 * indexing (STMS) by indexing the history with the *pair* of the two
 * most recent miss addresses, which disambiguates addresses that
 * appear in multiple streams — the same multi-target phenomenon the
 * paper's Figure 8 quantifies and the Multi-path Victim Buffer
 * attacks on-chip.
 *
 * Metadata (pair index + history) stays in DRAM, so like STMS it
 * pays metadata bandwidth for every training and prediction event.
 */

#ifndef PROPHET_PREFETCH_DOMINO_HH
#define PROPHET_PREFETCH_DOMINO_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/stms.hh"

namespace prophet::pf
{

/** Domino configuration. */
struct DominoConfig
{
    /** Global history buffer length (entries, circular). */
    std::size_t historyEntries = 1 << 20;

    /** Addresses replayed per prediction. */
    unsigned degree = 4;

    /** History entries per 64 B DRAM line (traffic accounting). */
    unsigned entriesPerLine = 16;

    /** Train on the full L2 access stream or misses only. */
    bool trainOnMissesOnly = true;
};

/**
 * The Domino prefetcher: pair-indexed temporal streaming.
 */
class DominoPrefetcher : public TemporalPrefetcher
{
  public:
    explicit DominoPrefetcher(const DominoConfig &config = {});

    void observe(PC pc, Addr line_addr, bool l2_hit, Cycle cycle,
                 std::vector<PrefetchRequest> &out) override;

    unsigned metadataWays() const override { return 0; }

    void
    collectStats(MarkovStats &, OffchipMetadataStats &offchip)
        const override
    {
        offchip = mdStats;
    }

    const OffchipMetadataStats &metadataStats() const
    {
        return mdStats;
    }

  private:
    DominoConfig cfg;
    std::vector<Addr> history;
    /** (prev, cur) pair -> history position of cur. */
    FlatMap<std::uint64_t, std::size_t> pairIndex;
    /** Single-address fallback index (Domino's first-miss path). */
    FlatMap<Addr, std::size_t> singleIndex;
    Addr lastAddr = kInvalidAddr;
    std::size_t head = 0;
    bool full = false;
    OffchipMetadataStats mdStats;

    static std::uint64_t pairKey(Addr a, Addr b);
    void append(Addr line_addr);
    void replay(std::size_t pos, Addr trigger, PC pc,
                std::vector<PrefetchRequest> &out);
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_DOMINO_HH
