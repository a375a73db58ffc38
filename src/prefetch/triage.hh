/**
 * @file
 * Triage (Wu et al., MICRO'19 / IEEE TC'21): the first on-chip
 * temporal prefetcher. PC-localized training inserts every observed
 * correlation into the LLC-resident Markov table (no insertion
 * policy, Section 2.1.1); replacement is Hawkeye (original) or SRRIP;
 * table sizing uses a counting Bloom filter estimating the live
 * metadata working set (Section 2.1.3).
 */

#ifndef PROPHET_PREFETCH_TRIAGE_HH
#define PROPHET_PREFETCH_TRIAGE_HH

#include <memory>
#include <string>

#include "prefetch/bloom.hh"
#include "prefetch/markov_table.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/training_unit.hh"

namespace prophet::pf
{

/** Triage configuration. */
struct TriageConfig
{
    /** Prefetch degree (1 for classic Triage, 4 for "Triage4"). */
    unsigned degree = 1;

    /** Metadata replacement: "hawkeye", "srrip", or "lru". */
    std::string metaReplacement = "hawkeye";

    /** Markov-table sets (= LLC sets). */
    unsigned numSets = 2048;

    /** Maximum LLC ways the table may borrow (8 = 1 MB). */
    unsigned maxWays = 8;

    /** Enable Bloom-filter-driven resizing. */
    bool bloomResizing = true;

    /** L2 accesses between resize decisions. */
    std::uint64_t resizeWindow = 1 << 18;
};

/**
 * The Triage temporal prefetcher.
 */
class TriagePrefetcher : public TemporalPrefetcher
{
  public:
    explicit TriagePrefetcher(const TriageConfig &config);

    void observe(PC pc, Addr line_addr, bool l2_hit, Cycle cycle,
                 std::vector<PrefetchRequest> &out) override;

    unsigned metadataWays() const override
    {
        return table.allocatedWays();
    }

    void
    collectStats(MarkovStats &markov, OffchipMetadataStats &)
        const override
    {
        markov = table.stats();
    }

    /** Direct access for tests and the storage model. */
    MarkovTable &markovTable() { return table; }
    const MarkovTable &markovTable() const { return table; }
    const BloomFilter &bloom() const { return bloomFilter; }

  private:
    TriageConfig cfg;
    MarkovTable table;
    TrainingUnit trainer;
    BloomFilter bloomFilter;
    std::uint64_t accessesSinceResize = 0;

    void maybeResize();
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_TRIAGE_HH
