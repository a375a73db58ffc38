/**
 * @file
 * Triangel (Ainsworth & Mukhanov, ISCA'24), the state-of-the-art
 * hardware temporal prefetcher Prophet is compared against. On top
 * of Triage it adds:
 *
 *  - PatternConf: a 4-bit per-PC confidence that the PC's accesses
 *    exhibit a temporal pattern, trained by checking whether the
 *    previously sampled successor of an address recurs. Below
 *    threshold, Triangel neither inserts metadata nor prefetches
 *    (Figure 1's "not insert metadata + not prefetch").
 *  - ReuseConf: a 4-bit per-PC confidence that the pattern's reuse
 *    distance fits the metadata table, trained by a sampled
 *    reuse-distance monitor.
 *  - SRRIP metadata replacement (replacing Triage's Hawkeye).
 *  - Set-Dueller resizing (replacing the Bloom filter).
 *  - Aggressive prefetching: degree-4 chained lookahead, the source
 *    of most of Triangel's gain per its own ablation study.
 *
 * The paper's critique (Section 2.1.1) is reproduced faithfully by
 * this construction: short-term confidences mis-filter interleaved
 * useful/useless patterns with high reuse-distance variance.
 */

#ifndef PROPHET_PREFETCH_TRIANGEL_HH
#define PROPHET_PREFETCH_TRIANGEL_HH

#include <cstdint>
#include <vector>

#include "prefetch/markov_table.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/set_dueller.hh"
#include "prefetch/training_unit.hh"

namespace prophet::pf
{

/** Triangel configuration. */
struct TriangelConfig
{
    /** Chained prefetch degree (aggressive default). */
    unsigned degree = 4;

    /** Markov-table sets (= LLC sets). */
    unsigned numSets = 2048;

    /** Maximum borrowed LLC ways. */
    unsigned maxWays = 8;

    /** PatternConf/ReuseConf are 4-bit; start at the threshold. */
    std::uint8_t confInit = 8;
    std::uint8_t confThreshold = 8;
    std::uint8_t confMax = 15;

    /** Enable the insertion filter (ablations switch it off). */
    bool insertionFilter = true;

    /** Enable Set-Dueller resizing. */
    bool duellerResizing = true;

    /** Accesses per dueller window. */
    std::uint64_t duellerWindow = 1 << 18;

    /** Sample-cache entries for pattern checking. */
    unsigned sampleEntries = 4096;

    /** 1-in-N address sampling rate for the reuse monitor. */
    unsigned reuseSampleRate = 16;
};

/**
 * The Triangel temporal prefetcher.
 */
class TriangelPrefetcher : public TemporalPrefetcher
{
  public:
    explicit TriangelPrefetcher(const TriangelConfig &config);

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

    MarkovTable &markovTable() { return table; }
    const MarkovTable &markovTable() const { return table; }

    /** Current PatternConf of a PC (tests; confInit when untracked). */
    std::uint8_t patternConf(PC pc) const;

    /** Current ReuseConf of a PC (tests; confInit when untracked). */
    std::uint8_t reuseConf(PC pc) const;

  private:
    /** Per-PC confidence state. */
    struct ConfEntry
    {
        PC pc = kInvalidPC;
        std::uint8_t pattern = 0;
        std::uint8_t reuse = 0;
        bool valid = false;
    };

    /** Sampled (addr -> observed successor) for pattern checking. */
    struct SampleEntry
    {
        Addr addr = kInvalidAddr;
        Addr next = kInvalidAddr;
        bool valid = false;
    };

    /** Sampled (addr -> last access index) for reuse distances. */
    struct ReuseEntry
    {
        Addr addr = kInvalidAddr;
        std::uint64_t when = 0;
        bool valid = false;
    };

    TriangelConfig cfg;
    MarkovTable table;
    TrainingUnit trainer;
    SetDueller dueller;
    std::vector<ConfEntry> confs;
    std::vector<SampleEntry> samples;
    std::vector<ReuseEntry> reuseSamples;
    std::uint64_t accessIndex = 0;

    ConfEntry &confFor(PC pc);
    const ConfEntry *confPeek(PC pc) const;
    void trainPattern(ConfEntry &conf, Addr prev, Addr cur);
    void trainReuse(ConfEntry &conf, Addr cur);
    static void bump(std::uint8_t &v, bool up, std::uint8_t max);
};

} // namespace prophet::pf

#endif // PROPHET_PREFETCH_TRIANGEL_HH
