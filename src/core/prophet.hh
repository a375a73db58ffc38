/**
 * @file
 * The Prophet temporal prefetcher (Figure 4): a hardware temporal
 * prefetcher whose metadata-table insertion policy, replacement
 * policy, and sizing are driven by profile-guided hints instead of
 * runtime heuristics.
 *
 *  - Insertion: demand requests carry a 1-bit hint (Eq. 1); PCs the
 *    profile condemned are discarded entirely — neither trained on
 *    nor predicted from ("Prophet instructs the temporal prefetcher
 *    to discard all demand requests associated with that PC").
 *  - Replacement: hints carry a 2^n-level priority (Eq. 2) recorded
 *    in the Prophet Replacement State; victim candidates are the
 *    lowest-priority entries, and the runtime policy (SRRIP) picks
 *    the final victim among them.
 *  - Resizing: the CSR written at program entry fixes the table size
 *    to the profiled peak usage (Eq. 3); below half a way, temporal
 *    prefetching is disabled outright.
 *  - Multi-path Victim Buffer: displaced Markov targets with
 *    priority > 0 are buffered and re-prefetched on lookups.
 *
 * Feature flags reproduce the Figure 19 ablation: with all features
 * off this is "Triage4 + Triangel metadata" (degree-4 chained
 * prefetching, SRRIP metadata replacement, fixed table); +Repla,
 * +Insert, +MVB, +Resize layer Prophet's components on one by one.
 *
 * The same class at degree 1 with every feature off is the paper's
 * "simplified temporal prefetcher" (Section 3.2): no insertion
 * policy, fixed 1 MB table — the unbiased configuration Step 1
 * profiles under, with a ProfileCollector standing in for PEBS.
 */

#ifndef PROPHET_CORE_PROPHET_HH
#define PROPHET_CORE_PROPHET_HH

#include <memory>

#include "core/analyzer.hh"
#include "core/mvb.hh"
#include "core/profile.hh"
#include "prefetch/markov_table.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/training_unit.hh"

namespace prophet::core
{

/** Which Prophet components are active (Figure 19 ablation axes). */
struct ProphetFeatures
{
    bool replacement = true;
    bool insertion = true;
    bool mvb = true;
    bool resizing = true;
};

/** Prophet prefetcher configuration. */
struct ProphetConfig
{
    /** Chained prefetch degree in normal operation. */
    unsigned degree = 4;

    /** Markov-table sets (= LLC sets). */
    unsigned numSets = 2048;

    /** Maximum borrowed LLC ways (1 MB). */
    unsigned maxWays = 8;

    /** Active Prophet components. */
    ProphetFeatures features{};

    /**
     * MVB geometry (Section 5.10 / Figure 16(c)). A prefetcher that
     * never uses its MVB (features.mvb off) builds it with one set
     * instead.
     */
    unsigned mvbEntries = 65536;
    unsigned mvbCandidates = 1;
};

/**
 * The Prophet co-designed temporal prefetcher.
 */
class ProphetPrefetcher : public pf::TemporalPrefetcher
{
  public:
    /**
     * @param config Hardware configuration.
     * @param binary The optimized binary's hints + CSR; pass a
     *        default-constructed OptimizedBinary for the profiling
     *        pass or the all-features-off ablation baseline.
     */
    ProphetPrefetcher(const ProphetConfig &config,
                      OptimizedBinary binary = {});

    void observe(PC pc, Addr line_addr, bool l2_hit, Cycle cycle,
                 std::vector<pf::PrefetchRequest> &out) override;

    void notifyIssued(PC pc) override;
    void notifyUseful(PC pc) override;

    unsigned metadataWays() const override;

    void
    collectStats(pf::MarkovStats &markov, pf::OffchipMetadataStats &)
        const override
    {
        markov = table.stats();
    }

    /** PEBS-style counters gathered during this run. */
    const ProfileCollector &collector() const { return profileData; }

    /**
     * Finalize and return the profiling snapshot (wires the metadata
     * table's insertion/replacement PMU counters in).
     */
    ProfileSnapshot takeSnapshot();

    pf::MarkovTable &markovTable() { return table; }
    const pf::MarkovTable &markovTable() const { return table; }
    const MultiPathVictimBuffer &victimBuffer() const { return mvb; }
    const Csr &csr() const { return bin.csr; }
    const HintBuffer &hints() const { return bin.hints; }

  private:
    ProphetConfig cfg;
    OptimizedBinary bin;
    pf::MarkovTable table;
    pf::TrainingUnit trainer;
    MultiPathVictimBuffer mvb;
    ProfileCollector profileData;
    bool temporalOff = false;

    /** Scratch for one chain step's MVB paths, reused so the warmed
     *  observe() path never allocates. */
    std::vector<Addr> mvbPaths;
};

} // namespace prophet::core

#endif // PROPHET_CORE_PROPHET_HH
