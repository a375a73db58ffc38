/**
 * @file
 * Multi-path Victim Buffer (Section 4.5, Figure 9). The same address
 * can participate in several temporal patterns — (A,B,C) and (A,B,D)
 * give B two Markov targets — but the metadata table stores one
 * target per entry. The MVB captures targets displaced from the
 * table (by replacement or by target overwrite) so that lookups can
 * prefetch the alternative paths too.
 *
 * Management rules from the paper:
 *  - Insertion: only targets whose Prophet priority level is > 0
 *    (accuracy above EL_ACC) are buffered.
 *  - Replacement: per-target 2-bit counters, incremented on access;
 *    the entry's priority is the maximal counter among its targets,
 *    and lowest-priority entries are evicted first (Prophet
 *    replacement policy reused).
 *  - Prefetch: every metadata-table lookup also searches the MVB
 *    with the same key; distinct targets found are prefetched.
 */

#ifndef PROPHET_CORE_MVB_HH
#define PROPHET_CORE_MVB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "prefetch/markov_table.hh"

namespace prophet::core
{

/** MVB statistics. */
struct MvbStats
{
    std::uint64_t inserts = 0;
    std::uint64_t rejectedLowPriority = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t extraTargets = 0;
};

/**
 * The Multi-path Victim Buffer.
 */
class MultiPathVictimBuffer
{
  public:
    /** Target slots per set; also the cap on `candidates`. */
    static constexpr unsigned kWays = 4;

    /**
     * @param total_entries Total target slots (65,536 in §5.10);
     *        kWays times a power of two.
     * @param candidates Max distinct targets buffered per key
     *        (Figure 16(c) sweeps 1/2/4), at most kWays.
     */
    explicit MultiPathVictimBuffer(unsigned total_entries = 65536,
                                   unsigned candidates = 1);

    /**
     * Offer a displaced metadata entry (wired to
     * MarkovTable::setEvictionCallback). Rejected unless the entry's
     * priority level is > 0.
     */
    void offer(const pf::MarkovTable::Entry &victim);

    /**
     * Look up alternative targets for @p key, excluding
     * @p table_target (the target the metadata table itself
     * supplied). Appends at most `candidates` line addresses and
     * increments the matched targets' counters.
     */
    void lookup(Addr key, Addr table_target, std::vector<Addr> &out);

    const MvbStats &stats() const { return statsData; }
    void resetStats() { statsData = MvbStats{}; }

    /** Storage in bits: 43 per slot (31 target + 10 tag + 2 counter),
     *  §5.10. */
    std::uint64_t storageBits() const;

  private:
    /**
     * One buffered target, 16 bytes. A slot is valid exactly when
     * its key is not kInvalidAddr: keys are line addresses, which
     * never reach the all-ones sentinel. The 2-bit reuse counters
     * live in the parallel `counters` array, so a set's slots take
     * 64 bytes and the probe reads no counter until a key matches.
     */
    struct Slot
    {
        Addr key = kInvalidAddr;
        Addr target = kInvalidAddr;
    };

    unsigned numSets;
    unsigned maxCandidates;
    std::vector<Slot> slots;
    std::vector<std::uint8_t> counters;
    MvbStats statsData;

    unsigned setIndex(Addr key) const;
};

} // namespace prophet::core

#endif // PROPHET_CORE_MVB_HH
