/**
 * @file
 * Hawkeye replacement (Jain & Lin, ISCA'16), as used by Triage for
 * its metadata table (Section 2.1.2 of the paper). Sampled sets feed
 * an OPTgen occupancy-vector model of Belady's OPT; a signature-
 * indexed predictor of 3-bit saturating counters classifies incoming
 * lines as cache-friendly or cache-averse.
 *
 * The paper notes this policy costs ~13 KB of state for ~0.25%
 * speedup, which is why Triangel replaced it with SRRIP; we implement
 * it so that comparison can be reproduced (storage model in
 * sim/storage, ablation in tests/bench).
 */

#ifndef PROPHET_MEM_HAWKEYE_HH
#define PROPHET_MEM_HAWKEYE_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "mem/replacement.hh"

namespace prophet::mem
{

/**
 * Hawkeye policy. Callers that know an access signature (a PC or a
 * hashed trigger address) should call setSignature() before the
 * touch()/insert() that the access generates; the signature trains
 * the predictor via OPTgen outcomes on sampled sets.
 */
class HawkeyePolicy : public ReplacementPolicy
{
  public:
    /**
     * @param sampled_sets Number of sets fed to OPTgen (power of 2).
     * @param predictor_entries Size of the signature predictor table.
     */
    explicit HawkeyePolicy(unsigned sampled_sets = 64,
                           unsigned predictor_entries = 2048);

    using ReplacementPolicy::victim;

    void reset(unsigned num_sets, unsigned assoc) override;
    void touch(unsigned set, unsigned way) override;
    void insert(unsigned set, unsigned way) override;
    unsigned victim(unsigned set, const unsigned *cands,
                    unsigned n) override;

    /** Provide the signature of the access about to touch/insert. */
    void setSignature(std::uint64_t sig) { currentSig = sig; }

    /**
     * Provide the (line) address of the access about to touch/insert;
     * needed by the OPTgen sampler to detect reuse.
     */
    void setAddress(std::uint64_t line_addr) { currentAddr = line_addr; }

    /** Predictor counter value for a signature (tests/inspection). */
    unsigned predictorValue(std::uint64_t sig) const;

    /** True if the predictor currently classifies sig as friendly. */
    bool isFriendly(std::uint64_t sig) const;

  private:
    /** One entry of a sampled set's access history. */
    struct SampleEntry
    {
        std::uint64_t addr = 0;
        std::uint64_t sig = 0;
        std::uint64_t timestamp = 0;
        bool valid = false;
    };

    /** Per sampled set: OPTgen occupancy vector + history. */
    struct SamplerSet
    {
        std::vector<SampleEntry> history;
        std::vector<std::uint8_t> occupancy;
        std::uint64_t clock = 0;
        std::size_t headIdx = 0;
    };

    unsigned numSets = 0;
    unsigned numWays = 0;
    unsigned sampledSets;
    unsigned predictorSize;

    /** numSets / sampledSets, fixed at reset(). */
    unsigned sampleStride = 0;
    /** sampleStride - 1 when the stride is a power of two, else 0. */
    unsigned sampleMask = 0;

    /** 3-bit saturating counters; >= 4 means cache-friendly. */
    std::vector<std::uint8_t> predictor;

    /** RRPV-like ages used for victim selection. */
    std::vector<std::uint8_t> rrip;
    /** Signature that inserted each line (for eviction training). */
    std::vector<std::uint64_t> lineSig;

    FlatMap<unsigned, SamplerSet> sampler;

    std::uint64_t currentSig = 0;
    std::uint64_t currentAddr = 0;

    static constexpr std::uint8_t maxRrip = 7;
    static constexpr unsigned historyPerWay = 8;

    bool isSampled(unsigned set) const;
    void samplerAccess(unsigned set);
    void trainPositive(std::uint64_t sig);
    void trainNegative(std::uint64_t sig);
    std::size_t predIdx(std::uint64_t sig) const;
    void onAccess(unsigned set, unsigned way);
};

} // namespace prophet::mem

#endif // PROPHET_MEM_HAWKEYE_HH
