/**
 * @file
 * Replacement-policy interface and the standard policies of the
 * temporal prefetchers' metadata table: LRU, SRRIP/BRRIP, and random.
 * Hawkeye (Triage's original metadata policy) lives in hawkeye.hh.
 * The caches keep their own LRU and tree-PLRU state (mem/cache.hh).
 *
 * The victim() method receives an explicit candidate span so that
 * higher-level policies (Prophet's priority-class replacement,
 * Section 4.2 of the paper) can pre-filter candidates and delegate
 * the final choice to a base policy, exactly as Figure 4 describes
 * ("Prophet Replacement Policy first generates candidate victims for
 * the Runtime Replacement Policy, which then chooses the final
 * victim"). The span form (pointer + count rather than std::vector)
 * keeps the per-miss eviction path free of heap allocation: callers
 * point into pre-built scratch buffers.
 */

#ifndef PROPHET_MEM_REPLACEMENT_HH
#define PROPHET_MEM_REPLACEMENT_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace prophet::mem
{

/**
 * Abstract replacement policy over a (numSets x assoc) structure.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** (Re)initialize state for the given geometry. */
    virtual void reset(unsigned num_sets, unsigned assoc) = 0;

    /** Note a hit on (set, way). */
    virtual void touch(unsigned set, unsigned way) = 0;

    /** Note a fill into (set, way). */
    virtual void insert(unsigned set, unsigned way) = 0;

    /**
     * Choose a victim among the candidate ways of a set. The
     * candidate span is never empty; all candidates hold valid lines.
     * Implementations must not allocate (this sits on the per-miss
     * eviction path).
     */
    virtual unsigned victim(unsigned set, const unsigned *cands,
                            unsigned n) = 0;

    /** Convenience overload for tests and non-hot-path callers. */
    unsigned
    victim(unsigned set, const std::vector<unsigned> &candidates)
    {
        return victim(set, candidates.data(),
                      static_cast<unsigned>(candidates.size()));
    }

    /** Convenience overload so victim(set, {1, 3}) keeps working. */
    unsigned
    victim(unsigned set, std::initializer_list<unsigned> candidates)
    {
        return victim(set, candidates.begin(),
                      static_cast<unsigned>(candidates.size()));
    }
};

/** True least-recently-used via per-line timestamps. */
class LruPolicy : public ReplacementPolicy
{
  public:
    using ReplacementPolicy::victim;

    void reset(unsigned num_sets, unsigned assoc) override;
    void touch(unsigned set, unsigned way) override;
    void insert(unsigned set, unsigned way) override;
    unsigned victim(unsigned set, const unsigned *cands,
                    unsigned n) override;

  private:
    std::uint64_t clock = 0;
    unsigned numWays = 0;
    std::vector<std::uint64_t> stamps;
};

/**
 * Static re-reference interval prediction (SRRIP), the metadata-table
 * policy Triangel adopts (Section 2.1.2). 2-bit RRPVs, hit-priority
 * promotion, insertion at distant (maxRrpv - 1).
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    explicit SrripPolicy(unsigned rrpv_bits = 2);

    using ReplacementPolicy::victim;

    void reset(unsigned num_sets, unsigned assoc) override;
    void touch(unsigned set, unsigned way) override;
    void insert(unsigned set, unsigned way) override;
    unsigned victim(unsigned set, const unsigned *cands,
                    unsigned n) override;

    /** RRPV of a line, exposed for tests. */
    std::uint8_t rrpv(unsigned set, unsigned way) const;

  private:
    unsigned numWays = 0;
    std::uint8_t maxRrpv;
    std::vector<std::uint8_t> rrpvs;
};

/**
 * Bimodal RRIP: like SRRIP but inserts at maxRrpv with high
 * probability, resisting scans. Used in ablation/property tests.
 */
class BrripPolicy : public ReplacementPolicy
{
  public:
    explicit BrripPolicy(double long_insert_prob = 1.0 / 32.0);

    using ReplacementPolicy::victim;

    void reset(unsigned num_sets, unsigned assoc) override;
    void touch(unsigned set, unsigned way) override;
    void insert(unsigned set, unsigned way) override;
    unsigned victim(unsigned set, const unsigned *cands,
                    unsigned n) override;

  private:
    unsigned numWays = 0;
    std::uint8_t maxRrpv = 3;
    double longProb;
    Rng rng;
    std::vector<std::uint8_t> rrpvs;
};

/** Uniform random replacement (lower bound for comparisons). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 1);

    using ReplacementPolicy::victim;

    void reset(unsigned num_sets, unsigned assoc) override;
    void touch(unsigned set, unsigned way) override;
    void insert(unsigned set, unsigned way) override;
    unsigned victim(unsigned set, const unsigned *cands,
                    unsigned n) override;

  private:
    Rng rng;
};

/** Factory by name: "lru", "srrip", "brrip", "random". */
std::unique_ptr<ReplacementPolicy> makePolicy(const std::string &name);

} // namespace prophet::mem

#endif // PROPHET_MEM_REPLACEMENT_HH
