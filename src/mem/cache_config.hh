/**
 * @file
 * Cache geometry/latency parameters (Table 1 of the paper supplies
 * the defaults used by sim/system_config).
 */

#ifndef PROPHET_MEM_CACHE_CONFIG_HH
#define PROPHET_MEM_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace prophet::mem
{

/** Static configuration of one cache level. */
struct CacheConfig
{
    /** Human-readable level name ("L1D", "L2", "LLC"). */
    std::string name = "cache";

    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 64 * 1024;

    /** Associativity (ways). */
    unsigned assoc = 4;

    /** Hit latency in core cycles. */
    Cycle hitLatency = 2;

    /** Number of MSHRs (outstanding misses tracked for stats). */
    unsigned mshrs = 16;

    /** Replacement policy: "plru" (tree pseudo-LRU) or "lru". */
    std::string replacement = "plru";

    /** Number of sets implied by the geometry. */
    unsigned
    numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (kLineSize * assoc));
    }
};

} // namespace prophet::mem

#endif // PROPHET_MEM_CACHE_CONFIG_HH
