/**
 * @file
 * RPG2 kernel identification (Zhang et al., ASPLOS'24; Section 5.1 of
 * the Prophet paper): find memory instructions that (a) cause at
 * least 10% of cache misses, (b) whose own access stream follows a
 * stride pattern (the prefetch kernel b[i]), and (c) whose indirect
 * consumer the runtime can compute (an IndirectResolver exists).
 * Only such kernels are within RPG2's reach — pointer chasing and
 * computed kernels are not, which is the limitation the paper's
 * Section 2.2 analyzes.
 *
 * Identification is one pass over the trace's SoA arrays into flat
 * per-PC tables (each PC's access count, first address, delta
 * histogram and dependent consumer), then one walk over those
 * tables, so it runs at about the speed the trace streams from
 * memory. The result is a pure function of its inputs:
 *  - a PC's dominant stride is its most frequent nonzero address
 *    delta, the smallest such delta when counts tie;
 *  - kernels come out by descending miss share, then ascending PC.
 */

#ifndef PROPHET_RPG2_KERNEL_ID_HH
#define PROPHET_RPG2_KERNEL_ID_HH

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "trace/generator.hh"
#include "trace/trace.hh"

namespace prophet::rpg2
{

/** One identified prefetch kernel. */
struct Kernel
{
    PC pc = kInvalidPC;

    /** Dominant byte stride of the kernel's access stream. */
    std::int64_t stride = 0;

    /** Fraction of the PC's deltas matching the dominant stride. */
    double strideCoverage = 0.0;

    /** Fraction of all profiled L2 misses attributed to this PC. */
    double missShare = 0.0;
};

/** Kernel-identification parameters (RPG2 defaults). */
struct KernelIdConfig
{
    /** Minimum share of total misses (the paper's 10%). */
    double minMissShare = 0.10;

    /** Minimum fraction of stride-matching deltas. */
    double minStrideCoverage = 0.85;

    /** Minimum dynamic accesses before a PC is considered. */
    std::uint64_t minAccesses = 256;
};

/**
 * Identify RPG2-qualified kernels in a trace, ordered by descending
 * miss share, then ascending PC.
 *
 * @param t The profiled trace.
 * @param pc_misses Per-PC L2 miss counts from a profiling run.
 * @param resolver The workload's indirect resolver (nullptr when the
 *        workload exposes none — then no kernel qualifies, as for
 *        mcf/omnetpp/soplex in the paper).
 */
std::vector<Kernel> identifyKernels(
    const trace::Trace &t,
    const FlatMap<PC, std::uint64_t> &pc_misses,
    const trace::IndirectResolver *resolver,
    const KernelIdConfig &cfg = {});

} // namespace prophet::rpg2

#endif // PROPHET_RPG2_KERNEL_ID_HH
