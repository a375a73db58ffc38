/**
 * @file
 * Whole-system configuration: Table 1's parameters plus the
 * prefetcher selection and feature knobs every figure varies.
 */

#ifndef PROPHET_SIM_SYSTEM_CONFIG_HH
#define PROPHET_SIM_SYSTEM_CONFIG_HH

#include <cstddef>
#include <string>

#include "core/analyzer.hh"
#include "core/prophet.hh"
#include "mem/hierarchy.hh"
#include "prefetch/domino.hh"
#include "prefetch/stms.hh"
#include "prefetch/triage.hh"
#include "prefetch/triangel.hh"
#include "rpg2/rpg2.hh"
#include "sim/core_model.hh"

namespace prophet::sim
{

/** L1 prefetcher selection (Table 1 default: degree-8 stride). */
enum class L1PfKind { None, Stride, Ipcp };

/** Temporal (L2) prefetcher selection. */
enum class L2PfKind
{
    None,       ///< baseline without temporal prefetching
    Triage,     ///< Triage as SystemConfig::triage configures it
    Triangel,   ///< Triangel (state of the art)
    Prophet,    ///< Prophet (profile-guided), needs an OptimizedBinary
    Simplified, ///< Prophet's profiling configuration (Section 3.2)
    Stms,       ///< off-chip-metadata STMS (historical baseline)
    Domino,     ///< off-chip-metadata Domino (historical baseline)
};

/**
 * Sampled (fast-mode) execution: SimPoint/SMARTS-style region
 * sampling over the trace. The trace is tiled into intervals of
 * @ref intervalRecords; each interval ends in a detailed measurement
 * window of @ref windowRecords, preceded by @ref warmupRecords of
 * functional warming (caches, prefetchers and Markov/metadata tables
 * train, System-level statistics are not attributed). Records before
 * the warm region of the next window are fast-forwarded — not
 * simulated at all — which is where the 10-50x effective throughput
 * comes from. Measured window statistics are scaled to estimates of
 * what a full run would have reported (see System::finishRun); a
 * schedule whose warm+window phases cover the whole trace is
 * bit-identical to the full run (regression-gated in
 * tests/test_sampling.cc). A full run is itself one such schedule:
 * one window from the warmup boundary to the end, warmed over
 * everything before it.
 */
struct SamplingConfig
{
    /** Off by default: run() steps the full run's one window. */
    bool enabled = false;

    /**
     * Functional-warm records before each measurement window. Larger
     * values cost throughput and buy state fidelity (long-history
     * structures — the LLC, Markov tables — recover from the
     * fast-forward). Clipped at the previous window's end, so an
     * oversized warmup (e.g. the trace length) simply disables
     * fast-forwarding.
     */
    std::size_t warmupRecords = 100'000;

    /** Detailed records measured per window (>= 1). */
    std::size_t windowRecords = 50'000;

    /**
     * Period of the schedule: one window per this many trace
     * records (>= windowRecords). The detailed fraction
     * windowRecords / intervalRecords bounds the speedup from above.
     */
    std::size_t intervalRecords = 1'000'000;

    /**
     * Shift the whole schedule this many records into the trace
     * (deterministic offset; windows end at offset + k *
     * intervalRecords, k = 1, 2, ...).
     */
    std::size_t offset = 0;
};

/** The full system configuration. */
struct SystemConfig
{
    CoreParams core{};
    mem::HierarchyConfig hier{};

    L1PfKind l1Pf = L1PfKind::Stride;
    L2PfKind l2Pf = L2PfKind::None;

    pf::TriageConfig triage{};
    pf::TriangelConfig triangel{};
    pf::StmsConfig stms{};
    pf::DominoConfig domino{};
    core::ProphetConfig prophet{};

    /** Hints + CSR for Prophet mode (the "optimized binary"). */
    core::OptimizedBinary binary{};

    /** RPG2 software-prefetch plan (empty = disabled). */
    rpg2::Rpg2Plan rpg2Plan{};

    /** Records before the statistics warmup boundary. */
    std::size_t warmupRecords = 200'000;

    /** Sampled fast-mode execution (disabled by default). */
    SamplingConfig sampling{};

    /** Default Table 1 configuration. */
    static SystemConfig table1();
};

} // namespace prophet::sim

#endif // PROPHET_SIM_SYSTEM_CONFIG_HH
