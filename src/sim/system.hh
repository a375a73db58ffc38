/**
 * @file
 * The assembled system: core timing model + cache hierarchy + L1
 * prefetcher + temporal prefetcher + RPG2 plan, driven over a
 * workload trace. Produces the RunStats every figure is computed
 * from.
 */

#ifndef PROPHET_SIM_SYSTEM_HH
#define PROPHET_SIM_SYSTEM_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancellation.hh"
#include "common/flat_map.hh"
#include "core/prophet.hh"
#include "mem/hierarchy.hh"
#include "prefetch/markov_table.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/stms.hh"
#include "sim/core_model.hh"
#include "sim/system_config.hh"
#include "trace/generator.hh"

namespace prophet::sim
{

/** Everything one simulation run reports. */
struct RunStats
{
    // Performance.
    double ipc = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t records = 0;

    // Demand behaviour (post-warmup).
    std::uint64_t l1Misses = 0;
    std::uint64_t l2DemandAccesses = 0;
    std::uint64_t l2DemandMisses = 0;
    std::uint64_t llcMisses = 0;

    // Temporal prefetcher behaviour.
    std::uint64_t l2PrefetchesIssued = 0;
    std::uint64_t l2PrefetchesUseful = 0;
    std::uint64_t latePrefetches = 0;

    // DRAM traffic.
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramPrefetchReads = 0;

    // Metadata table.
    pf::MarkovStats markov{};
    unsigned finalMetadataWays = 0;

    // ---- sampled fast-mode execution (SamplingConfig) ----

    /** The run used sampled execution (warm + measurement windows). */
    bool sampled = false;

    /** Detailed (measured-window) records actually simulated. */
    std::uint64_t sampledRecords = 0;

    /**
     * Scale applied to window-measured counters to estimate the full
     * run's measured region (1.0 for full runs and for sampled
     * schedules that cover the whole trace).
     */
    double sampleScale = 1.0;

    /** DRAM metadata traffic of off-chip schemes (STMS/Domino). */
    pf::OffchipMetadataStats offchipMeta{};

    // Energy accounting inputs (total accesses per level).
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t llcAccesses = 0;

    // Per-PC L2 demand misses (RPG2 kernel identification, hint-PC
    // selection checks).
    FlatMap<PC, std::uint64_t> pcMisses;

    /** Prefetch accuracy = useful / issued (0 when none issued). */
    double
    prefetchAccuracy() const
    {
        return l2PrefetchesIssued == 0
            ? 0.0
            : static_cast<double>(l2PrefetchesUseful)
                / static_cast<double>(l2PrefetchesIssued);
    }

    /** DRAM traffic = reads + writes. */
    std::uint64_t dramTraffic() const { return dramReads + dramWrites; }
};

/**
 * One simulated machine. Construct per run and drive it with run(),
 * which walks the trace as a schedule of measurement windows: the
 * spec's sampling schedule, or the one-window schedule of a full run
 * (warm up to the statistics boundary, measure everything after it).
 * Tests also drive it record by record with beginRun()/step()/
 * finish(). Either way, one simulation per System instance.
 */
class System
{
  public:
    /**
     * Records between two cancellation polls and between two LLC
     * partition resyncs. A power of two, so each check is one mask
     * test on the record index.
     */
    static constexpr std::size_t kPollRecords = 4096;

    /**
     * @param config System configuration.
     * @param resolver The workload's indirect resolver (RPG2);
     *        nullptr when absent.
     */
    explicit System(const SystemConfig &config,
                    const trace::IndirectResolver *resolver = nullptr);

    ~System();

    /**
     * Poll @p token every kPollRecords records and abort the run with
     * Error(ErrorCode::Cancelled) once it reports cancelled; the
     * error's offset is the record index of the poll. Polling is
     * side-effect free, so an attached-but-never-cancelled token
     * leaves every statistic bit-identical to a run without one
     * (regression-gated in tests/test_system.cc). nullptr detaches.
     */
    void setCancellation(const CancellationToken *token);

    /**
     * Simulate the trace and return the statistics. With
     * cfg.sampling.enabled and a window that fits the trace, the
     * trace is run in sampled fast mode (functional warmup + detailed
     * measurement windows, everything else fast-forwarded) and the
     * window-measured statistics are scaled to full-run estimates;
     * otherwise (with a warning when sampling was asked for) it is
     * the full run's one-window schedule, reported unscaled.
     */
    RunStats run(const trace::Trace &t);

    /**
     * Start a record-by-record run. @p expected_records plays the
     * role of the trace length in run(): it positions the warmup
     * boundary at min(cfg.warmupRecords, expected_records / 2).
     */
    void beginRun(std::size_t expected_records);

    /**
     * Simulate one record (between beginRun() and finish()): records
     * before the warmup boundary are functionally warmed, and the
     * measurement window opens at the boundary, exactly as run()
     * steps a full trace.
     */
    void step(const trace::TraceRecord &rec);

    /**
     * Close the run started by beginRun() and return its unsampled
     * stats, records = the records stepped. A run that stops short
     * of the warmup boundary never opened its window: every
     * window-measured statistic (ipc, misses, traffic, prefetch and
     * per-PC counts) is 0, while cycles, instructions and the
     * prefetcher-lifetime counters cover the warmed records.
     */
    RunStats finish();

    /**
     * The Prophet prefetcher instance when l2Pf is Prophet or
     * Simplified; nullptr otherwise. Valid after construction; used
     * to pull profiling snapshots after run().
     */
    core::ProphetPrefetcher *prophet() { return prophetPf; }

    /** The hierarchy (tests / detailed inspection). */
    mem::Hierarchy &hierarchy() { return hier; }

  private:
    SystemConfig cfg;
    const trace::IndirectResolver *resolver;
    CoreModel coreModel;
    mem::Hierarchy hier;
    std::unique_ptr<pf::L1Prefetcher> l1Pf;
    std::unique_ptr<pf::TemporalPrefetcher> l2Pf;
    core::ProphetPrefetcher *prophetPf = nullptr;

    // ---- per-run state (beginRun() .. finish()) ----
    //
    // Loop-invariant conditions hoisted out of the record loop: raw
    // prefetcher pointers (skips the unique_ptr indirection per
    // record) and the RPG2-enabled flag.
    pf::L1Prefetcher *l1Raw = nullptr;
    pf::TemporalPrefetcher *l2Raw = nullptr;
    bool rpg2Active = false;

    /**
     * Partition sync only matters when an L2 prefetcher can resize
     * its metadata partition; without one the reservation is pinned
     * at zero, so the per-record interval check is skipped outright.
     */
    bool syncActive = false;

    /** Cancellation token to poll; nullptr = no polling at all. */
    const CancellationToken *cancelToken = nullptr;

    std::size_t recordIndex = 0;
    std::size_t warmBoundary = 0;

    /** Detailed records stepped inside measurement windows. */
    std::uint64_t detailedTotal = 0;

    /** Wall time spent in functional-warm segments (ns). */
    std::uint64_t warmWallNs = 0;

    /** Wall time spent in detailed measurement windows (ns). */
    std::uint64_t windowWallNs = 0;

    /**
     * Per-window measurements summed across windows. Each window is
     * bracketed by windowBegin() (reset the hierarchy/core stats
     * windows) and windowEnd() (fold the window's deltas in here).
     * Cycles stay fractional until finishRun() rounds once, so a
     * full run's single window reports the core's exact cycles
     * rounded up, bit for bit.
     */
    struct WindowAccum
    {
        double cycles = 0.0;
        std::uint64_t instructions = 0;
        std::uint64_t l1DemandHits = 0, l1DemandMisses = 0;
        std::uint64_t l2DemandHits = 0, l2DemandMisses = 0;
        std::uint64_t llcDemandHits = 0, llcDemandMisses = 0;
        std::uint64_t dramReads = 0, dramWrites = 0;
        std::uint64_t dramPrefetchReads = 0;
        std::uint64_t l2PrefetchesIssued = 0;
    };
    WindowAccum windowAccum{};

    /** beginRun()'s clock read: where a profiling run's one sample
     *  and the step() API's warm segment start. */
    std::chrono::steady_clock::time_point runStartTime{};

    std::uint64_t usefulCount = 0;
    std::uint64_t lateCount = 0;
    std::uint64_t issuedBeforeMark = 0;
    FlatMap<PC, std::uint64_t> pcMissCounts;

    /** Scratch buffers reused across records (no per-record allocs). */
    std::vector<Addr> l1Candidates;
    std::vector<pf::PrefetchRequest> l2Requests;
    std::vector<Addr> rpg2Addrs;

    void syncPartition();

    /**
     * The per-record simulation body. Detailed=true is a measurement
     * window's record; Detailed=false is the functional-warm path —
     * identical architectural state transitions (core timing, caches,
     * every prefetcher's training, RPG2, partition sync), but no
     * System-level statistic attribution (useful/late counters,
     * per-PC miss map). Sharing one template body keeps the two paths
     * in lockstep by construction.
     */
    template <bool Detailed>
    void stepRecordImpl(PC pc, Addr addr, std::uint16_t inst_gap,
                        bool depends_on_prev, bool is_write);

    /**
     * Step @p t through @p schedule's windows, each preceded by its
     * functional warm segment (the only trace loop). Returns whether
     * any window fit the trace; when none does, nothing was stepped.
     */
    bool runWindows(const trace::Trace &t,
                    const SamplingConfig &schedule);

    /** Open a measurement window: reset the stats windows. */
    void windowBegin();

    /** Close a measurement window: fold its deltas into the accum. */
    void windowEnd();

    /**
     * Assemble the RunStats of a run over @p records trace records
     * and publish its phase metrics. A @p sampled run scales the
     * window accumulators to full-trace estimates; otherwise every
     * scale is 1 and the windows are reported as measured.
     */
    RunStats finishRun(std::size_t records, bool sampled);
};

} // namespace prophet::sim

#endif // PROPHET_SIM_SYSTEM_HH
