/**
 * @file
 * Experiment orchestration: generates/caches workload traces, runs
 * configured systems over them, and implements the multi-run
 * workflows the evaluation needs — Prophet's profile/analyze/learn
 * pipeline (Figure 5) and RPG2's identify/tune pipeline.
 */

#ifndef PROPHET_SIM_RUNNER_HH
#define PROPHET_SIM_RUNNER_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/analyzer.hh"
#include "core/learner.hh"
#include "rpg2/kernel_id.hh"
#include "sim/pipelines.hh"
#include "sim/system.hh"
#include "trace/trace_cache.hh"

namespace prophet::sim
{

/** A Prophet run plus the artifacts that produced it. */
struct ProphetOutcome
{
    core::OptimizedBinary binary{};
    core::ProfileSnapshot profile{};
    RunStats stats{};
};

/** An RPG2 run plus the plan that produced it. */
struct Rpg2Outcome
{
    std::vector<rpg2::Kernel> kernels{};
    std::int64_t tunedDistance = 0;
    RunStats stats{};
};

/**
 * The experiment runner. One instance caches traces and baseline
 * runs across the jobs of a driver run (or, resident in the serve
 * daemon, across requests).
 *
 * Thread safety: all public methods may be called concurrently from
 * sweep-engine workers. Traces are generated once, stored immutably
 * behind shared_ptr<const Trace>, and shared by every System run;
 * the generation and baseline caches are mutex-guarded. When two
 * workers race to fill a cache slot, both compute the (deterministic)
 * value and the first insert wins, so results never depend on
 * scheduling.
 */
class Runner
{
  public:
    /**
     * @param base Base configuration every run derives from
     *        (Table 1 by default).
     * @param records Trace-length override (0 = workload default).
     */
    explicit Runner(SystemConfig base = SystemConfig::table1(),
                    std::size_t records = 0);

    /**
     * Attach an on-disk trace cache: trace generation first consults
     * the cache and stores fresh generations back. Cached loads are
     * bit-identical to generation (the binary format round-trips
     * every record field), so results cannot depend on cache state.
     * Pass nullptr to detach. The cache must outlive the Runner.
     */
    void setTraceCache(std::shared_ptr<trace::TraceCache> cache);

    /** The attached trace cache (may be null). */
    trace::TraceCache *traceCache() const { return cache.get(); }

    /**
     * Attach a cancellation token: every System this Runner builds
     * from here on polls it and aborts with
     * Error(ErrorCode::Cancelled) once it fires (the sweep driver's
     * fail-fast policy). nullptr detaches. The token must outlive
     * the runs; polling an attached-but-idle token is bit-identical
     * to running without one.
     */
    void setCancellation(const CancellationToken *token);

    /** The attached cancellation token (may be null). */
    const CancellationToken *cancellation() const { return cancel; }

    /**
     * Per-thread job token: Systems built on the *calling thread*
     * poll @p token instead of the runner-wide one until it is
     * cleared (nullptr). The driver's watchdog scopes one around
     * each job attempt so a deadline cancels that job alone; with no
     * job token set, behaviour is exactly the runner-wide token's.
     * The token must outlive the scoped runs.
     */
    static void setThreadJobCancellation(
        const CancellationToken *token);

    /**
     * Seed the baseline cache with externally obtained stats (the
     * resume journal's replayed baselines), so metric derivation and
     * RPG2 on a resumed run skip the re-simulation. First insert
     * wins, matching the concurrent-compute semantics of baseline().
     */
    void injectBaseline(const std::string &workload, RunStats stats);

    /** The (cached) trace of a workload. */
    const trace::Trace &traceFor(const std::string &workload);

    /**
     * Shared ownership of the immutable trace, for callers that
     * outlive or run concurrently with this Runner's cache.
     */
    std::shared_ptr<const trace::Trace>
    traceShared(const std::string &workload);

    /** The workload's indirect resolver (may be nullptr). */
    const trace::IndirectResolver *
    resolverFor(const std::string &workload);

    /** Run an explicit configuration over a workload. */
    RunStats runConfig(const std::string &workload,
                       const SystemConfig &cfg);

    /**
     * Run one registered pipeline on one workload — the uniform
     * entry every experiment goes through. The instance's name is
     * looked up in the pipeline registry (sim/pipelines.hh) and its
     * parameter bag configures the run; an unknown name throws
     * PipelineError naming the registered pipelines. Thread-safe
     * like every other public method.
     */
    RunStats run(const PipelineInstance &pipeline,
                 const std::string &workload);

    /** Cached baseline (no temporal prefetcher). */
    const RunStats &baseline(const std::string &workload);

    /**
     * Profile a workload with the simplified temporal prefetcher
     * (Step 1) and return the counter snapshot. Snapshots are
     * deterministic per workload and cached, so the learning
     * pipelines re-profile for free.
     */
    core::ProfileSnapshot profileWorkload(const std::string &workload);

    /**
     * The full Prophet pipeline on one input: profile, analyze,
     * run the optimized binary.
     */
    ProphetOutcome runProphet(
        const std::string &workload,
        const core::AnalyzerConfig &acfg = {},
        const core::ProphetConfig &pcfg = core::ProphetConfig{});

    /** Run Prophet with an existing optimized binary (learning). */
    RunStats runProphetWithBinary(
        const std::string &workload,
        const core::OptimizedBinary &binary,
        const core::ProphetConfig &pcfg = core::ProphetConfig{});

    /**
     * The full RPG2 pipeline: identify kernels from a baseline
     * profile, binary-search the distance, report the best run.
     * Workloads with no qualified kernels return the baseline run
     * (RPG2 inserts nothing).
     */
    Rpg2Outcome runRpg2(const std::string &workload);

    // ---- serve-mode residency control -------------------------------

    /** One resident (in-memory) trace, for eviction decisions. */
    struct ResidentTrace
    {
        std::string workload;
        std::size_t bytes = 0;   ///< SoA array footprint estimate
        std::uint64_t lastUse = 0; ///< monotonic use tick (LRU order)
        bool inUse = false;      ///< pinned by an in-flight run
    };

    /** Every resident trace, unordered. */
    std::vector<ResidentTrace> residentTraces();

    /** Total estimated bytes of all resident traces. */
    std::size_t residentTraceBytes();

    /**
     * Evict the least-recently-used resident trace that no run
     * currently pins (shared_ptr use count 1). Returns the bytes
     * freed, 0 when nothing is evictable. The next request for the
     * workload transparently reloads from the on-disk trace cache
     * (or regenerates). Callers that hand out unpinned references
     * (the serve daemon) must only evict while no request is in
     * flight; pinned traces are skipped regardless.
     */
    std::size_t evictLruTrace();

    /** The base configuration (pipelines derive variants from it). */
    const SystemConfig &baseConfig() const { return base; }

    /** Speedup of stats over the cached baseline of a workload. */
    double speedup(const std::string &workload, const RunStats &stats);

    /** DRAM traffic normalized to the workload baseline. */
    double trafficNorm(const std::string &workload,
                       const RunStats &stats);

    /** Coverage: demand-miss reduction vs the workload baseline. */
    double coverage(const std::string &workload,
                    const RunStats &stats);

  private:
    SystemConfig base;
    std::size_t recordsOverride;
    std::shared_ptr<trace::TraceCache> cache; ///< optional
    const CancellationToken *cancel = nullptr; ///< optional

    /**
     * Guards the caches below. Held only around lookups and
     * inserts, never across a simulation or trace generation, so
     * workers overlap fully on the expensive parts.
     */
    std::mutex cacheMu;

    std::map<std::string, trace::GeneratorPtr> generators;
    std::map<std::string, std::shared_ptr<const trace::Trace>> traces;
    std::map<std::string, RunStats> baselines;
    std::map<std::string, core::ProfileSnapshot> profiles;

    /** LRU bookkeeping for evictLruTrace: a monotonic tick stamped
     *  per workload on every resident-trace use (under cacheMu). */
    std::uint64_t useTick = 0;
    std::map<std::string, std::uint64_t> lastUse;

    void ensureWorkload(const std::string &workload);
};

} // namespace prophet::sim

#endif // PROPHET_SIM_RUNNER_HH
