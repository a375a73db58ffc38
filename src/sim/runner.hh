/**
 * @file
 * Experiment orchestration: generates/caches workload traces, runs
 * configured systems over them, and implements the multi-run
 * workflows the evaluation needs — Prophet's profile/analyze/learn
 * pipeline (Figure 5) and RPG2's identify/tune pipeline.
 */

#ifndef PROPHET_SIM_RUNNER_HH
#define PROPHET_SIM_RUNNER_HH

#include <condition_variable>
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
 * The experiment runner. One instance caches traces, baseline runs
 * and profiles across the jobs of a driver run (or, resident in the
 * serve daemon, across requests). A driver run drops each workload's
 * trace after that workload's last job (releaseTrace); baselines and
 * profiles, which are small, stay for the Runner's lifetime.
 *
 * Thread safety: all public methods may be called concurrently from
 * sweep-engine workers. Each workload's trace (with its generator),
 * baseline and profile is computed at most once: the first caller
 * computes it outside the cache lock, and concurrent callers wait for
 * it instead of duplicating the work. A computation that throws,
 * including one its own job cancelled, caches nothing, and a waiter
 * then computes the value itself. Values are deterministic per
 * workload, so results never depend on scheduling; baselines and
 * profiles depend only on traces, so waits cannot form a cycle.
 *
 * A Runner holds no cancellation token: every System it builds,
 * every trace it generates, and every wait for another caller's
 * computation polls the calling thread's job token
 * (cancellation::current()), so concurrent runs sharing one resident
 * Runner cancel independently. The driver scopes one private token
 * around each job attempt, chained to its run's token; polling a
 * token that never fires is bit-identical to running without one.
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
     * The (cached) trace of a workload. The reference stays valid
     * until the workload's entry is dropped (releaseTrace) and no
     * run pins it any more.
     */
    const trace::Trace &traceFor(const std::string &workload);

    /**
     * Drop @p workload's loaded entry — its trace and generator —
     * with its LRU stamp, and count it in runner.trace_releases. A
     * no-op when the workload is not loaded or is still loading. A
     * run that pins the entry keeps it alive until that run
     * finishes; a later use reloads it from the trace cache, or
     * regenerates it, bit-identically. The entry is freed after
     * cacheMu is released, so freeing a large trace never blocks
     * other callers' lookups. A reference traceFor returned earlier
     * dangles once the entry is freed: callers must hold none across
     * a release (the driver releases a workload only after its last
     * job finished, and `trace-cache warm` right after loading it).
     */
    void releaseTrace(const std::string &workload);

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
        /** Process-wide use tick: comparable across Runners, so the
         *  smallest is the least recently used trace of them all. */
        std::uint64_t lastUse = 0;
        bool inUse = false;      ///< pinned by an in-flight run
    };

    /** Every resident trace, unordered. */
    std::vector<ResidentTrace> residentTraces();

    /** Total estimated bytes of all resident traces. */
    std::size_t residentTraceBytes();

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
    /** A workload's generator (which owns its resolver) and trace. */
    struct Workload
    {
        trace::GeneratorPtr generator;
        trace::Trace trace;
    };

    /**
     * A compute-once cache keyed by workload name. A null value marks
     * a key whose first caller is still computing it.
     */
    template <typename V>
    using OnceMap = std::map<std::string, std::shared_ptr<const V>>;

    /**
     * The value of @p key in @p map, computed by @p compute (outside
     * cacheMu) only when no other caller has computed it or is
     * computing it; otherwise waits for that caller. Throws what
     * @p compute throws, caching nothing, and Error(Cancelled) when
     * the calling thread's job token fires while it waits.
     */
    template <typename V, typename Compute>
    std::shared_ptr<const V> computeOnce(OnceMap<V> &map,
                                         const std::string &key,
                                         Compute &&compute);

    /**
     * The workload's resident entry, loaded (from the trace cache, or
     * generated) on first use. Holding the pointer pins the entry:
     * a release while it is held frees nothing until it is dropped.
     */
    std::shared_ptr<const Workload>
    workloadEntry(const std::string &workload);

    SystemConfig base;
    std::size_t recordsOverride;
    std::shared_ptr<trace::TraceCache> cache; ///< optional

    /**
     * Guards the caches below. Held only around lookups and
     * inserts, never across a simulation or trace generation, so
     * workers overlap fully on the expensive parts.
     */
    std::mutex cacheMu;

    /** Signalled whenever a computation fills or abandons a key. */
    std::condition_variable cacheFilled;

    OnceMap<Workload> workloadCache;
    OnceMap<RunStats> baselineCache;
    OnceMap<core::ProfileSnapshot> profileCache;

    /** LRU bookkeeping for residentTraces(): the process-wide use
     *  tick stamped per workload on every resident-trace use (under
     *  cacheMu). */
    std::map<std::string, std::uint64_t> lastUse;
};

} // namespace prophet::sim

#endif // PROPHET_SIM_RUNNER_HH
