#include "sim/runner.hh"

#include <atomic>
#include <chrono>

#include "common/cancellation.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/span_trace.hh"
#include "rpg2/distance_tuner.hh"
#include "workloads/registry.hh"

namespace prophet::sim
{

Runner::Runner(SystemConfig base_cfg, std::size_t records)
    : base(std::move(base_cfg)), recordsOverride(records)
{}

void
Runner::setTraceCache(std::shared_ptr<trace::TraceCache> c)
{
    std::lock_guard<std::mutex> lock(cacheMu);
    cache = std::move(c);
}

namespace
{
/**
 * How often a caller waiting on another thread's computation checks
 * its own job token. Tokens carry no wake-up, so a fired token is
 * seen within one interval.
 */
constexpr std::chrono::milliseconds kWaitPoll{2};

/**
 * The use tick every Runner stamps on a resident trace it hands out:
 * one process-wide sequence, so the serve daemon can order the
 * traces of all its Runners least recently used first.
 */
std::atomic<std::uint64_t> g_useTick{0};

/**
 * Estimated resident footprint of one trace: its three SoA arrays
 * (pc[] and addr[] at 8 bytes a record, packed meta[] at 4: 20 bytes
 * a record), which dominate a Runner's memory by orders of magnitude
 * over baselines and profiles.
 */
std::size_t
residentBytes(const trace::Trace &t)
{
    return t.size()
        * (sizeof(PC) + sizeof(Addr) + sizeof(std::uint32_t));
}
} // anonymous namespace

template <typename V, typename Compute>
std::shared_ptr<const V>
Runner::computeOnce(OnceMap<V> &map, const std::string &key,
                    Compute &&compute)
{
    std::unique_lock<std::mutex> lock(cacheMu);
    // Look the key up again after every wait: the entry may have been
    // filled, abandoned by a computation that threw, or evicted.
    for (auto it = map.find(key); it != map.end(); it = map.find(key)) {
        if (it->second)
            return it->second;
        const CancellationToken *job = cancellation::current();
        if (job && job->cancelled()) {
            ErrorContext ctx;
            ctx.workload = key;
            throw Error(ErrorCode::Cancelled,
                        "cancelled while waiting for another job's "
                        "computation",
                        std::move(ctx));
        }
        cacheFilled.wait_for(lock, kWaitPoll);
    }
    // First caller: claim the key, then compute outside the lock.
    map.emplace(key, nullptr);
    lock.unlock();
    std::shared_ptr<const V> value;
    try {
        value = std::make_shared<V>(compute());
    } catch (...) {
        lock.lock();
        map.erase(key);
        lock.unlock();
        cacheFilled.notify_all();
        throw;
    }
    lock.lock();
    map[key] = value;
    lock.unlock();
    cacheFilled.notify_all();
    return value;
}

std::shared_ptr<const Runner::Workload>
Runner::workloadEntry(const std::string &workload)
{
    bool loaded = false;
    std::shared_ptr<const Workload> entry =
        computeOnce(workloadCache, workload, [&] {
            loaded = true;
            std::shared_ptr<trace::TraceCache> disk;
            {
                std::lock_guard<std::mutex> lock(cacheMu);
                disk = cache;
            }
            // Constructing the generator is cheap and always happens
            // — the resolver lives on the generator — but the
            // expensive generate() is skipped when the on-disk cache
            // has the trace.
            span::Span load_span("trace-load " + workload, "trace");
            metrics::ScopedTimer load_timer(
                metrics::histogram("phase.trace_load_ns"));
            Workload w{workloads::makeWorkload(workload, recordsOverride),
                       {}};
            if (!disk || !disk->load(workload, recordsOverride, w.trace)) {
                w.trace = w.generator->generate();
                metrics::counter("runner.trace_generated").inc();
                // A failed store is not a run failure — the freshly
                // generated trace is in hand — but it means the next
                // run regenerates, so surface it.
                if (disk
                    && !disk->store(workload, recordsOverride, w.trace)) {
                    std::string msg = "trace-cache: store failed for "
                        + workload
                        + " (disk full or I/O error); trace will be "
                          "regenerated next run";
                    prophet_warn(msg.c_str());
                }
            }
            return w;
        });
    if (!loaded) {
        // Residency hit: the serve daemon's warm-request payoff (the
        // trace load the second request never pays).
        static metrics::Counter &resident_hits =
            metrics::counter("runner.trace_resident_hits");
        resident_hits.inc();
    }
    std::lock_guard<std::mutex> lock(cacheMu);
    lastUse[workload] = ++g_useTick;
    return entry;
}

std::vector<Runner::ResidentTrace>
Runner::residentTraces()
{
    std::lock_guard<std::mutex> lock(cacheMu);
    std::vector<ResidentTrace> out;
    out.reserve(workloadCache.size());
    for (const auto &[w, entry] : workloadCache) {
        if (!entry)
            continue; // still loading
        ResidentTrace r;
        r.workload = w;
        r.bytes = residentBytes(entry->trace);
        auto it = lastUse.find(w);
        r.lastUse = it == lastUse.end() ? 0 : it->second;
        r.inUse = entry.use_count() > 1;
        out.push_back(std::move(r));
    }
    return out;
}

std::size_t
Runner::residentTraceBytes()
{
    std::lock_guard<std::mutex> lock(cacheMu);
    std::size_t total = 0;
    for (const auto &[w, entry] : workloadCache) {
        (void)w;
        if (entry)
            total += residentBytes(entry->trace);
    }
    return total;
}

void
Runner::releaseTrace(const std::string &workload)
{
    std::shared_ptr<const Workload> dropped;
    {
        std::lock_guard<std::mutex> lock(cacheMu);
        auto it = workloadCache.find(workload);
        if (it == workloadCache.end() || !it->second)
            return; // not loaded, or still loading
        dropped = std::move(it->second);
        workloadCache.erase(it);
        lastUse.erase(workload);
    }
    static metrics::Counter &releases =
        metrics::counter("runner.trace_releases");
    releases.inc();
    // `dropped` is destroyed here, outside cacheMu — or later, by the
    // last run still pinning it.
}

const trace::Trace &
Runner::traceFor(const std::string &workload)
{
    return workloadEntry(workload)->trace;
}

const trace::IndirectResolver *
Runner::resolverFor(const std::string &workload)
{
    // The generator itself is immutable after generate(); resolver()
    // hands out a const view safe for concurrent use.
    return workloadEntry(workload)->generator->resolver();
}

RunStats
Runner::runConfig(const std::string &workload, const SystemConfig &cfg)
{
    // Pin the workload for the whole simulation; each job simulates
    // its own System over the shared immutable trace.
    std::shared_ptr<const Workload> entry = workloadEntry(workload);
    span::Span sim_span("simulate " + workload, "sim");
    System system(cfg, entry->generator->resolver());
    system.setCancellation(cancellation::current());
    return system.run(entry->trace);
}

const RunStats &
Runner::baseline(const std::string &workload)
{
    // The entry is never dropped once filled, so the reference stays
    // valid for the Runner's lifetime.
    return *computeOnce(baselineCache, workload, [&] {
        span::Span baseline_span("baseline " + workload, "sim");
        SystemConfig cfg = base;
        cfg.l2Pf = L2PfKind::None;
        cfg.rpg2Plan = rpg2::Rpg2Plan{};
        return runConfig(workload, cfg);
    });
}

RunStats
Runner::run(const PipelineInstance &pipeline,
            const std::string &workload)
{
    // Full validation on every entry — programmatic callers get the
    // same parameter checking as parsed specs, so an out-of-range
    // knob can never silently run a different configuration.
    validatePipeline(pipeline);
    return findPipeline(pipeline.name)
        ->run(*this, pipeline, workload);
}

core::ProfileSnapshot
Runner::profileWorkload(const std::string &workload)
{
    return *computeOnce(profileCache, workload, [&] {
        std::shared_ptr<const Workload> entry = workloadEntry(workload);
        span::Span profile_span("profile " + workload, "sim");
        // The Simplified kind is the profiling pass: System publishes
        // its wall time under "phase.profile_ns", since the offline
        // pass is a per-workload cost amortized across a sweep, not
        // part of the timing-simulation throughput the phase split
        // measures.
        SystemConfig cfg = base;
        cfg.l2Pf = L2PfKind::Simplified;
        // Profiling is the offline compile step that produces the
        // optimized binary's hints: it must see the whole access
        // stream regardless of how the timing simulation is sampled,
        // or sampled Prophet runs would measure a crippled binary,
        // not a sampled machine.
        cfg.sampling = SamplingConfig{};
        System system(cfg, entry->generator->resolver());
        system.setCancellation(cancellation::current());
        system.run(entry->trace);
        prophet_assert(system.prophet() != nullptr);
        return system.prophet()->takeSnapshot();
    });
}

ProphetOutcome
Runner::runProphet(const std::string &workload,
                   const core::AnalyzerConfig &acfg,
                   const core::ProphetConfig &pcfg)
{
    ProphetOutcome out;
    out.profile = profileWorkload(workload);
    core::Analyzer analyzer(acfg);
    out.binary = analyzer.analyze(out.profile);
    out.stats = runProphetWithBinary(workload, out.binary, pcfg);
    return out;
}

RunStats
Runner::runProphetWithBinary(const std::string &workload,
                             const core::OptimizedBinary &binary,
                             const core::ProphetConfig &pcfg)
{
    SystemConfig cfg = base;
    cfg.l2Pf = L2PfKind::Prophet;
    cfg.prophet = pcfg;
    cfg.binary = binary;
    return runConfig(workload, cfg);
}

Rpg2Outcome
Runner::runRpg2(const std::string &workload)
{
    Rpg2Outcome out;
    const RunStats &base_stats = baseline(workload);
    // Pin the workload for the whole pipeline: kernel identification
    // reads it outside runConfig, and a concurrent releaseTrace frees
    // a pinned entry only once the pin is dropped.
    std::shared_ptr<const Workload> entry = workloadEntry(workload);
    out.kernels = rpg2::identifyKernels(
        entry->trace, base_stats.pcMisses, entry->generator->resolver());
    if (out.kernels.empty()) {
        // No qualified kernels (mcf/omnetpp/soplex): RPG2 leaves the
        // binary unchanged, so performance equals the baseline.
        out.stats = base_stats;
        out.tunedDistance = 0;
        return out;
    }

    // Binary-search the prefetch distance on measured IPC.
    std::map<std::int64_t, RunStats> runs;
    auto evaluate = [&](std::int64_t d) {
        SystemConfig cfg = base;
        cfg.l2Pf = L2PfKind::None;
        cfg.rpg2Plan = rpg2::buildPlan(out.kernels, d);
        RunStats s = runConfig(workload, cfg);
        double ipc = s.ipc;
        runs.emplace(d, std::move(s));
        return ipc;
    };
    auto tuned = rpg2::tuneDistance(evaluate, {1, 64});
    out.tunedDistance = tuned.bestDistance;
    out.stats = runs.at(tuned.bestDistance);
    return out;
}

double
Runner::speedup(const std::string &workload, const RunStats &stats)
{
    const RunStats &b = baseline(workload);
    prophet_assert(b.ipc > 0.0);
    return stats.ipc / b.ipc;
}

double
Runner::trafficNorm(const std::string &workload, const RunStats &stats)
{
    const RunStats &b = baseline(workload);
    if (b.dramTraffic() == 0)
        return 1.0;
    return static_cast<double>(stats.dramTraffic())
        / static_cast<double>(b.dramTraffic());
}

double
Runner::coverage(const std::string &workload, const RunStats &stats)
{
    const RunStats &b = baseline(workload);
    if (b.l2DemandMisses == 0)
        return 0.0;
    double reduced = static_cast<double>(b.l2DemandMisses)
        - static_cast<double>(stats.l2DemandMisses);
    return std::max(0.0, reduced)
        / static_cast<double>(b.l2DemandMisses);
}

} // namespace prophet::sim
