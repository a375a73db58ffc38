#include "sim/runner.hh"

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
 * The calling thread's job-scoped token. thread_local rather than a
 * Runner member so the driver needs no per-job plumbing through the
 * pipeline registry: whatever Systems a job builds on its worker
 * thread — including nested baseline/profile runs — poll this token.
 */
thread_local const CancellationToken *tl_job_cancel = nullptr;
} // anonymous namespace

void
Runner::setThreadJobCancellation(const CancellationToken *token)
{
    tl_job_cancel = token;
}

void
Runner::injectBaseline(const std::string &workload, RunStats stats)
{
    std::lock_guard<std::mutex> lock(cacheMu);
    baselines.emplace(workload, std::move(stats));
}

namespace
{
/**
 * Estimated resident footprint of one trace: the four SoA arrays
 * (pc[] + addr[] + precomputed lineAddr[] at 8 bytes each, packed
 * meta[] at 4), which dominate a Runner's memory by orders of
 * magnitude over baselines and profiles.
 */
std::size_t
residentBytes(const trace::Trace &t)
{
    return t.size() * (3 * sizeof(std::uint64_t)
                       + sizeof(std::uint32_t));
}
} // anonymous namespace

void
Runner::ensureWorkload(const std::string &workload)
{
    std::shared_ptr<trace::TraceCache> disk;
    {
        std::lock_guard<std::mutex> lock(cacheMu);
        if (traces.count(workload)) {
            // Residency hit: the serve daemon's warm-request payoff
            // (the trace load the second request never pays), and
            // the tick evictLruTrace orders its LRU scan by.
            static metrics::Counter &resident_hits =
                metrics::counter("runner.trace_resident_hits");
            resident_hits.inc();
            lastUse[workload] = ++useTick;
            return;
        }
        disk = cache;
    }
    // Generate outside the lock: generation is deterministic per
    // workload name, so racing workers build identical traces and
    // the first insert wins (the loser's copy is discarded).
    // Constructing the generator is cheap and always happens — the
    // resolver lives on the generator — but the expensive generate()
    // is skipped when the on-disk cache has the trace.
    span::Span load_span("trace-load " + workload, "trace");
    metrics::ScopedTimer load_timer(
        metrics::histogram("phase.trace_load_ns"));
    auto gen = workloads::makeWorkload(workload, recordsOverride);
    trace::Trace generated;
    if (!disk || !disk->load(workload, recordsOverride, generated)) {
        generated = gen->generate();
        metrics::counter("runner.trace_generated").inc();
        // A failed store is not a run failure — the freshly generated
        // trace is in hand — but it means the next run regenerates,
        // so surface it.
        if (disk
            && !disk->store(workload, recordsOverride, generated)) {
            std::string msg = "trace-cache: store failed for "
                + workload
                + " (disk full or I/O error); trace will be "
                  "regenerated next run";
            prophet_warn(msg.c_str());
        }
    }
    auto tr =
        std::make_shared<const trace::Trace>(std::move(generated));

    std::lock_guard<std::mutex> lock(cacheMu);
    auto [it, inserted] = traces.emplace(workload, std::move(tr));
    (void)it;
    if (inserted)
        generators.emplace(workload, std::move(gen));
    lastUse[workload] = ++useTick;
}

std::vector<Runner::ResidentTrace>
Runner::residentTraces()
{
    std::lock_guard<std::mutex> lock(cacheMu);
    std::vector<ResidentTrace> out;
    out.reserve(traces.size());
    for (const auto &[w, tr] : traces) {
        ResidentTrace r;
        r.workload = w;
        r.bytes = residentBytes(*tr);
        auto it = lastUse.find(w);
        r.lastUse = it == lastUse.end() ? 0 : it->second;
        r.inUse = tr.use_count() > 1;
        out.push_back(std::move(r));
    }
    return out;
}

std::size_t
Runner::residentTraceBytes()
{
    std::lock_guard<std::mutex> lock(cacheMu);
    std::size_t total = 0;
    for (const auto &[w, tr] : traces) {
        (void)w;
        total += residentBytes(*tr);
    }
    return total;
}

std::size_t
Runner::evictLruTrace()
{
    std::lock_guard<std::mutex> lock(cacheMu);
    auto victim = traces.end();
    std::uint64_t oldest = ~std::uint64_t{0};
    for (auto it = traces.begin(); it != traces.end(); ++it) {
        // use_count > 1 = some run still holds the shared_ptr
        // (runConfig pins it for the duration of the simulation);
        // evicting would not free memory and would orphan the
        // generator whose resolver that run may be using.
        if (it->second.use_count() > 1)
            continue;
        auto lu = lastUse.find(it->first);
        std::uint64_t tick = lu == lastUse.end() ? 0 : lu->second;
        if (tick < oldest) {
            oldest = tick;
            victim = it;
        }
    }
    if (victim == traces.end())
        return 0;
    std::size_t freed = residentBytes(*victim->second);
    prophet_infof("runner: evicting resident trace %s (%zu bytes)",
                  victim->first.c_str(), freed);
    generators.erase(victim->first);
    lastUse.erase(victim->first);
    traces.erase(victim);
    return freed;
}

const trace::Trace &
Runner::traceFor(const std::string &workload)
{
    return *traceShared(workload);
}

std::shared_ptr<const trace::Trace>
Runner::traceShared(const std::string &workload)
{
    ensureWorkload(workload);
    std::lock_guard<std::mutex> lock(cacheMu);
    return traces.at(workload);
}

const trace::IndirectResolver *
Runner::resolverFor(const std::string &workload)
{
    ensureWorkload(workload);
    std::lock_guard<std::mutex> lock(cacheMu);
    // The generator itself is immutable after generate(); resolver()
    // hands out a const view safe for concurrent use.
    return generators.at(workload)->resolver();
}

RunStats
Runner::runConfig(const std::string &workload, const SystemConfig &cfg)
{
    // Keep the trace alive independently of the cache map; each job
    // simulates its own System over the shared immutable trace.
    std::shared_ptr<const trace::Trace> tr = traceShared(workload);
    span::Span sim_span("simulate " + workload, "sim");
    System system(cfg, resolverFor(workload));
    system.setCancellation(tl_job_cancel);
    return system.run(*tr);
}

const RunStats &
Runner::baseline(const std::string &workload)
{
    {
        std::lock_guard<std::mutex> lock(cacheMu);
        auto it = baselines.find(workload);
        if (it != baselines.end())
            return it->second;
    }
    SystemConfig cfg = base;
    cfg.l2Pf = L2PfKind::None;
    cfg.rpg2Plan = rpg2::Rpg2Plan{};
    // Simulate outside the lock; concurrent callers compute the same
    // deterministic stats and the first emplace wins. std::map nodes
    // are stable, so returned references stay valid for the Runner's
    // lifetime.
    RunStats stats = runConfig(workload, cfg);
    std::lock_guard<std::mutex> lock(cacheMu);
    return baselines.emplace(workload, std::move(stats)).first->second;
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
    {
        std::lock_guard<std::mutex> lock(cacheMu);
        auto it = profiles.find(workload);
        if (it != profiles.end())
            return it->second;
    }
    std::shared_ptr<const trace::Trace> tr = traceShared(workload);
    span::Span profile_span("profile " + workload, "sim");
    SystemConfig cfg = base;
    cfg.l2Pf = L2PfKind::Simplified;
    // Profiling is the offline compile step that produces the
    // optimized binary's hints: it must see the whole access stream
    // regardless of how the timing simulation is sampled, or sampled
    // Prophet runs would measure a crippled binary, not a sampled
    // machine.
    cfg.sampling = SamplingConfig{};
    // Published under "phase.profile_ns": the offline pass is a
    // per-workload cost amortized across a sweep, not part of the
    // timing-simulation throughput the phase split measures.
    cfg.profilingRun = true;
    System system(cfg, resolverFor(workload));
    system.setCancellation(tl_job_cancel);
    system.run(*tr);
    prophet_assert(system.prophet() != nullptr);
    core::ProfileSnapshot snap = system.prophet()->takeSnapshot();
    // Concurrent profilers compute the same deterministic snapshot;
    // the first emplace wins and the caller gets a copy either way.
    std::lock_guard<std::mutex> lock(cacheMu);
    return profiles.emplace(workload, std::move(snap)).first->second;
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
    // Pin the trace for the whole pipeline: kernel identification
    // reads it outside runConfig, and a pinned trace can never be
    // evicted from under us by a concurrent evictLruTrace.
    std::shared_ptr<const trace::Trace> tr = traceShared(workload);
    const trace::Trace &t = *tr;
    const trace::IndirectResolver *resolver = resolverFor(workload);

    out.kernels =
        rpg2::identifyKernels(t, base_stats.pcMisses, resolver);
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
