#include "sim/system.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/stride.hh"
#include "prefetch/domino.hh"
#include "prefetch/triage.hh"
#include "prefetch/triangel.hh"

namespace prophet::sim
{

namespace
{

std::unique_ptr<pf::L1Prefetcher>
makeL1Pf(L1PfKind kind)
{
    switch (kind) {
      case L1PfKind::None:
        return nullptr;
      case L1PfKind::Stride:
        return std::make_unique<pf::StridePrefetcher>(8);
      case L1PfKind::Ipcp:
        return std::make_unique<pf::IpcpPrefetcher>();
    }
    return nullptr;
}

} // anonymous namespace

SystemConfig
SystemConfig::table1()
{
    SystemConfig cfg;
    // Table 1: 64 KB 4-way L1 (2 cycles, PLRU), 512 KB 8-way L2
    // (9 cycles, PLRU), 2 MB 16-way LLC (20 cycles), LPDDR5-class
    // single-channel DRAM; 5-wide fetch, 288-entry ROB.
    cfg.core = CoreParams{5.0, 288};
    cfg.hier.l1d = {"L1D", 64 * 1024, 4, 2, 16, "plru"};
    cfg.hier.l2 = {"L2", 512 * 1024, 8, 9, 32, "plru"};
    cfg.hier.llc = {"LLC", 2 * 1024 * 1024, 16, 20, 36, "lru"};
    cfg.hier.dram = mem::DramConfig{150, 8, 1};
    cfg.l1Pf = L1PfKind::Stride;
    cfg.l2Pf = L2PfKind::None;
    return cfg;
}

System::System(const SystemConfig &config,
               const trace::IndirectResolver *resolver)
    : cfg(config), resolver(resolver), coreModel(config.core),
      hier(config.hier), l1Pf(makeL1Pf(config.l1Pf))
{
    // The sync check is a mask test, which silently misfires on a
    // non-power-of-two interval; round up front instead.
    cfg.partitionSyncInterval =
        normalizePartitionSyncInterval(cfg.partitionSyncInterval);
    syncMask = cfg.partitionSyncInterval - 1;

    switch (cfg.l2Pf) {
      case L2PfKind::None:
        break;
      case L2PfKind::Triage: {
        pf::TriageConfig tc = cfg.triage;
        tc.degree = 1;
        l2Pf = std::make_unique<pf::TriagePrefetcher>(tc);
        break;
      }
      case L2PfKind::Triage4: {
        pf::TriageConfig tc = cfg.triage;
        tc.degree = 4;
        l2Pf = std::make_unique<pf::TriagePrefetcher>(tc);
        break;
      }
      case L2PfKind::Triangel:
        l2Pf = std::make_unique<pf::TriangelPrefetcher>(cfg.triangel);
        break;
      case L2PfKind::Prophet: {
        auto p = std::make_unique<core::ProphetPrefetcher>(
            cfg.prophet, cfg.binary);
        prophetPf = p.get();
        l2Pf = std::move(p);
        break;
      }
      case L2PfKind::Simplified: {
        core::ProphetConfig pc = cfg.prophet;
        pc.profilingMode = true;
        auto p = std::make_unique<core::ProphetPrefetcher>(pc);
        prophetPf = p.get();
        l2Pf = std::move(p);
        break;
      }
      case L2PfKind::Stms:
        l2Pf = std::make_unique<pf::StmsPrefetcher>(cfg.stms);
        break;
      case L2PfKind::Domino:
        l2Pf = std::make_unique<pf::DominoPrefetcher>(cfg.domino);
        break;
    }
    syncPartition();
}

System::~System() = default;

void
System::setCancellation(const CancellationToken *token,
                        std::size_t interval)
{
    cancelToken = token;
    // Same mask-test idiom as the partition sync: round the interval
    // to a power of two so the hot-path check stays one AND.
    cancelMask = normalizePartitionSyncInterval(interval) - 1;
}

void
System::syncPartition()
{
    unsigned ways = l2Pf ? l2Pf->metadataWays() : 0;
    // The metadata table never takes the whole LLC.
    prophet_assert(ways < hier.llc().assoc());
    if (ways != hier.llc().reservedWays())
        hier.llc().setReservedWays(ways);
}

void
System::beginRun(std::size_t expected_records)
{
    warmBoundary = std::min<std::size_t>(cfg.warmupRecords,
                                         expected_records / 2);
    warmed = false;
    runStartTime = std::chrono::steady_clock::now();
    warmupEndTime = runStartTime;
    recordIndex = 0;
    usefulCount = 0;
    lateCount = 0;
    issuedBeforeMark = 0;
    // Skip the re-reserve when the map still has its capacity from a
    // previous beginRun (only a finish() hands the storage away).
    if (pcMissCounts.capacity() < 1024)
        pcMissCounts.reserve(1024);

    // Hoist the loop-invariant indirections once per run.
    l1Raw = l1Pf.get();
    l2Raw = l2Pf.get();
    rpg2Active = !cfg.rpg2Plan.empty();
    // Without an L2 prefetcher metadataWays() is pinned at zero and
    // the constructor's syncPartition() already applied it, so the
    // per-record interval check is dead — hoist it out of the loop.
    syncActive = l2Raw != nullptr;
}

void
System::step(const trace::TraceRecord &rec)
{
    stepRecord(rec.pc, rec.addr, rec.instGap, rec.dependsOnPrev,
               rec.isWrite);
}

void
System::stepRecord(PC pc, Addr addr, std::uint16_t inst_gap,
                   bool depends_on_prev, bool is_write)
{
    stepRecordImpl<true>(pc, addr, inst_gap, depends_on_prev,
                         is_write);
}

template <bool Detailed>
void
System::stepRecordImpl(PC pc, Addr addr, std::uint16_t inst_gap,
                       bool depends_on_prev, bool is_write)
{
    // Cooperative cancellation: a pure read at coarse intervals, so
    // a token that never fires leaves the run bit-identical — and a
    // detached token (the common case) costs one predictable branch.
    if (cancelToken && (recordIndex & cancelMask) == 0
        && cancelToken->cancelled()) {
        ErrorContext ctx;
        ctx.offset = recordIndex;
        throw Error(ErrorCode::Cancelled,
                    "simulation cancelled mid-run", std::move(ctx));
    }

    if (Detailed && !warmed && recordIndex >= warmBoundary) {
        // Warmup boundary: reset the statistics windows. (The body
        // runs once per run, so the clock read is off the per-record
        // cost; the condition itself is unchanged. Sampled runs set
        // warmed up front and manage their windows explicitly.)
        warmupEndTime = std::chrono::steady_clock::now();
        hier.resetStats();
        coreModel.mark();
        usefulCount = 0;
        lateCount = 0;
        pcMissCounts.clear();
        issuedBeforeMark = hier.l2PrefetchesIssued();
        warmed = true;
    }

    Cycle cycle = coreModel.beginAccess(inst_gap, depends_on_prev);
    mem::AccessOutcome out = hier.access(pc, addr, is_write, cycle);
    coreModel.completeAccess(out.readyAt);

    if (out.prefetchUseful
        && out.prefetchClass == mem::PfClass::L2) {
        // Usefulness feedback trains the prefetcher on both paths;
        // only the *attribution* (the reported counters) is
        // detailed-window work.
        if (Detailed) {
            ++usefulCount;
            if (out.prefetchLate)
                ++lateCount;
        }
        if (l2Raw)
            l2Raw->notifyUseful(out.prefetchPc);
    }

    if (Detailed && out.l2Accessed && !out.l2Hit)
        ++pcMissCounts[pc];

    // Temporal prefetcher observes the demand L2 access stream.
    if (out.l2Accessed && l2Raw) {
        l2Requests.clear();
        l2Raw->observe(pc, out.lineAddr, out.l2Hit, cycle,
                       l2Requests);
        for (const auto &req : l2Requests)
            if (hier.prefetchL2(req.creditPc, req.lineAddr, cycle))
                l2Raw->notifyIssued(req.creditPc);
    }

    // RPG2 software prefetch: armed kernel PCs issue the
    // addresses the inserted code would compute.
    if (rpg2Active) {
        cfg.rpg2Plan.prefetchAddrs(pc, addr, resolver, rpg2Addrs);
        for (Addr a : rpg2Addrs)
            hier.prefetchL2(pc, lineAddr(a), cycle);
    }

    // L1 prefetcher observes every demand L1 access; its
    // requests that reach the L2 also train the temporal
    // prefetcher (Section 5.1).
    if (l1Raw) {
        l1Candidates.clear();
        l1Raw->observe(pc, out.lineAddr,
                       out.level == mem::HitLevel::L1,
                       l1Candidates);
        for (Addr cand : l1Candidates) {
            auto pf_out = hier.prefetchL1(pc, cand, cycle);
            if (pf_out.l2Accessed && l2Raw) {
                l2Requests.clear();
                l2Raw->observe(pc, cand, pf_out.l2Hit, cycle,
                               l2Requests);
                for (const auto &req : l2Requests)
                    if (hier.prefetchL2(req.creditPc,
                                        req.lineAddr, cycle))
                        l2Raw->notifyIssued(req.creditPc);
            }
        }
    }

    if (syncActive && (recordIndex & syncMask) == 0)
        syncPartition();
    ++recordIndex;
}

RunStats
System::finish()
{
    std::uint64_t issued_after_warmup =
        hier.l2PrefetchesIssued() - issuedBeforeMark;

    RunStats s;
    s.ipc = coreModel.ipcSinceMark();
    s.cycles = coreModel.finalCycles();
    s.instructions = coreModel.retiredInstructions();
    s.records = recordIndex;

    const auto &l1s = hier.l1().stats();
    const auto &l2s = hier.l2().stats();
    const auto &llcs = hier.llc().stats();
    s.l1Misses = l1s.demandMisses;
    s.l2DemandAccesses = l2s.demandHits + l2s.demandMisses;
    s.l2DemandMisses = l2s.demandMisses;
    s.llcMisses = llcs.demandMisses;
    s.l1Accesses = l1s.demandHits + l1s.demandMisses;
    s.l2Accesses = s.l2DemandAccesses;
    s.llcAccesses = llcs.demandHits + llcs.demandMisses;

    s.l2PrefetchesIssued = issued_after_warmup;
    s.l2PrefetchesUseful = usefulCount;
    s.latePrefetches = lateCount;

    const auto &ds = hier.dram().stats();
    s.dramReads = ds.reads;
    s.dramWrites = ds.writes;
    s.dramPrefetchReads = ds.prefetchReads;

    if (l2Pf)
        l2Pf->collectStats(s.markov, s.offchipMeta);
    s.finalMetadataWays = l2Pf ? l2Pf->metadataWays() : 0;

    s.pcMisses = std::move(pcMissCounts);

    // Publish the warmup/simulate wall split and the record count.
    // Registry lookups resolve once per process; the references stay
    // valid across driver-run resets.
    static metrics::Histogram &warmup_ns =
        metrics::histogram("phase.warmup_ns");
    static metrics::Histogram &simulate_ns =
        metrics::histogram("phase.simulate_ns");
    static metrics::Histogram &profile_ns =
        metrics::histogram("phase.profile_ns");
    static metrics::Counter &records_counter =
        metrics::counter("sim.records");
    static metrics::Counter &runs_counter = metrics::counter("sim.runs");
    auto end = std::chrono::steady_clock::now();
    if (cfg.profilingRun) {
        // The offline profiling pass: one bucket for the whole run,
        // keeping the warmup/simulate split a pure timing-simulation
        // measure (sampled-vs-full speedups stay comparable even
        // though profiling itself is never sampled).
        profile_ns.recordDuration(end - runStartTime);
    } else if (warmed) {
        warmup_ns.recordDuration(warmupEndTime - runStartTime);
        simulate_ns.recordDuration(end - warmupEndTime);
    } else {
        // The run never crossed the warm boundary (cancelled early,
        // or a zero-length trace): it was all warmup.
        warmup_ns.recordDuration(end - runStartTime);
    }
    records_counter.inc(recordIndex);
    runs_counter.inc();
    return s;
}

void
System::windowBegin()
{
    // Exactly the warmup-boundary resets of the full run, applied at
    // each measurement-window start. usefulCount/lateCount and the
    // per-PC miss map accumulate *across* windows — the warm path
    // never touches them, so no reset is needed after beginRun().
    hier.resetStats();
    coreModel.mark();
    issuedBeforeMark = hier.l2PrefetchesIssued();
}

void
System::windowEnd()
{
    windowAccum.cycles += coreModel.cyclesSinceMark();
    windowAccum.instructions += coreModel.instructionsSinceMark();

    const auto &l1s = hier.l1().stats();
    const auto &l2s = hier.l2().stats();
    const auto &llcs = hier.llc().stats();
    windowAccum.l1DemandHits += l1s.demandHits;
    windowAccum.l1DemandMisses += l1s.demandMisses;
    windowAccum.l2DemandHits += l2s.demandHits;
    windowAccum.l2DemandMisses += l2s.demandMisses;
    windowAccum.llcDemandHits += llcs.demandHits;
    windowAccum.llcDemandMisses += llcs.demandMisses;

    const auto &ds = hier.dram().stats();
    windowAccum.dramReads += ds.reads;
    windowAccum.dramWrites += ds.writes;
    windowAccum.dramPrefetchReads += ds.prefetchReads;

    windowAccum.l2PrefetchesIssued +=
        hier.l2PrefetchesIssued() - issuedBeforeMark;
}

RunStats
System::runSampled(const trace::Trace &t)
{
    const std::size_t n = t.size();
    beginRun(n);
    traceRecords = n;
    detailedTotal = 0;
    warmWallNs = 0;
    windowWallNs = 0;
    windowAccum = WindowAccum{};
    // Neutralize the full-run warmup boundary: sampled runs reset
    // their statistics windows explicitly in windowBegin().
    warmed = true;

    // Normalized schedule: a window never exceeds its interval, and
    // a zero interval degenerates to back-to-back windows (the spec
    // parser rejects both up front; direct System users get the
    // defensive clamp).
    const std::size_t window =
        std::max<std::size_t>(cfg.sampling.windowRecords, 1);
    const std::size_t interval =
        std::max(cfg.sampling.intervalRecords, window);
    const std::size_t warm = cfg.sampling.warmupRecords;
    const std::size_t offset = cfg.sampling.offset;

    const PC *pcs = t.pcData();
    const Addr *addrs = t.addrData();
    const std::uint32_t *metas = t.metaData();

    using clock = std::chrono::steady_clock;
    auto deltaNs = [](clock::time_point a, clock::time_point b) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b
                                                                 - a)
                .count());
    };

    // Window k occupies the last `window` records of interval k:
    // [offset + (k+1)*interval - window, offset + (k+1)*interval).
    // Before it, up to `warm` records are functionally warmed;
    // everything earlier (back to the previous window's end) is
    // fast-forwarded without any state change — that skipped region
    // is where the throughput comes from.
    std::size_t pos = 0;
    for (std::size_t k = 0;; ++k) {
        const std::size_t sched_end = offset + (k + 1) * interval;
        const std::size_t win_start = sched_end - window;
        if (win_start >= n)
            break;
        const std::size_t win_end = std::min(sched_end, n);
        std::size_t warm_start =
            win_start > warm ? win_start - warm : 0;
        warm_start = std::max(warm_start, pos);

        if (warm_start < win_start) {
            auto t0 = clock::now();
            for (std::size_t i = warm_start; i < win_start; ++i) {
                const std::uint32_t m = metas[i];
                stepRecordImpl<false>(pcs[i], addrs[i],
                                      trace::Trace::gapOf(m),
                                      trace::Trace::dependsOf(m),
                                      trace::Trace::writeOf(m));
            }
            warmWallNs += deltaNs(t0, clock::now());
        }

        auto t0 = clock::now();
        windowBegin();
        for (std::size_t i = win_start; i < win_end; ++i) {
            const std::uint32_t m = metas[i];
            stepRecordImpl<true>(pcs[i], addrs[i],
                                 trace::Trace::gapOf(m),
                                 trace::Trace::dependsOf(m),
                                 trace::Trace::writeOf(m));
        }
        windowEnd();
        windowWallNs += deltaNs(t0, clock::now());
        detailedTotal += win_end - win_start;
        pos = win_end;
    }

    if (detailedTotal == 0 && n > 0) {
        // The schedule never reached the trace (offset or interval
        // beyond its length): nothing was simulated, so estimates
        // would be meaningless. Fall back to an exact full run —
        // slower, never wrong.
        prophet_warnf("sampling: no measurement window fits %zu "
                      "records (interval=%zu window=%zu offset=%zu); "
                      "falling back to a full detailed run",
                      n, interval, window, offset);
        warmed = false;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t m = metas[i];
            stepRecordImpl<true>(pcs[i], addrs[i],
                                 trace::Trace::gapOf(m),
                                 trace::Trace::dependsOf(m),
                                 trace::Trace::writeOf(m));
        }
        return finish();
    }
    return finishSampled();
}

RunStats
System::finishSampled()
{
    const auto n = static_cast<std::uint64_t>(traceRecords);

    // Scale window measurements to estimate the full run's measured
    // region — everything past the statistics-warmup boundary the
    // same configuration would place. A schedule whose windows cover
    // exactly that region gets scale 1 (and, with full-trace
    // warming, reproduces the full run bit for bit).
    const std::size_t full_boundary =
        std::min<std::size_t>(cfg.warmupRecords, traceRecords / 2);
    const auto target =
        static_cast<std::uint64_t>(traceRecords - full_boundary);
    const double scale = detailedTotal > 0
        ? static_cast<double>(target)
            / static_cast<double>(detailedTotal)
        : 1.0;

    // Prefetcher-lifetime counters (Markov events, off-chip metadata
    // traffic) accumulate over every warm + detailed record
    // (recordIndex); scale those by the observed fraction instead.
    const double meta_scale = recordIndex > 0
        ? static_cast<double>(n) / static_cast<double>(recordIndex)
        : 1.0;

    auto sc = [](std::uint64_t v, double s) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * s));
    };

    RunStats s;
    s.sampled = true;
    s.sampledRecords = detailedTotal;
    s.sampleScale = scale;
    s.records = n;

    // IPC is a ratio of window-local quantities: no scaling.
    s.ipc = windowAccum.cycles > 0.0
        ? static_cast<double>(windowAccum.instructions)
            / windowAccum.cycles
        : 0.0;

    // Cycles: actual warm+window cycles plus the extrapolated cycles
    // of the fast-forwarded records. Written as exact + c*(scale-1)
    // so scale == 1 reproduces finalCycles() bit for bit.
    s.cycles = static_cast<Cycle>(std::llround(std::ceil(
        coreModel.exactCycles()
        + windowAccum.cycles * (scale - 1.0))));
    s.instructions = coreModel.retiredInstructions()
        - windowAccum.instructions
        + sc(windowAccum.instructions, scale);

    s.l1Misses = sc(windowAccum.l1DemandMisses, scale);
    s.l2DemandAccesses = sc(
        windowAccum.l2DemandHits + windowAccum.l2DemandMisses, scale);
    s.l2DemandMisses = sc(windowAccum.l2DemandMisses, scale);
    s.llcMisses = sc(windowAccum.llcDemandMisses, scale);
    s.l1Accesses = sc(
        windowAccum.l1DemandHits + windowAccum.l1DemandMisses, scale);
    s.l2Accesses = s.l2DemandAccesses;
    s.llcAccesses = sc(
        windowAccum.llcDemandHits + windowAccum.llcDemandMisses,
        scale);

    s.l2PrefetchesIssued = sc(windowAccum.l2PrefetchesIssued, scale);
    s.l2PrefetchesUseful = sc(usefulCount, scale);
    s.latePrefetches = sc(lateCount, scale);

    s.dramReads = sc(windowAccum.dramReads, scale);
    s.dramWrites = sc(windowAccum.dramWrites, scale);
    s.dramPrefetchReads = sc(windowAccum.dramPrefetchReads, scale);

    if (l2Pf)
        l2Pf->collectStats(s.markov, s.offchipMeta);
    s.markov.lookups = sc(s.markov.lookups, meta_scale);
    s.markov.hits = sc(s.markov.hits, meta_scale);
    s.markov.inserts = sc(s.markov.inserts, meta_scale);
    s.markov.updates = sc(s.markov.updates, meta_scale);
    s.markov.replacements = sc(s.markov.replacements, meta_scale);
    s.markov.resizeDrops = sc(s.markov.resizeDrops, meta_scale);
    s.offchipMeta.metadataReads =
        sc(s.offchipMeta.metadataReads, meta_scale);
    s.offchipMeta.metadataWrites =
        sc(s.offchipMeta.metadataWrites, meta_scale);
    s.finalMetadataWays = l2Pf ? l2Pf->metadataWays() : 0;

    for (auto &entry : pcMissCounts)
        entry.second = sc(entry.second, scale);
    s.pcMisses = std::move(pcMissCounts);

    // Observability: effective (trace) records, so sweep throughput
    // and --progress report coverage rather than simulated-record
    // counts; the detailed fraction goes to its own counter.
    static metrics::Histogram &warm_ns =
        metrics::histogram("phase.warm_ns");
    static metrics::Histogram &simulate_ns =
        metrics::histogram("phase.simulate_ns");
    static metrics::Counter &records_counter =
        metrics::counter("sim.records");
    static metrics::Counter &sampled_counter =
        metrics::counter("sim.sampled_records");
    static metrics::Counter &runs_counter =
        metrics::counter("sim.runs");
    warm_ns.record(warmWallNs);
    simulate_ns.record(windowWallNs);
    records_counter.inc(n);
    sampled_counter.inc(detailedTotal);
    runs_counter.inc();
    return s;
}

RunStats
System::run(const trace::Trace &t)
{
    if (cfg.sampling.enabled)
        return runSampled(t);

    beginRun(t.size());

    // The whole-trace loop reads the trace's SoA arrays directly — no
    // TraceRecord is materialized — through the same stepRecord body
    // as step(), so run() is bit-identical to the scalar step() loop
    // (pinned by tests/test_pipelines.cc).
    const std::size_t n = t.size();
    const PC *pcs = t.pcData();
    const Addr *addrs = t.addrData();
    const std::uint32_t *metas = t.metaData();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t m = metas[i];
        stepRecord(pcs[i], addrs[i], trace::Trace::gapOf(m),
                   trace::Trace::dependsOf(m),
                   trace::Trace::writeOf(m));
    }
    return finish();
}

} // namespace prophet::sim
