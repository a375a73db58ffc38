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

/** Wall nanoseconds since @p start. */
std::uint64_t
nsSince(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
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
    switch (cfg.l2Pf) {
      case L2PfKind::None:
        break;
      case L2PfKind::Triage:
        l2Pf = std::make_unique<pf::TriagePrefetcher>(cfg.triage);
        break;
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
        // The simplified temporal prefetcher Step 1 profiles under
        // (Section 3.2): Prophet at degree 1 with every component off.
        core::ProphetConfig pc = cfg.prophet;
        pc.degree = 1;
        pc.features = core::ProphetFeatures{false, false, false, false};
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
    runStartTime = std::chrono::steady_clock::now();
    recordIndex = 0;
    detailedTotal = 0;
    warmWallNs = 0;
    windowWallNs = 0;
    windowAccum = WindowAccum{};
    usefulCount = 0;
    lateCount = 0;
    issuedBeforeMark = 0;
    cancelToken = cancellation::current();
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
    // run()'s full-run schedule, a record at a time.
    if (recordIndex < warmBoundary) {
        stepRecordImpl<false>(rec.pc, rec.addr, rec.instGap,
                              rec.dependsOnPrev, rec.isWrite);
        return;
    }
    if (recordIndex == warmBoundary) {
        warmWallNs = nsSince(runStartTime);
        windowBegin();
    }
    stepRecordImpl<true>(rec.pc, rec.addr, rec.instGap,
                         rec.dependsOnPrev, rec.isWrite);
}

RunStats
System::finish()
{
    if (recordIndex > warmBoundary) {
        windowEnd();
        windowWallNs = nsSince(runStartTime) - warmWallNs;
    }
    return finishRun(recordIndex, false);
}

template <bool Detailed>
void
System::stepRecordImpl(PC pc, Addr addr, std::uint16_t inst_gap,
                       bool depends_on_prev, bool is_write)
{
    // Cooperative cancellation: a pure read at coarse intervals, so
    // a token that never fires leaves the run bit-identical — and a
    // detached token (the common case) costs one predictable branch.
    if (cancelToken && (recordIndex & (kPollRecords - 1)) == 0
        && cancelToken->cancelled()) {
        ErrorContext ctx;
        ctx.offset = recordIndex;
        throw Error(ErrorCode::Cancelled,
                    "simulation cancelled mid-run", std::move(ctx));
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

    if (syncActive && (recordIndex & (kPollRecords - 1)) == 0)
        syncPartition();
    ++recordIndex;
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

bool
System::runWindows(const trace::Trace &t, const SamplingConfig &schedule)
{
    const std::size_t n = t.size();
    // Normalized schedule: a window never exceeds its interval, and
    // a zero interval degenerates to back-to-back windows (the spec
    // parser rejects both up front; direct System users get the
    // defensive clamp).
    const std::size_t window =
        std::max<std::size_t>(schedule.windowRecords, 1);
    const std::size_t interval =
        std::max(schedule.intervalRecords, window);
    const std::size_t warm = schedule.warmupRecords;
    const std::size_t offset = schedule.offset;

    const PC *pcs = t.pcData();
    const Addr *addrs = t.addrData();
    const std::uint32_t *metas = t.metaData();

    // Window k occupies the last `window` records of interval k:
    // [offset + (k+1)*interval - window, offset + (k+1)*interval).
    // Before it, up to `warm` records are functionally warmed;
    // everything earlier (back to the previous window's end) is
    // fast-forwarded without any state change — that skipped region
    // is where a sampled run's throughput comes from.
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
            auto t0 = std::chrono::steady_clock::now();
            for (std::size_t i = warm_start; i < win_start; ++i) {
                const std::uint32_t m = metas[i];
                stepRecordImpl<false>(pcs[i], addrs[i],
                                      trace::Trace::gapOf(m),
                                      trace::Trace::dependsOf(m),
                                      trace::Trace::writeOf(m));
            }
            warmWallNs += nsSince(t0);
        }

        auto t0 = std::chrono::steady_clock::now();
        windowBegin();
        for (std::size_t i = win_start; i < win_end; ++i) {
            const std::uint32_t m = metas[i];
            stepRecordImpl<true>(pcs[i], addrs[i],
                                 trace::Trace::gapOf(m),
                                 trace::Trace::dependsOf(m),
                                 trace::Trace::writeOf(m));
        }
        windowEnd();
        windowWallNs += nsSince(t0);
        detailedTotal += win_end - win_start;
        pos = win_end;
    }
    return detailedTotal > 0;
}

RunStats
System::finishRun(std::size_t records, bool sampled)
{
    const auto n = static_cast<std::uint64_t>(records);

    // A sampled run scales window measurements to estimate the full
    // run's measured region — everything past the statistics-warmup
    // boundary the same configuration would place. A schedule whose
    // windows cover exactly that region gets scale 1 (and, with
    // full-trace warming, reproduces the full run bit for bit).
    // Prefetcher-lifetime counters (Markov events, off-chip metadata
    // traffic) accumulate over every warm + detailed record
    // (recordIndex); those scale by the observed fraction instead.
    RunStats s;
    s.records = n;
    double scale = 1.0;
    double meta_scale = 1.0;
    if (sampled) {
        const std::size_t full_boundary =
            std::min<std::size_t>(cfg.warmupRecords, records / 2);
        scale = static_cast<double>(n - full_boundary)
            / static_cast<double>(detailedTotal);
        meta_scale =
            static_cast<double>(n) / static_cast<double>(recordIndex);
        s.sampled = true;
        s.sampledRecords = detailedTotal;
        s.sampleScale = scale;
    }

    auto sc = [](std::uint64_t v, double s) {
        return static_cast<std::uint64_t>(
            std::llround(static_cast<double>(v) * s));
    };

    // IPC is a ratio of window-local quantities: no scaling.
    s.ipc = windowAccum.cycles > 0.0
        ? static_cast<double>(windowAccum.instructions)
            / windowAccum.cycles
        : 0.0;

    // Cycles: actual warm+window cycles plus the extrapolated cycles
    // of the fast-forwarded records. Written as exact + c*(scale-1)
    // so scale == 1 is the core's exact cycles rounded up, bit for
    // bit.
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
    // counts. Registry lookups resolve once per process (each
    // branch's on its first use, so a run publishes only its own
    // kind's instruments); the references stay valid across
    // driver-run resets.
    if (cfg.l2Pf == L2PfKind::Simplified) {
        // Prophet's offline profiling pass (Section 3.2): one bucket
        // for the whole run, keeping the warm/simulate split a pure
        // timing-simulation measure (sampled-vs-full speedups stay
        // comparable even though profiling itself is never sampled).
        static metrics::Histogram &profile_ns =
            metrics::histogram("phase.profile_ns");
        profile_ns.record(nsSince(runStartTime));
    } else if (sampled) {
        static metrics::Histogram &warm_ns =
            metrics::histogram("phase.warm_ns");
        static metrics::Histogram &simulate_ns =
            metrics::histogram("phase.simulate_ns");
        static metrics::Counter &sampled_counter =
            metrics::counter("sim.sampled_records");
        warm_ns.record(warmWallNs);
        simulate_ns.record(windowWallNs);
        sampled_counter.inc(detailedTotal);
    } else {
        static metrics::Histogram &warmup_ns =
            metrics::histogram("phase.warmup_ns");
        static metrics::Histogram &simulate_ns =
            metrics::histogram("phase.simulate_ns");
        warmup_ns.record(warmWallNs);
        simulate_ns.record(windowWallNs);
    }
    static metrics::Counter &records_counter =
        metrics::counter("sim.records");
    static metrics::Counter &runs_counter = metrics::counter("sim.runs");
    records_counter.inc(n);
    runs_counter.inc();
    return s;
}

RunStats
System::run(const trace::Trace &t)
{
    const std::size_t n = t.size();
    beginRun(n);
    bool sampled = false;
    if (cfg.sampling.enabled) {
        sampled = runWindows(t, cfg.sampling);
        if (!sampled)
            prophet_warnf("sampling: no measurement window fits %zu "
                          "records (interval=%zu window=%zu "
                          "offset=%zu); falling back to a full "
                          "detailed run",
                          n, cfg.sampling.intervalRecords,
                          cfg.sampling.windowRecords,
                          cfg.sampling.offset);
    }
    if (!sampled) {
        // The full run is the one-window schedule: warm up to the
        // statistics boundary, then measure everything after it
        // ({enabled, warmup, window, interval, offset}).
        runWindows(t, {false, warmBoundary, n - warmBoundary, n, 0});
    }
    return finishRun(n, sampled);
}

} // namespace prophet::sim
